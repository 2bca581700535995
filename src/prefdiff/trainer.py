"""Training loop: batch assembly over overlapping users, forward corruption
at a per-example sampled step, conditioned prediction, the joint loss
L = L_rec + lambda * L_diff, and adaptive gradient updates.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from .config import RunConfig
from .data import ColdStartSplit, DomainData
from .diffusion import denoise, forward_marginal
from .encoder import encode_batch
from .errors import TrainingError
from .params import ModelMeta, ModelParams, init_params
from .rng import make_rng

logger = logging.getLogger(__name__)

# the moment decay rates and the denominator floor of every Adam update
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class Examples:
    """Training examples as columns, one row per visible target rating.

    Example k's source history is row `history_row[k]` of `histories`, a
    zero-padded table of source item indices, oldest first, whose first
    `lengths[history_row[k]]` entries are the history."""
    user: np.ndarray          # (n,) global user index
    item: np.ndarray          # (n,) target item index
    rating: np.ndarray        # (n,) float64
    history_row: np.ndarray   # (n,)
    histories: np.ndarray     # (n_histories, max_history_len) int64
    lengths: np.ndarray       # (n_histories,)


class AdamState:
    """First/second moment accumulators with bias correction. The moments
    of the parameters that get gradients live in two flat buffers, laid out
    at the first update over those parameters in model order; a model's
    arrays share its dtype, which the buffers take. Which parameters get
    gradients is fixed by the model's wiring, so the layout holds for every
    step."""

    def __init__(self):
        self.step = 0
        self._flat: tuple[np.ndarray, ...] = ()
        self._deltas: list[np.ndarray] = []

    def _lay_out(self, live: list[ad.Tensor]) -> None:
        """Zeroed flat buffers over the `live` parameters, in their order."""
        dtype = live[0].data.dtype
        sizes = [tensor.data.size for tensor in live]
        m, v, delta, denom = (np.zeros(sum(sizes), dtype) for _ in range(4))
        start = 0
        for tensor, size in zip(live, sizes):
            self._deltas.append(delta[start:start + size].reshape(tensor.data.shape))
            start += size
        self._flat = (m, v, delta, denom)

    def update(self, params: ModelParams, lr: float) -> None:
        """One Adam step over every parameter with a gradient, in one pass
        over the flat buffers. The moments are updated in place, with the
        same operations in the same order as the textbook formula, so the
        result is the same to the bit. `tensor.data` is rebound to a new
        array, so an array that a graph node or a caller still holds keeps
        the values it was read with; a parameter without a gradient is left
        untouched."""
        self.step += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        live = [t for t in params.arrays.values() if t.grad is not None]
        if not self._flat:
            self._lay_out(live)
        m, v, delta, denom = self._flat
        g = np.concatenate([t.grad for t in live], axis=None, dtype=m.dtype)
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        np.divide(m, 1 - b1 ** self.step, out=delta)
        delta *= lr
        np.divide(v, 1 - b2 ** self.step, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        delta /= denom
        for tensor, step in zip(live, self._deltas):
            tensor.data = tensor.data - step


@dataclass
class TrainerState:
    optimizer: AdamState
    rng: np.random.Generator


def new_trainer_state(seed: int) -> TrainerState:
    return TrainerState(optimizer=AdamState(), rng=make_rng(seed, 0x7121))


def rec_loss(pred_ratings, true_ratings):
    """Mean squared error over n >= 1 ratings; polymorphic over numpy arrays
    and autodiff tensors."""
    n = pred_ratings.shape[0]
    diff = pred_ratings - np.asarray(true_ratings)
    return (diff * diff).sum() * (1.0 / n)


def _batch_arrays(examples: Examples, rows: np.ndarray, dtype: str):
    """The batch's columns; histories are cut to the longest one in the
    batch and padded with item 0, which `mask` marks as padding."""
    hist_rows = examples.history_row[rows]
    lengths = examples.lengths[hist_rows]
    width = lengths.max()
    hist = examples.histories[hist_rows, :width]
    mask = np.arange(width) < lengths[:, None]
    return (examples.user[rows], hist, mask, examples.item[rows],
            examples.rating[rows].astype(dtype))


@dataclass(frozen=True)
class BatchDraws:
    """All randomness of one training step, so a step can be replayed at
    perturbed parameters (gradient checking) or at different lambda."""
    r: np.ndarray | None   # uniform(0,1) condition-mask draws, (B,)
    t: np.ndarray          # per-example diffusion steps, (B,)
    eps: np.ndarray        # forward noise, (B, state_dim)


def sample_draws(rng: np.random.Generator, B: int, meta: ModelMeta) -> BatchDraws:
    """The draws of a batch of B examples for the model that `meta` describes."""
    r = rng.uniform(size=B) if meta.pipeline.guided else None
    t = rng.integers(1, meta.cfg.T + 1, size=B)
    eps = rng.standard_normal((B, meta.state_dim)).astype(meta.cfg.dtype)
    return BatchDraws(r=r, t=t, eps=eps)


def compute_batch_loss(examples: Examples, rows: np.ndarray, params: ModelParams,
                       draws: BatchDraws):
    """Joint loss over the batch of examples at `rows` as an autodiff
    scalar, plus the loss report, under the config, schedule and wiring of
    the parameters."""
    pipeline = params.meta.pipeline
    cfg = params.meta.cfg
    dtype, d1 = cfg.dtype, cfg.d1
    users, hist, mask, items, ratings = _batch_arrays(examples, rows, dtype)
    B = len(rows)

    u0 = ad.gather(params["user_emb"], users)

    h = None
    if pipeline.uses_history:
        item_vecs = ad.gather(params["item_emb_src"], hist)
        h = encode_batch(item_vecs, mask, params)

    n_masked = 0
    null = params["null_token"]     # (d1,), broadcast over the batch rows
    if pipeline.guided:
        keep = (draws.r >= cfg.p_uncond).astype(dtype)[:, None]
        n_masked = int(B - keep.sum())
        cond = h * keep + null * (1.0 - keep)
    else:
        cond = null * np.ones((B, 1), dtype=dtype)

    if pipeline.diffusion:
        x0 = pipeline.clean_state(u0, h)
        t = draws.t
        x_t = forward_marginal(x0, t, draws.eps, params.schedule)
        nm = pipeline.noise_mask(d1)
        if nm is not None:
            nmf = nm.astype(dtype)
            x_t = x_t * nmf + x0 * (1.0 - nmf)
        x0_hat = denoise(x_t, cond, t, params)
        diff = x0_hat - x0
        per_example = (diff * diff).sum(axis=1)
        if cfg.loss_weighting == "variance_weighted":
            per_example = per_example * params.schedule.loss_weight[t - 1].astype(dtype)
        l_diff = per_example.sum() * (1.0 / B)
        emb = pipeline.score_embedding(x0_hat, h, u0, params)
    else:
        l_diff = None
        emb = pipeline.score_embedding(None, h, u0, params)

    v = ad.gather(params["item_emb_tgt"], items)
    pred = (emb * v).sum(axis=1)
    l_rec = rec_loss(pred, ratings)

    rec_val = float(l_rec.data)
    diff_val = float(l_diff.data) if l_diff is not None else 0.0
    if not np.isfinite(rec_val):
        raise TrainingError("non-finite rating loss (L_rec)")
    if not np.isfinite(diff_val):
        raise TrainingError("non-finite diffusion loss (L_diff)")

    total = l_rec + cfg.lam * l_diff if l_diff is not None else l_rec
    report = {"rec": rec_val, "diff": diff_val,
              "total": float(total.data), "masked": n_masked, "batch": B}
    return total, report


def train_step(examples: Examples, rows: np.ndarray, params: ModelParams,
               state: TrainerState) -> dict:
    """One gradient update on the joint loss over the batch of examples at
    `rows`, which are not empty; returns the loss report. Steps t and
    condition masks are sampled per example."""
    draws = sample_draws(state.rng, len(rows), params.meta)
    params.zero_grads()
    total, report = compute_batch_loss(examples, rows, params, draws)
    total.backward()
    state.optimizer.update(params, params.meta.cfg.learning_rate)
    params.zero_grads()
    return report


def build_examples(source: DomainData, target: DomainData, split: ColdStartSplit,
                   universe: dict[str, int], max_history_len: int) -> Examples:
    """One example per visible (user, target item, rating) row, in row
    order. Every train user has a source history (`ColdStartSplit`)."""
    histories, lengths, row_of = data_mod.build_histories(
        source, sorted(split.overlap_train), max_history_len)
    rows = data_mod.training_ratings(target, split)
    # per target user: the global index, and the history row (-1: not a train user)
    global_idx = np.fromiter(map(universe.__getitem__, target.users), np.int64,
                             count=target.n_users)
    user_hist = np.fromiter((row_of.get(u, -1) for u in target.users), np.int64,
                            count=target.n_users)
    users = target.user[rows]
    return Examples(user=global_idx[users], item=target.item[rows],
                    rating=target.rating[rows], history_row=user_hist[users],
                    histories=histories, lengths=lengths)


def train(source: DomainData, target: DomainData, split: ColdStartSplit,
          cfg: RunConfig) -> tuple[ModelParams, list[dict]]:
    """Run the full training loop under cfg's wiring; deterministic per
    cfg.seed. The returned parameters carry cfg in their metadata."""
    universe = data_mod.user_universe(source, target)
    params = init_params(cfg, len(universe), source.n_items, target.n_items)
    examples = build_examples(source, target, split, universe,
                              cfg.max_history_len)
    n_examples = len(examples.user)
    state = new_trainer_state(cfg.seed)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        order = state.rng.permutation(n_examples)
        sums = {"rec": 0.0, "diff": 0.0, "total": 0.0}
        starts = range(0, n_examples, cfg.batch_size)
        for start in starts:
            report = train_step(examples, order[start:start + cfg.batch_size],
                                params, state)
            for k in sums:
                sums[k] += report[k]
        row = {"epoch": epoch + 1, **{k: sums[k] / len(starts) for k in sums}}
        history.append(row)
        logger.info("epoch %d: rec=%.5f diff=%.5f total=%.5f",
                    row["epoch"], row["rec"], row["diff"], row["total"])
    return params, history


def loss_history_tsv(history: list[dict]) -> str:
    lines = ["epoch\tL_rec\tL_diff\ttotal"]
    for row in history:
        lines.append(f"{row['epoch']}\t{row['rec']:.10g}\t{row['diff']:.10g}\t{row['total']:.10g}")
    return "\n".join(lines) + "\n"
