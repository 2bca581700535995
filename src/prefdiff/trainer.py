"""Training loop: batch assembly over overlapping users, forward corruption
at a per-example sampled step, conditioned prediction, the joint loss
L = L_rec + lambda * L_diff, and adaptive gradient updates.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from .config import RunConfig
from .data import AccessCounter, ColdStartSplit, DomainData
from .diffusion import denoise
from .encoder import encode_batch
from .errors import DataError, TrainingError
from .params import ModelParams, init_params
from .rng import make_rng
from .schedule import Schedule, build_schedule
from .variants import Pipeline

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainExample:
    user_idx: int
    history: tuple[int, ...]   # source-item indices, chronological
    target_item_idx: int
    rating: float


class AdamState:
    """Per-array first/second moment accumulators with bias correction."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0

    def update(self, params: ModelParams, lr: float) -> None:
        self.step += 1
        b1, b2 = self.beta1, self.beta2
        for name, tensor in params.arrays.items():
            if tensor.grad is None:
                continue
            g = tensor.grad.astype(tensor.data.dtype)
            if name not in self.m:
                self.m[name] = np.zeros_like(tensor.data)
                self.v[name] = np.zeros_like(tensor.data)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.step)
            v_hat = self.v[name] / (1 - b2 ** self.step)
            delta = lr * m_hat / (np.sqrt(v_hat) + self.eps)
            tensor.data = tensor.data - delta.astype(tensor.data.dtype)


@dataclass
class TrainerState:
    optimizer: AdamState
    rng: np.random.Generator
    masked_examples: int = 0
    total_examples: int = 0


def new_trainer_state(seed: int) -> TrainerState:
    return TrainerState(optimizer=AdamState(), rng=make_rng(seed, 0x7121))


def rec_loss(pred_ratings, true_ratings):
    """Mean squared error; polymorphic over numpy arrays and autodiff tensors."""
    n = pred_ratings.shape[0]
    if n == 0:
        raise DataError("rec_loss over empty input")
    diff = pred_ratings - np.asarray(true_ratings, dtype=float)
    return (diff * diff).sum() * (1.0 / n)


def diffusion_coefficient(s: Schedule, t, weighting: str):
    """Per-step weight on the squared clean-state error, for an int step
    (a float) or an int array of steps (a float64 array).

    The variance at t=1 is zero, which makes the exact weight singular; the
    floor is the t=2 variance. Simplified weighting drops the coefficient."""
    t = np.asarray(t)
    if weighting == "simplified":
        coef = np.ones(t.shape)
    else:
        if np.any((t < 1) | (t > s.T)):
            raise IndexError(f"step t outside 1..{s.T}")
        floor = float(s.beta_tilde[1]) if s.T >= 2 else 1.0
        sigma2 = np.maximum(s.beta_tilde[t - 1], floor)
        ab_prev = np.where(t == 1, 1.0, s.alpha_bar[t - 2])
        coef = ab_prev / (2.0 * sigma2)
    return float(coef) if coef.ndim == 0 else coef


def _batch_arrays(batch: list[TrainExample], dtype: str):
    B = len(batch)
    lengths = np.fromiter((len(e.history) for e in batch), dtype=np.int64, count=B)
    mask = np.arange(lengths.max()) < lengths[:, None]
    hist = np.zeros(mask.shape, dtype=np.int64)
    hist[mask] = np.fromiter(chain.from_iterable(e.history for e in batch),
                             dtype=np.int64, count=int(lengths.sum()))
    users = np.array([e.user_idx for e in batch], dtype=np.int64)
    items = np.array([e.target_item_idx for e in batch], dtype=np.int64)
    ratings = np.array([e.rating for e in batch], dtype=dtype)
    return users, hist, mask, items, ratings


@dataclass(frozen=True)
class BatchDraws:
    """All randomness of one training step, so a step can be replayed at
    perturbed parameters (gradient checking) or at different lambda."""
    r: np.ndarray | None   # uniform(0,1) condition-mask draws, (B,)
    t: np.ndarray          # per-example diffusion steps, (B,)
    eps: np.ndarray        # forward noise, (B, state_dim)


def sample_draws(rng: np.random.Generator, B: int, state_dim: int, T: int,
                 uses_masking: bool, dtype: str) -> BatchDraws:
    r = rng.uniform(size=B) if uses_masking else None
    t = rng.integers(1, T + 1, size=B)
    eps = rng.standard_normal((B, state_dim)).astype(dtype)
    return BatchDraws(r=r, t=t, eps=eps)


def compute_batch_loss(batch: list[TrainExample], params: ModelParams,
                       cfg: RunConfig, s: Schedule, pipeline: Pipeline,
                       draws: BatchDraws):
    """Joint loss over a batch as an autodiff scalar, plus the loss report."""
    dtype = params.meta.dtype
    d1 = params.meta.d1
    users, hist, mask, items, ratings = _batch_arrays(batch, dtype)
    B = len(batch)

    u0 = ad.gather(params["user_emb"], users)

    h = None
    if pipeline.uses_history:
        item_vecs = ad.gather(params["item_emb_src"], hist)
        h = encode_batch(item_vecs, mask, params,
                         bypass_transformer=pipeline.bypass_transformer)

    n_masked = 0
    null_row = params["null_token"].reshape((1, d1))
    if pipeline.uses_masking:
        keep = (draws.r >= cfg.p_uncond).astype(dtype)[:, None]
        n_masked = int(B - keep.sum())
        cond = h * keep + null_row * (1.0 - keep)
    else:
        cond = null_row * np.ones((B, 1), dtype=dtype)

    if pipeline.uses_diffusion:
        x0 = pipeline.clean_state(u0, h)
        t = draws.t
        a = np.sqrt(s.alpha_bar[t - 1]).astype(dtype)[:, None]
        b = np.sqrt(s.one_minus_alpha_bar[t - 1]).astype(dtype)[:, None]
        x_t = a * x0 + b * draws.eps
        nm = pipeline.noise_mask(d1)
        if nm is not None:
            nmf = nm.astype(dtype)
            x_t = x_t * nmf + x0 * (1.0 - nmf)
        x0_hat = denoise(x_t, cond, t, params)
        coefs = diffusion_coefficient(s, t, cfg.loss_weighting).astype(dtype)
        diff = x0_hat - x0
        per_example = (diff * diff).sum(axis=1)
        l_diff = (per_example * coefs).mean()
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


def train_step(batch: list[TrainExample], params: ModelParams,
               state: TrainerState, cfg: RunConfig, s: Schedule,
               pipeline: Pipeline | None = None) -> dict:
    """One gradient update on the joint loss over a batch; returns the loss
    report. Steps t and condition masks are sampled per example."""
    if not batch:
        raise DataError("empty batch")
    pipeline = pipeline or Pipeline("main")
    state_dim = pipeline.state_mult * params.meta.d1
    draws = sample_draws(state.rng, len(batch), state_dim, s.T,
                         pipeline.uses_masking, params.meta.dtype)
    params.zero_grads()
    total, report = compute_batch_loss(batch, params, cfg, s, pipeline, draws)
    state.masked_examples += report["masked"]
    state.total_examples += report["batch"]
    total.backward()
    state.optimizer.update(params, cfg.learning_rate)
    params.zero_grads()
    return report


def build_examples(source: DomainData, target: DomainData, split: ColdStartSplit,
                   universe: dict[str, int], max_history_len: int,
                   counter: AccessCounter | None = None) -> list[TrainExample]:
    """One example per visible (user, target item, rating) triple, for train
    users with a non-empty source history."""
    eligible = data_mod.users_with_history(source, sorted(split.overlap_train))
    histories = {u: hist.item_indices for u, hist in
                 data_mod.build_histories(source, eligible, max_history_len).items()}
    examples = []
    for rec in data_mod.training_ratings(target, split, counter):
        if rec.user_id not in histories:
            continue
        examples.append(TrainExample(
            user_idx=universe[rec.user_id],
            history=histories[rec.user_id],
            target_item_idx=target.item_index[rec.item_id],
            rating=rec.rating,
        ))
    return examples


def train(source: DomainData, target: DomainData, split: ColdStartSplit,
          cfg: RunConfig, pipeline: Pipeline | None = None,
          counter: AccessCounter | None = None) -> tuple[ModelParams, list[dict]]:
    """Run the full training loop; deterministic per cfg.seed."""
    pipeline = pipeline or Pipeline("main")
    s = build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
    universe = data_mod.user_universe(source, target)
    params = init_params(
        n_users=len(universe), n_items_src=source.n_items,
        n_items_tgt=target.n_items, d1=cfg.d1, seed=cfg.seed,
        init_scale=cfg.init_scale, hidden=cfg.hidden,
        mlp_layers=cfg.mlp_layers, enc_layers=cfg.enc_layers,
        n_heads=cfg.n_heads, max_len=cfg.max_history_len, T=cfg.T,
        state_mult=pipeline.state_mult,
        with_projection=pipeline.with_projection, dtype=cfg.dtype)
    examples = build_examples(source, target, split, universe,
                              cfg.max_history_len, counter)
    if not examples and cfg.epochs > 0:
        raise DataError("no training examples")
    state = new_trainer_state(cfg.seed)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        order = state.rng.permutation(len(examples))
        sums = {"rec": 0.0, "diff": 0.0, "total": 0.0}
        n_batches = 0
        for start in range(0, len(examples), cfg.batch_size):
            batch = [examples[i] for i in order[start:start + cfg.batch_size]]
            report = train_step(batch, params, state, cfg, s, pipeline)
            for k in sums:
                sums[k] += report[k]
            n_batches += 1
        row = {"epoch": epoch + 1,
               **{k: sums[k] / max(n_batches, 1) for k in sums}}
        history.append(row)
        logger.info("epoch %d: rec=%.5f diff=%.5f total=%.5f",
                    row["epoch"], row["rec"], row["diff"], row["total"])
    return params, history


def loss_history_tsv(history: list[dict]) -> str:
    lines = ["epoch\tL_rec\tL_diff\ttotal"]
    for row in history:
        lines.append(f"{row['epoch']}\t{row['rec']:.10g}\t{row['diff']:.10g}\t{row['total']:.10g}")
    return "\n".join(lines) + "\n"
