"""Inference rollout for cold-start users and MAE/RMSE evaluation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .config import RunConfig
from .data import ColdStartSplit, DomainData
from .diffusion import reverse_step
from .encoder import encode_history
from .errors import ConfigurationError
from .params import ModelParams
from .rng import make_rng


@dataclass(frozen=True)
class EvalReport:
    mae: float
    rmse: float
    n_predictions: int
    per_user: dict[str, tuple[float, float, int]]

    def tsv(self) -> str:
        lines = ["metric\tvalue",
                 f"mae\t{self.mae:.10g}",
                 f"rmse\t{self.rmse:.10g}",
                 f"n_predictions\t{self.n_predictions}"]
        return "\n".join(lines) + "\n"

    def per_user_tsv(self) -> str:
        lines = ["user_id\tmae\trmse\tn"]
        for uid, (mae, rmse, n) in sorted(self.per_user.items()):
            lines.append(f"{uid}\t{mae:.10g}\t{rmse:.10g}\t{n}")
        return "\n".join(lines) + "\n"


def infer_user(u_init: np.ndarray, h, cfg: RunConfig, params: ModelParams,
               rng: np.random.Generator) -> np.ndarray:
    """Guided reverse rollout from the initial state of the model's wiring.

    Applies cfg's t_prime reverse steps (noise-free at t=1) to that state,
    at cfg's omega, under the model's schedule; t_prime = 0 returns it
    unchanged. The state holds the user's `user_emb` row, which for a
    cold-start user is never gathered in training and so is still its
    initialization draw. rng gives one `standard_normal` block of T'-1
    rows of the state's width, row k the noise of the k-th step (the same
    numbers as one draw per noisy step), cast to the state's dtype. The
    steps run on plain arrays, without an autodiff graph, in the model
    dtype.
    """
    t_prime = cfg.resolved_t_prime()
    pipeline = params.meta.pipeline
    x = pipeline.inference_init(u_init, h)[None, :]
    null = params["null_token"].data[None, :]
    cond = h[None, :] if pipeline.guided else null
    omega = cfg.omega if pipeline.guided else 0.0
    noise = rng.standard_normal((max(t_prime - 1, 0), x.shape[1]))
    noise = noise.astype(x.dtype, copy=False)
    for k, t in enumerate(range(t_prime, 0, -1)):
        z = noise[k] if t > 1 else np.zeros(x.shape[1], x.dtype)
        x = reverse_step(x, cond, null, t, omega, z, params)
    return x[0]


def report_from_errors(errors: np.ndarray, per_user: dict) -> EvalReport:
    mae = float(np.mean(np.abs(errors)))
    rmse = float(math.sqrt(np.mean(errors ** 2)))
    return EvalReport(mae=mae, rmse=rmse, n_predictions=int(errors.size),
                      per_user=per_user)


def evaluate(params: ModelParams, source: DomainData, target: DomainData,
             split: ColdStartSplit, cfg: RunConfig) -> EvalReport:
    """Score every held-out target rating of every cold-start test user,
    under the config, schedule and wiring the parameters were trained with.
    From cfg it reads only omega, t_prime (-1: cfg.T) and seed.

    The report holds each user's MAE, RMSE and count too. Per-user noise
    streams are keyed by (seed, global user index) so the report is
    independent of evaluation order. A rating's prediction is the float64
    inner product of the user's scoring embedding and the item's target
    embedding, not clipped to the rating range. A non-finite
    prediction raises ConfigurationError naming the first user who has one.
    """
    pipeline = params.meta.pipeline
    universe = data_mod.user_universe(source, target)
    test_users = sorted(split.cold_start_test)
    histories, lengths, _ = data_mod.build_histories(
        source, test_users, params.meta.cfg.max_history_len)
    # held-out rows grouped by target user, each group in row order
    rows = data_mod.held_out_ratings(target, split)
    rows = rows[np.argsort(target.user[rows], kind="stable")]
    counts = np.bincount(target.user[rows], minlength=target.n_users)
    ends = np.cumsum(counts)
    errors: list[np.ndarray] = []
    per_user: dict[str, tuple[float, float, int]] = {}
    item_src, tgt_emb = params["item_emb_src"].data, params["item_emb_tgt"].data
    for k, uid in enumerate(test_users):    # every test user has history row k
        code = target.user_index[uid]
        user_rows = rows[ends[code] - counts[code]:ends[code]]
        h = encode_history(item_src[histories[k, :lengths[k]]], params) \
            if pipeline.uses_history else None
        u_idx = universe[uid]
        u_init = params["user_emb"].data[u_idx]
        item_rows = tgt_emb[target.item[user_rows]]
        # a rollout that leaves the dtype's range is refused below, without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = infer_user(u_init, h, cfg, params, make_rng(cfg.seed, u_idx)) \
                if pipeline.diffusion else None
            emb = pipeline.score_embedding(x0, h, u_init, params)
            # np.vecdot is bitwise np.dot per row; V @ e would round differently
            ue = np.vecdot(emb.astype(np.float64), item_rows.astype(np.float64)) \
                - target.rating[user_rows]
        if not np.isfinite(ue).all():
            raise ConfigurationError(
                f"user {uid}: non-finite prediction at omega={cfg.omega}, "
                f"t_prime={cfg.resolved_t_prime()}: the rollout left the range "
                f"of {params.meta.cfg.dtype}")
        errors.append(ue)
        per_user[uid] = (float(np.mean(np.abs(ue))), float(math.sqrt(np.mean(ue ** 2))),
                         ue.size)
    return report_from_errors(np.concatenate(errors), per_user)
