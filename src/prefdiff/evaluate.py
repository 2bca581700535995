"""Inference rollout for cold-start users and MAE/RMSE evaluation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .autodiff import Tensor
from .config import RunConfig
from .data import ColdStartSplit, DomainData
from .diffusion import reverse_step
from .encoder import encode_history
from .errors import ConfigurationError, DataError
from .params import ModelParams
from .rng import make_rng
from .schedule import Schedule
from .variants import Pipeline


@dataclass(frozen=True)
class EvalReport:
    mae: float
    rmse: float
    n_predictions: int
    per_user: dict[str, tuple[float, float, int]] | None = None

    def tsv(self) -> str:
        lines = ["metric\tvalue",
                 f"mae\t{self.mae:.10g}",
                 f"rmse\t{self.rmse:.10g}",
                 f"n_predictions\t{self.n_predictions}"]
        return "\n".join(lines) + "\n"

    def per_user_tsv(self) -> str:
        lines = ["user_id\tmae\trmse\tn"]
        for uid, (mae, rmse, n) in sorted((self.per_user or {}).items()):
            lines.append(f"{uid}\t{mae:.10g}\t{rmse:.10g}\t{n}")
        return "\n".join(lines) + "\n"


def infer_user(u_init: np.ndarray, h, cfg: RunConfig, s: Schedule,
               params: ModelParams, pipeline: Pipeline | None = None,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Guided reverse rollout from the user's own embedding.

    Applies cfg's t_prime reverse steps (noise-free at t=1) to the
    pipeline's initial state; t_prime = 0 returns that state unchanged.
    The steps run on plain arrays, without an autodiff graph. The noise z is
    float64, so the state is float64 from the first step on, and later
    denoiser matmuls are float64 state times model-dtype weights.
    """
    t_prime = cfg.resolved_t_prime()
    if not 0 <= t_prime <= s.T:
        raise ConfigurationError(f"t_prime={t_prime} outside 0..{s.T}")
    pipeline = pipeline or Pipeline("main")
    x = pipeline.inference_init(np.asarray(u_init),
                                None if h is None else np.asarray(h))
    omega = cfg.omega if pipeline.guided else 0.0
    cond = h if pipeline.guided else None
    for t in range(t_prime, 0, -1):
        z = rng.standard_normal(x.shape[0]) if t > 1 and rng is not None \
            else np.zeros(x.shape[0])
        x = reverse_step(x, cond, t, omega, z, s, params)
    return x


def predict_rating(u0: np.ndarray, v: np.ndarray) -> float:
    """Inner-product score; no clipping to the rating range."""
    return float(np.dot(np.asarray(u0, dtype=np.float64),
                        np.asarray(v, dtype=np.float64)))


def report_from_errors(errors: np.ndarray,
                       per_user: dict | None = None) -> EvalReport:
    if errors.size == 0:
        raise DataError("no predictions to evaluate")
    mae = float(np.mean(np.abs(errors)))
    rmse = float(math.sqrt(np.mean(errors ** 2)))
    return EvalReport(mae=mae, rmse=rmse, n_predictions=int(errors.size),
                      per_user=per_user)


def evaluate(params: ModelParams, s: Schedule, source: DomainData,
             target: DomainData, split: ColdStartSplit, cfg: RunConfig,
             pipeline: Pipeline | None = None,
             collect_per_user: bool = False) -> EvalReport:
    """Score every held-out target rating of every cold-start test user.

    Per-user noise streams are keyed by (seed, global user index) so the
    report is independent of evaluation order.
    """
    pipeline = pipeline or Pipeline("main")
    universe = data_mod.user_universe(source, target)
    test_users = data_mod.users_with_history(source, sorted(split.cold_start_test))
    histories = data_mod.build_histories(source, test_users, cfg.max_history_len)
    recs_by_user: dict[str, list] = {}
    for r in data_mod.held_out_ratings(target, split):
        recs_by_user.setdefault(r.user_id, []).append(r)
    errors: list[float] = []
    per_user: dict[str, tuple[float, float, int]] = {}
    tgt_emb = params["item_emb_tgt"].data
    for uid in test_users:
        recs = recs_by_user.get(uid, [])
        if not recs:
            continue
        hist = histories[uid]
        item_vecs = params["item_emb_src"].data[list(hist.item_indices)]
        h = encode_history(item_vecs, params,
                           bypass_transformer=pipeline.bypass_transformer) \
            if pipeline.uses_history else None
        u_idx = universe[uid]
        u_init = np.array(params["user_emb"].data[u_idx], copy=True)
        rng = make_rng(cfg.seed, u_idx)
        x0 = Tensor(infer_user(u_init, h, cfg, s, params, pipeline, rng)) \
            if pipeline.uses_diffusion else None
        emb = pipeline.score_embedding(
            x0, None if h is None else Tensor(h), Tensor(u_init), params)
        emb = emb.data if isinstance(emb, Tensor) else np.asarray(emb)
        user_errors = []
        for rec in recs:
            pred = predict_rating(emb, tgt_emb[target.item_index[rec.item_id]])
            user_errors.append(pred - rec.rating)
        errors.extend(user_errors)
        if collect_per_user:
            ue = np.asarray(user_errors)
            per_user[uid] = (float(np.mean(np.abs(ue))),
                             float(math.sqrt(np.mean(ue ** 2))), ue.size)
    return report_from_errors(np.asarray(errors),
                              per_user if collect_per_user else None)
