"""Inference rollout and cold-start evaluation."""
import math
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from prefdiff import evaluate as evaluate_mod
from prefdiff.autodiff import Tensor
from prefdiff.cli import _check_checkpoint
from prefdiff.data import (build_histories, held_out_ratings, split_cold_start,
                           user_universe)
from prefdiff.diffusion import denoise, reverse_step
from prefdiff.encoder import encode_history
from prefdiff.errors import CheckpointError, ConfigurationError, DataError
from prefdiff.evaluate import (EvalReport, evaluate, infer_user,
                               report_from_errors)
from prefdiff.params import ModelParams, init_params, load_checkpoint, save_checkpoint
from prefdiff.rng import make_rng
from prefdiff.schedule import posterior_mean_coeffs
from prefdiff.trainer import train

from conftest import SELECTORS, run_configs
from test_trainer import tiny_cfg, toy_domains


def test_zero_steps_returns_input_bitwise(tiny_params):
    u = make_rng(1, 0).standard_normal(4)
    h = make_rng(1, 1).standard_normal(4)
    out = infer_user(u, h, tiny_cfg(omega=2.0, t_prime=0), tiny_params,
                     make_rng(0, 0))
    assert out.tobytes() == u.tobytes()
    out[0] = 42.0
    assert u[0] != 42.0  # a copy, not a view


def test_single_step_matches_hand_rollout(tiny_params):
    # T' = 1 is exactly one noise-free reverse step at t = 1
    u = make_rng(2, 0).standard_normal(4)
    h = make_rng(2, 1).standard_normal(4)
    cfg = tiny_cfg(omega=1.5, t_prime=1, seed=0)
    got = infer_user(u, h, cfg, tiny_params, make_rng(0, 0))
    c0, ct, var = posterior_mean_coeffs(tiny_params.schedule, 1)
    null = tiny_params["null_token"].data[None, :]
    pred = 2.5 * denoise(u[None, :], h[None, :], 1, tiny_params).data[0] \
        - 1.5 * denoise(u[None, :], null, 1, tiny_params).data[0]
    assert var == 0.0
    assert np.allclose(got, c0 * pred + ct * u, atol=1e-12)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("t_prime", [-1, 0, 1, 2, 5])
def test_rollout_matches_stepwise_hand_rollout(t_prime, dtype):
    # the rollout visits exactly t = t'..1 (T..1 at t_prime = -1), and its
    # one (T'-1, d) noise block gives the numbers of one standard_normal(d)
    # draw per noisy step, in step order, each cast to the model dtype
    cfg = tiny_cfg(omega=1.5, t_prime=t_prime, dtype=dtype)
    p = init_params(cfg, 6, 8, 9)
    u = make_rng(4, 0).standard_normal(4).astype(dtype)
    h = make_rng(4, 1).standard_normal(4).astype(dtype)
    got = infer_user(u, h, cfg, p, make_rng(cfg.seed, 5))
    rng = make_rng(cfg.seed, 5)
    null = p["null_token"].data[None, :]
    x = u[None, :]
    for t in range(cfg.resolved_t_prime(), 0, -1):
        z = rng.standard_normal(4).astype(dtype) if t > 1 else np.zeros(4, dtype)
        x = reverse_step(x, h[None, :], null, t, 1.5, z, p)
    assert got.dtype == x.dtype == dtype
    assert got.tobytes() == x[0].tobytes()


def test_rollout_deterministic_given_rng_key(tiny_params):
    u = make_rng(3, 0).standard_normal(4)
    h = make_rng(3, 1).standard_normal(4)
    cfg = tiny_cfg(omega=1.0, t_prime=5, seed=9)
    a = infer_user(u, h, cfg, tiny_params, make_rng(9, 4))
    b = infer_user(u, h, cfg, tiny_params, make_rng(9, 4))
    c = infer_user(u, h, cfg, tiny_params, make_rng(9, 5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_t_prime_out_of_range(tiny_params):
    # infer_user trusts t_prime: the run config holds it to -1 (T) or 0..T
    # (test_schedule.py::test_step_range_checks), and eval refuses a config
    # whose T is not the checkpoint's
    trained = tiny_params.meta
    with pytest.raises(CheckpointError, match="T is 5 in the checkpoint but 6"):
        _check_checkpoint(trained, replace(trained, cfg=replace(trained.cfg, T=6, t_prime=6)))


def test_report_from_errors_values():
    rep = report_from_errors(np.array([1.0, -1.0, 2.0]), {})
    assert rep.mae == pytest.approx(4 / 3)
    assert rep.rmse == pytest.approx(math.sqrt(2.0))
    assert rep.n_predictions == 3


def test_report_tsv_formats():
    rep = EvalReport(mae=0.5, rmse=0.75, n_predictions=8,
                     per_user={"u1": (0.5, 0.6, 4), "u0": (0.4, 0.5, 4)})
    lines = rep.tsv().strip().split("\n")
    assert lines[0] == "metric\tvalue"
    assert lines[1] == "mae\t0.5"
    pu = rep.per_user_tsv().strip().split("\n")
    assert pu[0] == "user_id\tmae\trmse\tn"
    assert pu[1].startswith("u0\t")  # sorted by user id


def _dot64(u, v) -> float:
    return float(np.dot(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)))


def _trained_setup(seed=11, epochs=4, dtype="float64"):
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=epochs, batch_size=16, seed=seed, dtype=dtype)
    params, _ = train(src, tgt, split, cfg)
    return src, tgt, split, params


def test_evaluate_covers_all_held_out_ratings():
    src, tgt, split, params = _trained_setup()
    cfg = tiny_cfg(omega=1.0, t_prime=3, seed=5)
    rep = evaluate(params, src, tgt, split, cfg)
    assert rep.n_predictions == len(held_out_ratings(tgt, split))
    assert set(rep.per_user) == set(split.cold_start_test)
    assert sum(n for _, _, n in rep.per_user.values()) == rep.n_predictions
    assert np.isfinite(rep.mae) and rep.rmse >= rep.mae


def test_evaluate_deterministic_and_seed_keyed_per_user():
    src, tgt, split, params = _trained_setup()
    a = evaluate(params, src, tgt, split,
                 tiny_cfg(omega=1.0, t_prime=5, seed=7))
    b = evaluate(params, src, tgt, split,
                 tiny_cfg(omega=1.0, t_prime=5, seed=7))
    c = evaluate(params, src, tgt, split,
                 tiny_cfg(omega=1.0, t_prime=5, seed=8))
    assert a == b
    assert a.mae != c.mae


def test_evaluate_t_prime_zero_is_raw_embeddings():
    # with no reverse steps the score is the untouched user embedding
    src, tgt, split, params = _trained_setup()
    rep = evaluate(params, src, tgt, split,
                   tiny_cfg(omega=1.0, t_prime=0, seed=7))
    universe = user_universe(src, tgt)
    errors = []
    for k in held_out_ratings(tgt, split):
        u = params["user_emb"].data[universe[tgt.users[tgt.user[k]]]]
        v = params["item_emb_tgt"].data[tgt.item[k]]
        errors.append(_dot64(u, v) - tgt.rating[k])
    want = report_from_errors(np.asarray(errors), {})
    assert rep.mae == pytest.approx(want.mae, rel=1e-12)


def test_evaluate_scores_are_unclipped_float64_dots():
    # a rating's prediction is the float64 inner product of the scoring
    # embedding and the item embedding, never clipped to the rating range
    src, tgt, split, params = _trained_setup(epochs=0, dtype="float32")
    params["user_emb"].data[...] *= 1000.0
    rep = evaluate(params, src, tgt, split, tiny_cfg(t_prime=0, seed=7))
    universe = user_universe(src, tgt)
    preds = []
    for uid, (mae, rmse, n) in rep.per_user.items():
        recs = [k for k in held_out_ratings(tgt, split) if tgt.users[tgt.user[k]] == uid]
        u = params["user_emb"].data[universe[uid]]
        p = [_dot64(u, params["item_emb_tgt"].data[tgt.item[k]]) for k in recs]
        errors = np.array(p) - tgt.rating[recs]
        assert n == len(recs)
        assert mae == pytest.approx(np.mean(np.abs(errors)), rel=1e-12)
        assert rmse == pytest.approx(math.sqrt(np.mean(errors ** 2)), rel=1e-12)
        preds += p
    assert max(preds) > 5.0 and min(preds) < 0.0  # outside the rating range


def test_evaluate_runs_for_every_pipeline():
    src, tgt, split, params = _trained_setup(epochs=1)
    for variant, ablation in ((0, "none"), (1, "none"), (0, "no_tf"), (0, "no_gs")):
        # main-shaped params serve every wiring without extra arrays
        cfg = replace(params.meta.cfg, variant=variant, ablation=ablation)
        rewired = ModelParams(params.arrays, replace(params.meta, cfg=cfg))
        rep = evaluate(rewired, src, tgt, split,
                       tiny_cfg(omega=0.5, t_prime=2, seed=1))
        assert np.isfinite(rep.mae)


@pytest.mark.parametrize("t_prime", [0, 1, 5])
@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_every_pipeline_at_every_t_prime(variant, ablation, t_prime):
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=1, batch_size=16, variant=variant, ablation=ablation,
                   omega=1.0, t_prime=t_prime)
    params, _ = train(src, tgt, split, cfg)
    pipe = params.meta.pipeline
    rep = evaluate(params, src, tgt, split, cfg)
    assert np.isfinite(rep.mae)
    if t_prime != 0:
        return
    # no reverse step: the score is the projection of the initial state
    universe = user_universe(src, tgt)
    table, lengths, row_of = build_histories(src, split.cold_start_test,
                                             cfg.max_history_len)
    errors = []
    for k in sorted(held_out_ratings(tgt, split), key=lambda k: tgt.users[tgt.user[k]]):
        uid = tgt.users[tgt.user[k]]
        u = params["user_emb"].data[universe[uid]]
        items = table[row_of[uid], :lengths[row_of[uid]]]
        h = encode_history(params["item_emb_src"].data[items], params)
        x = pipe.inference_init(u, h)
        assert np.array_equal(infer_user(u, h, cfg, params, make_rng(0, 0)), x)
        emb = pipe.score_embedding(*(None if a is None else Tensor(a[None, :])
                                     for a in (x if pipe.diffusion else None, h, u)),
                                   params).data[0]
        v = params["item_emb_tgt"].data[tgt.item[k]]
        errors.append(_dot64(emb, v) - tgt.rating[k])
    assert rep.mae == pytest.approx(report_from_errors(np.asarray(errors), {}).mae,
                                    rel=1e-12)


def _as_float64(params: ModelParams) -> ModelParams:
    """The same weights, cast up, in a float64 model."""
    return ModelParams({name: Tensor(t.data.astype(np.float64))
                        for name, t in params.arrays.items()},
                       replace(params.meta, cfg=replace(params.meta.cfg, dtype="float64")))


def _recording(fn, seen: list):
    """fn, appending each result to `seen`."""
    def wrapped(*args):
        seen.append(fn(*args))
        return seen[-1]
    return wrapped


@pytest.mark.parametrize("omega", [0.0, 2.0])
@pytest.mark.parametrize("t_prime", [0, 1, 5])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_a_rollout_stays_in_the_model_dtype(variant, ablation, dtype, t_prime, omega,
                                            monkeypatch):
    # float64 noise in a float32 rollout would promote every step after the
    # first to float64: each reverse step of every user's rollout returns
    # its state in the model dtype
    src, tgt = toy_domains(n_overlap=10)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(variant=variant, ablation=ablation, dtype=dtype, omega=omega,
                   t_prime=t_prime)
    p = init_params(cfg, len(user_universe(src, tgt)), src.n_items, tgt.n_items)
    steps, rollouts = [], []
    monkeypatch.setattr(evaluate_mod, "reverse_step", _recording(reverse_step, steps))
    monkeypatch.setattr(evaluate_mod, "infer_user", _recording(infer_user, rollouts))
    evaluate(p, src, tgt, split, cfg)
    users = len(split.cold_start_test) if p.meta.pipeline.diffusion else 0
    assert (len(rollouts), len(steps)) == (users, users * t_prime)
    assert {x.dtype for x in steps + rollouts} <= {np.dtype(dtype)}


# worst over training seeds 0-29 x the 9 diffusing selectors x omega 0, 2
# at T = 20: 5.2e-7 (a user's state) and 9.8e-9 (MAE); the bounds keep more
# than 10x margin over both
STATE_BOUND_F32 = 1e-5
MAE_BOUND_F32 = 1e-6


@pytest.mark.parametrize("omega", [0.0, 2.0])
@pytest.mark.parametrize("variant,ablation", SELECTORS[:-1])
def test_float32_rollout_is_within_bound_of_float64(variant, ablation, omega, monkeypatch):
    # one trained float32 model, and its weights cast to float64: the
    # float32 rollout rounds in float32 at every step, the gap to the
    # float64 rollout of the same weights and noise stays small
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=2, batch_size=16, variant=variant, ablation=ablation,
                   omega=omega, T=20, dtype="float32")
    p32, _ = train(src, tgt, split, cfg)
    runs = []
    for p in (p32, _as_float64(p32)):
        rollouts = []
        monkeypatch.setattr(evaluate_mod, "infer_user", _recording(infer_user, rollouts))
        runs.append((rollouts, evaluate(p, src, tgt, split, cfg).mae))
    (states32, mae32), (states64, mae64) = runs
    assert len(states32) == len(states64) == len(split.cold_start_test)
    for x32, x64 in zip(states32, states64):
        assert (x32.dtype, x64.dtype) == (np.float32, np.float64)
        assert np.linalg.norm(x32 - x64) <= STATE_BOUND_F32 * np.linalg.norm(x64)
    assert abs(mae32 - mae64) <= MAE_BOUND_F32 * mae64


def test_evaluate_refuses_a_non_finite_prediction():
    # omega = 1e39 is finite, and so is a float64 rollout at it; in float32
    # the guided prediction (1 + omega) * pred overflows
    src, tgt, split, params = _trained_setup(epochs=1, dtype="float32")
    cfg = tiny_cfg(omega=1e39, t_prime=1)
    first = sorted(split.cold_start_test)[0]
    # refused with the one error, and no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=f"user {first}: non-finite prediction"):
            evaluate(params, src, tgt, split, cfg)
    assert np.isfinite(evaluate(_as_float64(params), src, tgt, split, cfg).mae)


def _tiny_run_report(variant, ablation):
    """The report of a tiny float32 train then a guided eval at t_prime = T."""
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=2, batch_size=16, variant=variant, ablation=ablation,
                   omega=2.0, t_prime=5, dtype="float32")
    params, _ = train(src, tgt, split, cfg)
    return evaluate(params, src, tgt, split, cfg)


# report lines of float32 models (a different BLAS build may move their
# last digits)
GOLDEN_REPORTS = {
    (0, "none"): ("mae\t3.792550337", "rmse\t3.942042416"),
    (1, "none"): ("mae\t3.882049681", "rmse\t4.002656704"),
    (2, "none"): ("mae\t3.830982783", "rmse\t3.951580865"),
    (3, "none"): ("mae\t3.827199374", "rmse\t3.948412445"),
    (4, "none"): ("mae\t3.794795944", "rmse\t3.936464906"),
    (5, "none"): ("mae\t3.822933967", "rmse\t3.942684742"),
    (6, "none"): ("mae\t3.881880463", "rmse\t3.997686021"),
    (0, "no_tf"): ("mae\t3.877559979", "rmse\t3.995689335"),
    (0, "no_gs"): ("mae\t3.882049681", "rmse\t4.002656704"),
    (0, "no_dm"): ("mae\t3.794664853", "rmse\t3.931480457"),
}


@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_tiny_run_report_matches_golden(variant, ablation):
    lines = _tiny_run_report(variant, ablation).tsv().split("\n")
    assert tuple(lines[1:3]) == GOLDEN_REPORTS[(variant, ablation)]


FUZZ_DOMAINS = toy_domains(n_overlap=30, seed=7)


@settings(max_examples=40, deadline=None)
@given(cfg=run_configs())
def test_every_accepted_config_trains_round_trips_and_evaluates_finite(cfg):
    # any config that validation accepts either is refused at the split,
    # before training, or trains, saves, loads and evaluates to finite
    # numbers; the loaded checkpoint scores exactly as the trained model
    src, tgt = FUZZ_DOMAINS
    try:
        split = split_cold_start(src, tgt, cfg.fraction, cfg.seed)
    except DataError as exc:
        assert "overlapping users" in str(exc)
        return
    params, history = train(src, tgt, split, cfg)
    assert all(np.isfinite(row[k]) for row in history for k in ("rec", "diff", "total"))
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(params, tmp)
        loaded = load_checkpoint(tmp)
    report = evaluate(loaded, src, tgt, split, cfg)
    assert np.isfinite([report.mae, report.rmse]).all()
    assert report == evaluate(params, src, tgt, split, cfg)
