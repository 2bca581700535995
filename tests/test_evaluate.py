"""Inference rollout and cold-start evaluation."""
import math

import numpy as np
import pytest

from prefdiff.autodiff import Tensor
from prefdiff.data import (build_histories, held_out_ratings, split_cold_start,
                           user_universe)
from prefdiff.diffusion import guided_predict
from prefdiff.encoder import encode_history
from prefdiff.errors import ConfigurationError, DataError
from prefdiff.evaluate import (EvalReport, evaluate, infer_user,
                               predict_rating, report_from_errors)
from prefdiff.rng import make_rng
from prefdiff.schedule import build_schedule, posterior_mean_coeffs
from prefdiff.trainer import train
from prefdiff.variants import Pipeline, build_pipeline

from test_trainer import tiny_cfg, toy_domains


@pytest.fixture
def sched():
    return build_schedule(5, 0.5, 0.1, 10.0)


def test_zero_steps_returns_input_bitwise(tiny_params, sched):
    u = make_rng(1, 0).standard_normal(4)
    h = make_rng(1, 1).standard_normal(4)
    out = infer_user(u, h, tiny_cfg(omega=2.0, t_prime=0), sched, tiny_params)
    assert out.tobytes() == u.tobytes()
    out[0] = 42.0
    assert u[0] != 42.0  # a copy, not a view


def test_single_step_matches_hand_rollout(tiny_params, sched):
    # T' = 1 is exactly one noise-free reverse step at t = 1
    u = make_rng(2, 0).standard_normal(4)
    h = make_rng(2, 1).standard_normal(4)
    cfg = tiny_cfg(omega=1.5, t_prime=1, seed=0)
    got = infer_user(u, h, cfg, sched, tiny_params, rng=make_rng(0, 0))
    c0, ct, var = posterior_mean_coeffs(sched, 1)
    pred = guided_predict(u, h, 1, 1.5, tiny_params)
    assert var == 0.0
    assert np.allclose(got, c0 * pred + ct * u, atol=1e-12)


def test_rollout_deterministic_given_rng_key(tiny_params, sched):
    u = make_rng(3, 0).standard_normal(4)
    h = make_rng(3, 1).standard_normal(4)
    cfg = tiny_cfg(omega=1.0, t_prime=5, seed=9)
    a = infer_user(u, h, cfg, sched, tiny_params, rng=make_rng(9, 4))
    b = infer_user(u, h, cfg, sched, tiny_params, rng=make_rng(9, 4))
    c = infer_user(u, h, cfg, sched, tiny_params, rng=make_rng(9, 5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_t_prime_out_of_range(tiny_params, sched):
    with pytest.raises(ConfigurationError):
        infer_user(np.zeros(4), None, tiny_cfg(t_prime=6), sched, tiny_params)


def test_predict_rating_is_float64_dot():
    u = np.array([0.5, -2.0], dtype=np.float32)
    v = np.array([4.0, 1.0], dtype=np.float32)
    r = predict_rating(u, v)
    assert isinstance(r, float)
    assert r == pytest.approx(0.0)


def test_report_from_errors_values():
    rep = report_from_errors(np.array([1.0, -1.0, 2.0]))
    assert rep.mae == pytest.approx(4 / 3)
    assert rep.rmse == pytest.approx(math.sqrt(2.0))
    assert rep.n_predictions == 3
    with pytest.raises(DataError):
        report_from_errors(np.array([]))


def test_report_tsv_formats():
    rep = EvalReport(mae=0.5, rmse=0.75, n_predictions=8,
                     per_user={"u1": (0.5, 0.6, 4), "u0": (0.4, 0.5, 4)})
    lines = rep.tsv().strip().split("\n")
    assert lines[0] == "metric\tvalue"
    assert lines[1] == "mae\t0.5"
    pu = rep.per_user_tsv().strip().split("\n")
    assert pu[0] == "user_id\tmae\trmse\tn"
    assert pu[1].startswith("u0\t")  # sorted by user id


def _trained_setup(seed=11, epochs=4):
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=epochs, batch_size=16, seed=seed)
    params, _ = train(src, tgt, split, cfg)
    s = build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
    return src, tgt, split, params, s


def test_evaluate_covers_all_held_out_ratings():
    src, tgt, split, params, s = _trained_setup()
    cfg = tiny_cfg(omega=1.0, t_prime=3, seed=5)
    rep = evaluate(params, s, src, tgt, split, cfg, collect_per_user=True)
    assert rep.n_predictions == len(held_out_ratings(tgt, split))
    assert set(rep.per_user) == set(split.cold_start_test)
    assert sum(n for _, _, n in rep.per_user.values()) == rep.n_predictions
    assert np.isfinite(rep.mae) and rep.rmse >= rep.mae


def test_evaluate_deterministic_and_seed_keyed_per_user():
    src, tgt, split, params, s = _trained_setup()
    a = evaluate(params, s, src, tgt, split,
                 tiny_cfg(omega=1.0, t_prime=5, seed=7))
    b = evaluate(params, s, src, tgt, split,
                 tiny_cfg(omega=1.0, t_prime=5, seed=7))
    c = evaluate(params, s, src, tgt, split,
                 tiny_cfg(omega=1.0, t_prime=5, seed=8))
    assert a == b
    assert a.mae != c.mae


def test_evaluate_t_prime_zero_is_raw_embeddings():
    # with no reverse steps the score is the untouched user embedding
    src, tgt, split, params, s = _trained_setup()
    rep = evaluate(params, s, src, tgt, split,
                   tiny_cfg(omega=1.0, t_prime=0, seed=7))
    universe = user_universe(src, tgt)
    errors = []
    for rec in held_out_ratings(tgt, split):
        u = params["user_emb"].data[universe[rec.user_id]]
        v = params["item_emb_tgt"].data[tgt.item_index[rec.item_id]]
        errors.append(predict_rating(u, v) - rec.rating)
    want = report_from_errors(np.asarray(errors))
    assert rep.mae == pytest.approx(want.mae, rel=1e-12)


def test_evaluate_runs_for_every_pipeline():
    src, tgt, split, params, s = _trained_setup(epochs=1)
    for kind in ("main", "v1", "no_dm"):
        pipe = Pipeline(kind)
        if pipe.with_projection or pipe.state_mult != 1:
            continue
        # main-shaped params serve any wiring without extra arrays
        rep = evaluate(params, s, src, tgt, split,
                       tiny_cfg(omega=0.5, t_prime=2, seed=1),
                       pipeline=pipe)
        assert np.isfinite(rep.mae)


SELECTORS = [(v, "none") for v in range(7)] + \
    [(0, a) for a in ("no_tf", "no_gs", "no_dm")]


@pytest.mark.parametrize("t_prime", [0, 1, 5])
@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_every_pipeline_at_every_t_prime(variant, ablation, t_prime):
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=1, batch_size=16, variant=variant, ablation=ablation,
                   omega=1.0, t_prime=t_prime)
    pipe = build_pipeline(variant, ablation)
    params, _ = train(src, tgt, split, cfg, pipe)
    s = build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
    rep = evaluate(params, s, src, tgt, split, cfg, pipe)
    assert np.isfinite(rep.mae)
    if t_prime != 0:
        return
    # no reverse step: the score is the projection of the initial state
    universe = user_universe(src, tgt)
    histories = build_histories(src, split.cold_start_test, cfg.max_history_len)
    errors = []
    for rec in sorted(held_out_ratings(tgt, split), key=lambda r: r.user_id):
        u = params["user_emb"].data[universe[rec.user_id]]
        items = list(histories[rec.user_id].item_indices)
        h = encode_history(params["item_emb_src"].data[items], params,
                           bypass_transformer=pipe.bypass_transformer)
        x = pipe.inference_init(u, h)
        assert np.array_equal(infer_user(u, h, cfg, s, params, pipe), x)
        emb = pipe.score_embedding(Tensor(x) if pipe.uses_diffusion else None,
                                   Tensor(h), Tensor(u), params).data
        v = params["item_emb_tgt"].data[tgt.item_index[rec.item_id]]
        errors.append(predict_rating(emb, v) - rec.rating)
    assert rep.mae == pytest.approx(report_from_errors(np.asarray(errors)).mae,
                                    rel=1e-12)


def _tiny_run_report(variant, ablation):
    """The report of a tiny float32 train then a guided eval at t_prime = T."""
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=2, batch_size=16, variant=variant, ablation=ablation,
                   omega=2.0, t_prime=5, dtype="float32")
    pipe = build_pipeline(variant, ablation)
    params, _ = train(src, tgt, split, cfg, pipe)
    s = build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
    return evaluate(params, s, src, tgt, split, cfg, pipe)


# report lines recorded from the code before inference ran without the
# autodiff graph; the graph-free rollout must reproduce them exactly (a
# different BLAS build may move the last digits of both)
GOLDEN_REPORTS = {
    (0, "none"): ("mae\t3.792550336", "rmse\t3.942042418"),
    (1, "none"): ("mae\t3.882049679", "rmse\t4.002656703"),
    (2, "none"): ("mae\t3.830982788", "rmse\t3.951580868"),
    (3, "none"): ("mae\t3.827199379", "rmse\t3.948412448"),
    (4, "none"): ("mae\t3.79479595", "rmse\t3.936464909"),
    (5, "none"): ("mae\t3.822933973", "rmse\t3.942684748"),
    (6, "none"): ("mae\t3.881880465", "rmse\t3.997686023"),
    (0, "no_tf"): ("mae\t3.877559983", "rmse\t3.995689337"),
    (0, "no_gs"): ("mae\t3.882049679", "rmse\t4.002656703"),
    (0, "no_dm"): ("mae\t3.79466486", "rmse\t3.931480461"),
}


@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_tiny_run_report_matches_golden(variant, ablation):
    lines = _tiny_run_report(variant, ablation).tsv().split("\n")
    assert tuple(lines[1:3]) == GOLDEN_REPORTS[(variant, ablation)]
