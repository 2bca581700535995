"""Training loop: losses, gradient flow, masking statistics, determinism."""
import math

import numpy as np
import pytest

from prefdiff.config import RunConfig
from prefdiff.data import (AccessCounter, RatingRecord, make_domain,
                           split_cold_start, user_universe)
from prefdiff.errors import ConfigurationError, DataError
from prefdiff.rng import make_rng
from prefdiff.schedule import build_schedule
from prefdiff.trainer import (AdamState, BatchDraws, TrainExample,
                              _batch_arrays, build_examples, compute_batch_loss,
                              diffusion_coefficient, loss_history_tsv,
                              new_trainer_state, rec_loss, sample_draws, train,
                              train_step)
from prefdiff.variants import Pipeline

from conftest import central_difference, relative_error


def tiny_cfg(**kw):
    defaults = dict(batch_size=4, learning_rate=0.01, epochs=2, lam=0.01,
                    p_uncond=0.1, T=5, eta=0.5, alpha_min=0.1, alpha_max=10.0,
                    d1=4, max_history_len=5, seed=3, hidden=8, mlp_layers=3,
                    enc_layers=2, init_scale=0.3, dtype="float64")
    defaults.update(kw)
    return RunConfig(**defaults)


def toy_domains(n_overlap=20, n_items_src=8, n_items_tgt=9, seed=0):
    rng = make_rng(seed, 99)
    src, tgt = [], []
    for k in range(n_overlap):
        u = f"u{k}"
        for j in rng.choice(n_items_src, size=4, replace=False):
            src.append(RatingRecord(u, f"s{j}", 3.0, int(rng.integers(0, 100))))
        for j in rng.choice(n_items_tgt, size=3, replace=False):
            tgt.append(RatingRecord(u, f"t{j}", float(rng.integers(1, 6)),
                                    int(rng.integers(0, 100))))
    return make_domain(src), make_domain(tgt)


def toy_batch(params, n=4, hist_len=3, seed=1):
    rng = make_rng(seed, 17)
    out = []
    for i in range(n):
        out.append(TrainExample(
            user_idx=int(rng.integers(0, params.meta.n_users)),
            history=tuple(int(x) for x in
                          rng.integers(0, params.meta.n_items_src, size=hist_len)),
            target_item_idx=int(rng.integers(0, params.meta.n_items_tgt)),
            rating=float(rng.integers(1, 6)),
        ))
    return out


def test_rec_loss_is_mse():
    pred = np.array([1.0, 2.0, 4.0])
    true = np.array([1.0, 1.0, 1.0])
    assert rec_loss(pred, true) == pytest.approx((0 + 1 + 9) / 3)
    with pytest.raises(DataError):
        rec_loss(np.zeros(0), np.zeros(0))


def test_diffusion_coefficient_simplified_is_one():
    s = build_schedule(10, 0.5, 0.1, 10.0)
    assert all(diffusion_coefficient(s, t, "simplified") == 1.0
               for t in range(1, 11))


def test_diffusion_coefficient_weighted_floor():
    s = build_schedule(10, 0.5, 0.1, 10.0)
    floor = float(s.beta_tilde[1])
    # t=1 has zero posterior variance; the weight uses the t=2 floor
    assert diffusion_coefficient(s, 1, "variance_weighted") == pytest.approx(
        1.0 / (2 * floor))
    for t in range(3, 11):
        want = s.alpha_bar[t - 2] / (2 * s.beta_tilde[t - 1])
        assert diffusion_coefficient(s, t, "variance_weighted") == pytest.approx(want)


@pytest.mark.parametrize("weighting", ["simplified", "variance_weighted"])
def test_diffusion_coefficient_array_matches_scalar_bitwise(weighting):
    s = build_schedule(10, 0.5, 0.1, 10.0)
    t = np.arange(1, 11)
    coefs = diffusion_coefficient(s, t, weighting)
    assert coefs.dtype == np.float64 and coefs.shape == (10,)
    for tt in t:
        scalar = diffusion_coefficient(s, int(tt), weighting)
        assert isinstance(scalar, float)
        assert np.float64(scalar).tobytes() == coefs[tt - 1].tobytes()
    with pytest.raises(IndexError):
        diffusion_coefficient(s, np.array([1, 11]), "variance_weighted")


def test_batch_arrays_pads_histories_like_a_loop():
    batch = [TrainExample(user_idx=i, history=tuple(range(10 * i, 10 * i + n)),
                          target_item_idx=i, rating=float(i))
             for i, n in enumerate([3, 1, 5, 2])]
    users, hist, mask, items, ratings = _batch_arrays(batch, "float32")
    want_hist = np.zeros((4, 5), dtype=np.int64)
    want_mask = np.zeros((4, 5), dtype=bool)
    for i, e in enumerate(batch):
        want_hist[i, :len(e.history)] = e.history
        want_mask[i, :len(e.history)] = True
    assert hist.dtype == np.int64 and np.array_equal(hist, want_hist)
    assert mask.dtype == bool and np.array_equal(mask, want_mask)
    assert users.tolist() == items.tolist() == [0, 1, 2, 3]
    assert ratings.dtype == np.float32


def _constant_denoiser(p, out):
    """Zero every denoiser weight so that it predicts `out` for any input."""
    for layer in range(p.meta.mlp_layers):
        p[f"den_w{layer}"].data[:] = 0.0
        p[f"den_b{layer}"].data[:] = 0.0
    p[f"den_b{p.meta.mlp_layers - 1}"].data[:] = out


def test_diffusion_loss_value(tiny_params):
    # with the prediction fixed at c, L_diff is the batch mean of
    # coef(t) * |c - u0|^2 for the main wiring's clean state u0
    p = tiny_params
    c = np.array([1.0, 0.0, -0.5, 2.0])
    _constant_denoiser(p, c)
    p["user_emb"].data[:] = 0.0
    p["user_emb"].data[:, :2] = [0.0, 2.0]
    s = build_schedule(5, 0.5, 0.1, 10.0)
    batch = toy_batch(p, n=3)
    t = np.array([1, 3, 5])
    draws = BatchDraws(r=np.ones(3), t=t,
                       eps=make_rng(9, 9).standard_normal((3, 4)))
    sq = 1.0 + 4.0 + 0.25 + 4.0
    _, report = compute_batch_loss(batch, p, tiny_cfg(), s, Pipeline("main"), draws)
    assert report["diff"] == pytest.approx(sq, rel=1e-12)
    coefs = [diffusion_coefficient(s, int(tt), "variance_weighted") for tt in t]
    _, report = compute_batch_loss(batch, p, tiny_cfg(loss_weighting="variance_weighted"),
                                   s, Pipeline("main"), draws)
    assert report["diff"] == pytest.approx(sq * np.mean(coefs), rel=1e-12)


def test_masking_boundary_keeps_condition_at_p_uncond(tiny_params):
    # an example's condition is dropped iff its draw r < p_uncond
    p = tiny_params
    s = build_schedule(5, 0.5, 0.1, 10.0)
    batch = toy_batch(p, n=4)

    def run(r, p_uncond):
        draws = BatchDraws(r=np.array(r, dtype=float), t=np.full(4, 2),
                           eps=np.zeros((4, 4)))
        return compute_batch_loss(batch, p, tiny_cfg(p_uncond=p_uncond), s,
                                  Pipeline("main"), draws)[1]

    assert run([0.05, 0.1, 0.99, 0.0999], 0.1)["masked"] == 2
    assert run([0.1] * 4, 0.1)["masked"] == 0
    assert run([0.0] * 4, 0.0)["masked"] == 0
    assert run([0.999] * 4, 1.0)["masked"] == 4
    # a dropped condition no longer sees the encoder; a kept one does
    dropped, kept = run([0.0] * 4, 0.5), run([0.9] * 4, 0.5)
    p["enc0_wq"].data += 0.5
    assert run([0.0] * 4, 0.5)["diff"] == dropped["diff"]
    assert run([0.9] * 4, 0.5)["diff"] != kept["diff"]


def test_masking_empirical_rate(tiny_params):
    p = tiny_params
    s = build_schedule(5, 0.5, 0.1, 10.0)
    p_uncond, n = 0.1, 20_000
    draws = sample_draws(make_rng(20, 20), n, 4, 5, True, "float64")
    _, report = compute_batch_loss(toy_batch(p, n=8) * (n // 8), p,
                                   tiny_cfg(p_uncond=p_uncond), s,
                                   Pipeline("main"), draws)
    assert report["masked"] == int(np.sum(draws.r < p_uncond))
    sigma = math.sqrt(p_uncond * (1 - p_uncond) / n)
    assert abs(report["masked"] / n - p_uncond) < 4 * sigma


def test_config_validation():
    tiny_cfg().validate()
    for bad in (dict(lam=-0.1), dict(lam=1.5), dict(batch_size=0),
                dict(epochs=-1), dict(loss_weighting="x"), dict(p_uncond=2.0)):
        with pytest.raises(ConfigurationError):
            tiny_cfg(**bad).validate()


def test_full_model_gradients_match_finite_differences(tiny_params):
    p = tiny_params
    cfg = tiny_cfg(lam=0.5)
    s = build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
    pipe = Pipeline("main")
    batch = toy_batch(p, n=2)
    draws = sample_draws(make_rng(7, 0), 2, p.meta.d1, cfg.T, True, "float64")

    def loss():
        total, _ = compute_batch_loss(batch, p, cfg, s, pipe, draws)
        return total

    p.zero_grads()
    loss().backward()
    touched = 0
    for name in ("user_emb", "item_emb_src", "item_emb_tgt", "den_w0",
                 "den_b1", "enc0_wq", "null_token", "pos_emb"):
        analytic = p[name].grad.copy()
        numeric = central_difference(lambda: float(loss().data), p[name].data)
        assert relative_error(analytic, numeric) < 1e-4, name
        if np.abs(analytic).max() > 0:
            touched += 1
    assert touched >= 6  # the loss reaches nearly every table


def test_total_loss_linear_in_lambda(tiny_params):
    p = tiny_params
    s = build_schedule(5, 0.5, 0.1, 10.0)
    pipe = Pipeline("main")
    batch = toy_batch(p, n=3)
    draws = sample_draws(make_rng(8, 0), 3, 4, 5, True, "float64")
    totals = {}
    for lam in (0.0, 0.5, 1.0):
        total, rep = compute_batch_loss(batch, p, tiny_cfg(lam=lam), s, pipe, draws)
        totals[lam] = float(total.data)
        assert rep["total"] == pytest.approx(rep["rec"] + lam * rep["diff"])
    diff = totals[1.0] - totals[0.0]
    assert totals[0.5] == pytest.approx(totals[0.0] + 0.5 * diff, rel=1e-9)


def test_masking_rate_in_band(tiny_params):
    p = tiny_params
    cfg = tiny_cfg(p_uncond=0.25, epochs=1)
    s = build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
    state = new_trainer_state(0)
    batch = toy_batch(p, n=8)
    n_steps = 400
    for _ in range(n_steps):
        train_step(batch, p, state, cfg, s)
    rate = state.masked_examples / state.total_examples
    sigma = math.sqrt(0.25 * 0.75 / state.total_examples)
    assert abs(rate - 0.25) < 4 * sigma


def test_train_step_changes_params_and_reports(tiny_params):
    p = tiny_params
    cfg = tiny_cfg()
    s = build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
    state = new_trainer_state(1)
    before = p["user_emb"].data.copy()
    report = train_step(toy_batch(p), p, state, cfg, s)
    assert not np.array_equal(p["user_emb"].data, before)
    assert set(report) >= {"rec", "diff", "total", "masked", "batch"}
    assert report["total"] == pytest.approx(report["rec"] + cfg.lam * report["diff"])
    with pytest.raises(DataError):
        train_step([], p, state, cfg, s)


def test_adam_first_step_is_signed_lr():
    # with fresh moments, a single update moves each coordinate by ~lr*sign(g)
    from prefdiff.params import init_params
    p = init_params(n_users=2, n_items_src=2, n_items_tgt=2, d1=2, seed=0,
                    hidden=2, mlp_layers=2, enc_layers=1, max_len=2, T=2,
                    dtype="float64")
    g = make_rng(1, 1).standard_normal(p["user_emb"].data.shape)
    p["user_emb"].grad = g
    before = p["user_emb"].data.copy()
    AdamState().update(p, lr=0.1)
    delta = p["user_emb"].data - before
    assert np.allclose(delta, -0.1 * np.sign(g), atol=1e-6)


def test_build_examples_respects_split_and_histories():
    src, tgt = toy_domains(n_overlap=30)
    split = split_cold_start(src, tgt, 0.2, seed=5)
    uni = user_universe(src, tgt)
    counter = AccessCounter()
    examples = build_examples(src, tgt, split, uni, max_history_len=3, counter=counter)
    users = {e.user_idx for e in examples}
    test_idx = {uni[u] for u in split.cold_start_test}
    assert not users & test_idx
    assert all(1 <= len(e.history) <= 3 for e in examples)
    assert not counter.users_read() & split.cold_start_test


def test_train_decreases_loss_and_is_deterministic():
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=6, batch_size=16, seed=11)
    p1, h1 = train(src, tgt, split, cfg)
    p2, h2 = train(src, tgt, split, cfg)
    assert h1 == h2
    for name in p1.names():
        assert np.array_equal(p1[name].data, p2[name].data)
    assert h1[-1]["total"] < h1[0]["total"]


def test_train_zero_epochs_returns_init():
    src, tgt = toy_domains(n_overlap=10)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    params, history = train(src, tgt, split, tiny_cfg(epochs=0))
    assert history == []
    assert params.meta.d1 == 4


def test_loss_history_tsv_format():
    text = loss_history_tsv([{"epoch": 1, "rec": 1.5, "diff": 0.25, "total": 1.75}])
    lines = text.strip().split("\n")
    assert lines[0] == "epoch\tL_rec\tL_diff\ttotal"
    assert lines[1].split("\t") == ["1", "1.5", "0.25", "1.75"]
