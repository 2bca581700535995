"""Forward corruption statistics, posterior recovery, guided prediction
algebra, and the reverse step."""
import math

import numpy as np
import pytest

from prefdiff.autodiff import Tensor
from prefdiff.config import parse_config_text
from prefdiff.diffusion import (forward_chain_step, forward_marginal,
                                guided_predict, predict_u0, reverse_step)
from prefdiff.errors import ConfigurationError
from prefdiff.rng import make_rng
from prefdiff.schedule import build_schedule, posterior_mean_coeffs


def test_forward_marginal_exact_values():
    s = build_schedule(10, 0.5, 0.1, 10.0)
    u0 = np.array([1.0, -2.0])
    eps = np.array([0.5, 0.25])
    state = forward_marginal(u0, 3, eps, s)
    ab = s.alpha_bar[2]
    assert np.allclose(state.u_t, math.sqrt(ab) * u0 + math.sqrt(1 - ab) * eps)
    assert state.t == 3 and np.array_equal(state.eps, eps)


def test_forward_marginal_monte_carlo_moments():
    # sample mean and variance at a deep step match the closed form
    s = build_schedule(10, 0.5, 0.1, 10.0)
    rng = make_rng(42, 0)
    n = 100_000
    u0 = 1.5
    eps = rng.standard_normal(n)
    u_t = forward_marginal(np.full(n, u0), 10, eps, s).u_t
    ab = s.alpha_bar[9]
    assert abs(u_t.mean() - math.sqrt(ab) * u0) < 4 * math.sqrt((1 - ab) / n)
    assert abs(u_t.var() - (1 - ab)) / (1 - ab) < 0.02


def test_chain_matches_marginal_distribution():
    # iterating the one-step kernel reproduces the closed-form marginal
    s = build_schedule(8, 0.6, 0.1, 10.0)
    rng = make_rng(7, 1)
    n = 60_000
    u = np.full(n, 2.0)
    for t in range(1, 9):
        u = forward_chain_step(u, t, rng.standard_normal(n), s)
    ab = s.alpha_bar[-1]
    marg_mean, marg_var = math.sqrt(ab) * 2.0, 1 - ab
    assert abs(u.mean() - marg_mean) / abs(marg_mean) < 0.01
    assert abs(u.var() - marg_var) / marg_var < 0.05


def test_posterior_coefficients_recover_conditional_mean():
    # bin chain samples of (u_{t-1}, u_t) by u_t; within a bin the posterior
    # mean is affine in the bin's average u_t, which the bins must reproduce
    s = build_schedule(10, 0.5, 0.1, 10.0)
    rng = make_rng(11, 3)
    n = 400_000
    u0 = 2.0
    for t in (2, 5, 10):
        eps_prev = rng.standard_normal(n)
        u_prev = forward_marginal(np.full(n, u0), t - 1, eps_prev, s).u_t
        u_t = forward_chain_step(u_prev, t, rng.standard_normal(n), s)
        c0, ct, _ = posterior_mean_coeffs(s, t)
        edges = np.quantile(u_t, np.linspace(0, 1, 13))
        which = np.digitize(u_t, edges[1:-1])
        for b in range(12):
            sel = which == b
            if sel.sum() < 500:
                continue
            expected = c0 * u0 + ct * u_t[sel].mean()
            got = u_prev[sel].mean()
            sem = u_prev[sel].std() / math.sqrt(sel.sum())
            assert abs(got - expected) < 5 * sem + 1e-4


def test_predict_u0_single_vs_batch(tiny_params):
    p = tiny_params
    rng = make_rng(5, 5)
    u = rng.standard_normal(4)
    h = rng.standard_normal(4)
    single = predict_u0(u, h, 2, p)
    batch = predict_u0(Tensor(np.stack([u, u])), Tensor(np.stack([h, h])), 2, p)
    assert single.data.shape == (4,)
    assert np.array_equal(batch.data[0], batch.data[1])
    assert np.allclose(single.data, batch.data[0])


def test_predict_u0_null_vs_zero_condition(tiny_params):
    # the null token starts at zero, so h=None equals an explicit zero h
    rng = make_rng(6, 6)
    u = rng.standard_normal(4)
    a = predict_u0(u, None, 3, tiny_params)
    b = predict_u0(u, np.zeros(4), 3, tiny_params)
    assert np.allclose(a.data, b.data)


def test_predict_u0_depends_on_step(tiny_params):
    rng = make_rng(8, 8)
    u, h = rng.standard_normal(4), rng.standard_normal(4)
    a = predict_u0(u, h, 1, tiny_params)
    b = predict_u0(u, h, 5, tiny_params)
    assert not np.allclose(a.data, b.data)


def test_guided_predict_identities(tiny_params):
    p = tiny_params
    rng = make_rng(9, 9)
    u, h = rng.standard_normal(4), rng.standard_normal(4)
    # omega = 0 is bitwise the conditional prediction
    assert np.array_equal(guided_predict(u, h, 2, 0.0, p).data,
                          predict_u0(u, h, 2, p).data)
    # no condition is bitwise the unconditional prediction at any omega
    assert np.array_equal(guided_predict(u, None, 2, 3.0, p).data,
                          predict_u0(u, None, 2, p).data)


def test_guided_predict_linear_in_omega(tiny_params):
    p = tiny_params
    rng = make_rng(10, 10)
    u, h = rng.standard_normal(4), rng.standard_normal(4)
    cond = predict_u0(u, h, 4, p).data
    uncond = predict_u0(u, None, 4, p).data
    for omega in (0.5, 1.0, 2.0):
        got = guided_predict(u, h, 4, omega, p).data
        assert np.allclose(got, (1 + omega) * cond - omega * uncond, atol=1e-12)


def test_guided_predict_rejects_negative_omega(tiny_params):
    with pytest.raises(ConfigurationError):
        guided_predict(np.zeros(4), np.zeros(4), 1, -0.5, tiny_params)


def test_reverse_step_formula(tiny_params):
    p = tiny_params
    s = build_schedule(5, 0.5, 0.1, 10.0)
    rng = make_rng(12, 12)
    u, h, z = (rng.standard_normal(4) for _ in range(3))
    t, omega = 4, 1.5
    c0, ct, var = posterior_mean_coeffs(s, t)
    pred = guided_predict(u, h, t, omega, p).data
    want = c0 * pred + ct * u + math.sqrt(var) * z
    got = reverse_step(u, h, t, omega, z, s, p)
    assert np.allclose(got.data, want, atol=1e-12)


def test_reverse_step_t1_deterministic(tiny_params):
    # at t = 1 the variance is zero, so the step is the prediction itself
    p = tiny_params
    s = build_schedule(5, 0.5, 0.1, 10.0)
    rng = make_rng(13, 13)
    u, h = rng.standard_normal(4), rng.standard_normal(4)
    got = reverse_step(u, h, 1, 2.0, np.zeros(4), s, p)
    pred = guided_predict(u, h, 1, 2.0, p)
    assert np.allclose(got.data, pred.data, atol=1e-12)


def test_guidance_config_validation():
    # the guidance keys are validated with the rest of the run config
    parse_config_text("omega = 2.0\np_uncond = 0.1\nT = 10\nt_prime = 5\n")
    for bad in ("omega = -1\n", "p_uncond = 1.5\n", "T = 10\nt_prime = 11\n"):
        with pytest.raises(ConfigurationError):
            parse_config_text(bad)


def test_straight_line_denoiser_reevaluation(tiny_params):
    # force an affine denoiser (tanh layers bypassed by zero weights except a
    # copied identity path) and check the reverse step against hand arithmetic
    p = tiny_params
    for layer in range(p.meta.mlp_layers):
        p[f"den_w{layer}"].data[:] = 0.0
        p[f"den_b{layer}"].data[:] = 0.0
    p["den_b2"].data[:] = np.array([0.3, -0.1, 0.0, 0.7])
    s = build_schedule(5, 0.5, 0.1, 10.0)
    u = np.array([1.0, 2.0, -1.0, 0.5])
    for t in (1, 3, 5):
        c0, ct, var = posterior_mean_coeffs(s, t)
        got = reverse_step(u, None, t, 0.0, np.zeros(4), s, p)
        want = c0 * np.array([0.3, -0.1, 0.0, 0.7]) + ct * u
        assert np.allclose(got.data, want, atol=1e-12)
