"""Forward corruption statistics, posterior recovery, the denoiser's
clean-state prediction, and the guided reverse step."""
import math

import numpy as np
import pytest

from prefdiff.autodiff import Tensor
from prefdiff.config import RunConfig, parse_config_text
from prefdiff.data import split_cold_start, user_universe
from prefdiff.diffusion import denoise, forward_marginal, reverse_step
from prefdiff.errors import ConfigurationError
from prefdiff.params import ModelParams, init_params
from prefdiff.rng import make_rng
from prefdiff.schedule import build_schedule, posterior_mean_coeffs
from prefdiff.trainer import build_examples, new_trainer_state, train_step

from conftest import SELECTORS, forward_chain_step
from test_trainer import tiny_cfg, toy_domains


def test_forward_marginal_exact_values():
    s = build_schedule(10, 0.5, 0.1, 10.0)
    u0 = np.array([1.0, -2.0])
    eps = np.array([0.5, 0.25])
    u_t = forward_marginal(u0, 3, eps, s)
    ab = s.alpha_bar[2]
    assert np.allclose(u_t, math.sqrt(ab) * u0 + math.sqrt(1 - ab) * eps)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_forward_marginal_step_array_matches_training_expression(dtype):
    # the corruption training ran inline before it called forward_marginal:
    # per-example coefficients cast to the model dtype, one row per step
    s = build_schedule(10, 0.5, 0.1, 10.0)
    rng = make_rng(43, 0)
    t = rng.integers(1, 11, size=64)
    x0 = rng.standard_normal((64, 4)).astype(dtype)
    eps = rng.standard_normal((64, 4)).astype(dtype)
    a = np.sqrt(s.alpha_bar[t - 1]).astype(dtype)[:, None]
    b = np.sqrt(s.one_minus_alpha_bar[t - 1]).astype(dtype)[:, None]
    graph_in = Tensor(x0)
    want = a * graph_in + b * eps
    got = forward_marginal(graph_in, t, eps, s)
    assert got._backward_fn is not None
    assert got.data.dtype == np.dtype(dtype)
    assert got.data.tobytes() == want.data.tobytes()
    assert forward_marginal(x0, t, eps, s).tobytes() == want.data.tobytes()


def test_forward_marginal_monte_carlo_moments():
    # sample mean and variance at a deep step match the closed form
    s = build_schedule(10, 0.5, 0.1, 10.0)
    rng = make_rng(42, 0)
    n = 100_000
    u0 = 1.5
    eps = rng.standard_normal(n)
    u_t = forward_marginal(np.full(n, u0), 10, eps, s)
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
        u_prev = forward_marginal(np.full(n, u0), t - 1, eps_prev, s)
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


def _null(p, n=1):
    """n null-token condition rows."""
    return np.repeat(p["null_token"].data[None, :], n, axis=0)


def test_predict_u0_single_vs_batch(tiny_params):
    p = tiny_params
    rng = make_rng(5, 5)
    u = rng.standard_normal(4)
    h = rng.standard_normal(4)
    single = denoise(u[None, :], h[None, :], 2, p).data
    batch = denoise(np.stack([u, u]), np.stack([h, h]), 2, p).data
    assert single.shape == (1, 4) and batch.shape == (2, 4)
    assert np.array_equal(batch[0], batch[1])
    assert np.allclose(single[0], batch[0])


def test_predict_u0_null_vs_zero_condition(tiny_params):
    # the null token starts at zero, so the null rows equal an explicit zero h
    rng = make_rng(6, 6)
    u = rng.standard_normal((1, 4))
    a = denoise(u, _null(tiny_params), 3, tiny_params).data
    b = denoise(u, np.zeros((1, 4)), 3, tiny_params).data
    assert np.allclose(a, b)


def test_predict_u0_depends_on_step(tiny_params):
    rng = make_rng(8, 8)
    u, h = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
    a = denoise(u, h, 1, tiny_params).data
    b = denoise(u, h, 5, tiny_params).data
    assert not np.allclose(a, b)


def test_guided_predict_identities(tiny_params, monkeypatch):
    p = tiny_params
    s = p.schedule
    rng = make_rng(9, 9)
    u, h, z = (rng.standard_normal((2, 4)) for _ in range(3))
    calls = []

    def counted(*args):
        calls.append(args[1])
        return denoise(*args)

    monkeypatch.setattr("prefdiff.diffusion.denoise", counted)
    c0, ct, var = posterior_mean_coeffs(s, 2)
    # omega = 0 calls the denoiser once, on the condition rows, and is
    # bitwise the step on the conditional prediction
    got = reverse_step(u, h, _null(p, 2), 2, 0.0, z, p)
    want = c0 * denoise(u, h, 2, p).data + ct * u + math.sqrt(var) * z
    assert got.tobytes() == want.tobytes()
    assert len(calls) == 1 and calls[0] is h
    # omega > 0 calls it a second time, on the null rows
    calls.clear()
    null = _null(p, 2)
    reverse_step(u, h, null, 2, 3.0, z, p)
    assert len(calls) == 2 and calls[0] is h and calls[1] is null


def test_guided_predict_linear_in_omega(tiny_params):
    # at t = 1 the step is affine in the guided prediction
    p = tiny_params
    s = p.schedule
    rng = make_rng(10, 10)
    u, h = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
    cond = denoise(u, h, 1, p).data
    uncond = denoise(u, _null(p), 1, p).data
    c0, ct, _ = posterior_mean_coeffs(s, 1)
    for omega in (0.5, 1.0, 2.0):
        got = reverse_step(u, h, _null(p), 1, omega, np.zeros(4), p)
        want = c0 * ((1 + omega) * cond - omega * uncond) + ct * u
        assert np.allclose(got, want, atol=1e-12)


def test_reverse_step_formula(tiny_params):
    p = tiny_params
    s = p.schedule
    rng = make_rng(12, 12)
    u, h, z = (rng.standard_normal((1, 4)) for _ in range(3))
    t, omega = 4, 1.5
    c0, ct, var = posterior_mean_coeffs(s, t)
    pred = (1 + omega) * denoise(u, h, t, p).data - omega * denoise(u, _null(p), t, p).data
    want = c0 * pred + ct * u + math.sqrt(var) * z
    got = reverse_step(u, h, _null(p), t, omega, z, p)
    assert np.allclose(got, want, atol=1e-12)


def test_reverse_step_t1_deterministic(tiny_params):
    # at t = 1 the variance is zero, so the step is the prediction itself
    p = tiny_params
    s = p.schedule
    rng = make_rng(13, 13)
    u, h = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
    got = reverse_step(u, h, _null(p), 1, 2.0, np.zeros(4), p)
    pred = 3.0 * denoise(u, h, 1, p).data - 2.0 * denoise(u, _null(p), 1, p).data
    assert np.allclose(got, pred, atol=1e-12)


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
    for layer in range(p.meta.cfg.mlp_layers):
        p[f"den_w{layer}"].data[:] = 0.0
        p[f"den_b{layer}"].data[:] = 0.0
    p["den_b2"].data[:] = np.array([0.3, -0.1, 0.0, 0.7])
    s = p.schedule
    u = np.array([1.0, 2.0, -1.0, 0.5])
    for t in (1, 3, 5):
        c0, ct, var = posterior_mean_coeffs(s, t)
        got = reverse_step(u[None, :], _null(p), _null(p), t, 0.0, np.zeros(4), p)[0]
        want = c0 * np.array([0.3, -0.1, 0.0, 0.7]) + ct * u
        assert np.allclose(got, want, atol=1e-12)


def test_denoise_on_arrays_returns_leaf_tensor(tiny_params):
    p = tiny_params
    rng = make_rng(14, 14)
    x, cond = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
    out = denoise(x, cond, 3, p)
    assert isinstance(out, Tensor) and out._backward_fn is None
    assert out.shape == (2, 4)
    graph = denoise(Tensor(x), cond, 3, p)
    assert graph._backward_fn is not None
    assert out.data.tobytes() == graph.data.tobytes()


def test_denoise_never_uses_a_stale_cast():
    # float64 rows against float32 weights give float64 predictions; a
    # training step rebinds the weight arrays, and the next call must run on
    # the new ones, as a model built from fresh copies of them does
    cfg = tiny_cfg(dtype="float32", batch_size=8)
    src, tgt = toy_domains()
    split = split_cold_start(src, tgt, 0.2, seed=1)
    universe = user_universe(src, tgt)
    p = init_params(cfg, len(universe), src.n_items, tgt.n_items)
    examples = build_examples(src, tgt, split, universe, cfg.max_history_len)
    rng = make_rng(16, 16)
    x, cond = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    before = denoise(x, cond, 2, p).data
    assert before.dtype == np.float64
    train_step(examples, np.arange(8), p, new_trainer_state(cfg.seed))
    after = denoise(x, cond, 2, p).data
    fresh = ModelParams({name: Tensor(t.data.copy()) for name, t in p.arrays.items()},
                        p.meta)
    assert after.tobytes() == denoise(x, cond, 2, fresh).data.tobytes()
    assert after.tobytes() != before.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("B", [1, 3])
def test_denoise_step_type_does_not_change_the_bits(B, dtype):
    # one step for every row, as a Python int, a numpy integer or a (B,)
    # array of it, gives the same (B, state_dim) prediction
    p = init_params(tiny_cfg(dtype=dtype), 3, 3, 3)
    rng = make_rng(17, B)
    x, cond = rng.standard_normal((2, B, 4)).astype(dtype)
    want = denoise(x, cond, np.full(B, 4), p).data
    assert want.shape == (B, 4)
    for t in (4, np.int64(4), np.int32(4)):
        assert denoise(x, cond, t, p).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("omega", [0.0, 2.0])
@pytest.mark.parametrize("t_prime", [1, 5])
@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_reverse_step_arrays_match_tensor_inputs(variant, ablation, t_prime, omega):
    # a float32 rollout as inference runs it: at every step the denoiser
    # agrees bitwise on array inputs and on Tensor inputs (the training
    # graph), and the array reverse step equals the same step built on the
    # graph and stays float32
    p = init_params(RunConfig(d1=4, seed=4, init_scale=0.3, hidden=8,
                              mlp_layers=3, enc_layers=1, max_history_len=4,
                              T=5, variant=variant, ablation=ablation,
                              dtype="float32"), 3, 3, 3)
    pipe = p.meta.pipeline
    rng = make_rng(15, variant)
    for name in p.arrays:  # null token and biases start at zero or one
        p[name].data[...] += rng.uniform(-0.3, 0.3, size=p[name].shape)
    s = p.schedule
    u = rng.standard_normal(4).astype(np.float32)
    h = rng.standard_normal(4).astype(np.float32)
    x = pipe.inference_init(u, h)[None, :]
    null = _null(p)
    cond = h[None, :] if pipe.guided else null
    omega = omega if pipe.guided else 0.0

    def graph_predict(rows, c, t):
        on_arrays = denoise(rows, c, t, p)
        on_graph = denoise(Tensor(rows), Tensor(c), t, p)
        assert on_arrays._backward_fn is None and on_graph._backward_fn is not None
        assert on_arrays.data.tobytes() == on_graph.data.tobytes()
        return on_graph

    for t in range(t_prime, 0, -1):
        z = rng.standard_normal(x.shape[1]).astype(np.float32) if t > 1 \
            else np.zeros(x.shape[1], np.float32)
        got = reverse_step(x, cond, null, t, omega, z, p)
        if omega == 0.0:
            pred = graph_predict(x, cond, t)
        else:
            pred = (1.0 + omega) * graph_predict(x, cond, t) \
                - omega * graph_predict(x, null, t)
        c0, ct, var = posterior_mean_coeffs(s, t)
        want = c0 * pred + ct * Tensor(x) + math.sqrt(var) * z
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.data.dtype == np.float32
        assert got.tobytes() == want.data.tobytes()
        x = got
