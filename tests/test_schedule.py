"""Schedule construction: closed-form values, algebraic identities,
monotonicity, and the degenerate cases."""
import math
import re

import numpy as np
import pytest

from prefdiff.config import RunConfig
from prefdiff.errors import ConfigurationError
from prefdiff.schedule import (Schedule, build_schedule, dump_tsv,
                               posterior_mean_coeffs, uniform_spacing)


def test_spacing_endpoints():
    s = uniform_spacing(200)
    assert s[0] == 1.0 and s[-1] == pytest.approx(401.0, rel=1e-12)
    assert np.allclose(np.diff(s), s[1] - s[0])


def test_spacing_T1_midpoint():
    assert uniform_spacing(1).tolist() == [2.0]


def test_closed_form_value_extended_precision():
    # independent high-precision evaluation of the final step, T=200
    import mpmath
    mpmath.mp.dps = 40
    s = build_schedule(200, 0.1, 0.1, 10.0)
    expected = mpmath.mpf("0.1") * (1 - mpmath.e ** (
        -mpmath.mpf("0.1") / 200 - 401 * mpmath.mpf("9.9") / 80000))
    got = s.one_minus_alpha_bar[-1]
    assert abs(got - float(expected)) / float(expected) < 1e-12


def test_bounded_by_eta_and_increasing():
    s = build_schedule(200, 0.1, 6.1, 10.0)
    assert np.all(s.one_minus_alpha_bar < 0.1)
    assert np.all(np.diff(s.one_minus_alpha_bar) > 0)
    assert np.all(s.alpha_bar > 0) and np.all(s.alpha_bar <= 1)


def test_eta_small_limit():
    s = build_schedule(50, 1e-9, 0.1, 10.0)
    assert np.all(s.one_minus_alpha_bar < 1e-9)
    assert np.allclose(s.alpha_bar, 1.0)
    assert np.all(s.beta < 1e-8)
    assert np.all(s.beta_tilde >= 0)


def test_telescoping_product():
    s = build_schedule(500, 0.9, 0.1, 10.0)
    prod = np.cumprod(s.alpha)
    assert np.max(np.abs(prod - s.alpha_bar) / s.alpha_bar) < 1e-10


def test_alpha_beta_ranges():
    for T in (1, 2, 50, 200):
        s = build_schedule(T, 0.5, 0.1, 10.0)
        assert np.all(s.alpha > 0) and np.all(s.alpha <= 1)
        assert np.all(s.beta >= 0) and np.all(s.beta < 1)
        assert np.all(s.beta_tilde <= s.beta + 1e-15)


def test_posterior_coeffs_t1_convention():
    s = build_schedule(10, 0.5, 0.1, 10.0)
    c0, ct, var = posterior_mean_coeffs(s, 1)
    assert c0 == pytest.approx(1.0, abs=1e-12)
    assert ct == 0.0
    assert var == 0.0


def test_posterior_coeffs_match_one_line_oracle():
    s = build_schedule(10, 0.5, 0.1, 10.0)
    for t in range(2, 11):
        ab, ab_prev = s.alpha_bar[t - 1], s.alpha_bar[t - 2]
        alpha = ab / ab_prev
        beta = 1 - alpha
        c0, ct, var = posterior_mean_coeffs(s, t)
        assert c0 == pytest.approx(math.sqrt(ab_prev) * beta / (1 - ab), rel=1e-12)
        assert ct == pytest.approx(math.sqrt(alpha) * (1 - ab_prev) / (1 - ab), rel=1e-12)
        assert var == pytest.approx((1 - ab_prev) / (1 - ab) * beta, rel=1e-12)


@pytest.mark.parametrize("T", [1, 2, 50])
def test_reverse_coeff_rows_are_the_float64_arrays(T):
    # the rollout reads one row of Python floats per step: each is the
    # float() of the closed-form coefficients over the float64 arrays at
    # t - 1, for every t
    s = build_schedule(T, 0.1, 0.1, 10.0)
    ab_prev = np.concatenate(([1.0], s.alpha_bar[:-1]))
    coef_u0 = np.sqrt(ab_prev) * s.beta / s.one_minus_alpha_bar
    coef_ut = np.sqrt(s.alpha) * (1.0 - ab_prev) / s.one_minus_alpha_bar
    assert len(s.reverse_coeffs) == T
    for t in range(1, T + 1):
        row = posterior_mean_coeffs(s, t)
        want = (float(coef_u0[t - 1]), float(coef_ut[t - 1]), float(s.beta_tilde[t - 1]))
        assert all(type(c) is float for c in row)
        assert np.array(row).tobytes() == np.array(want).tobytes()


def test_loss_weight_values_and_t1_floor():
    # alpha_bar_{t-1} / (2 * beta_tilde_t); t=1 has zero posterior
    # variance, so beta_tilde is floored at its t=2 value
    s = build_schedule(10, 0.5, 0.1, 10.0)
    floor = s.beta_tilde[1]
    assert s.loss_weight.dtype == np.float64 and s.loss_weight.shape == (10,)
    assert s.beta_tilde[0] == 0.0
    assert s.loss_weight[0] == 1.0 / (2 * floor)
    for t in range(2, 11):
        want = s.alpha_bar[t - 2] / (2 * max(s.beta_tilde[t - 1], floor))
        assert s.loss_weight[t - 1] == pytest.approx(want, rel=1e-15)


def test_loss_weight_of_a_one_step_schedule():
    # T = 1 has no t=2 variance: the floor is 1, and alpha_bar_0 is 1
    s = build_schedule(1, 0.5, 0.1, 10.0)
    assert s.loss_weight.tolist() == [0.5]


def test_mean_preservation_identity():
    # a noiseless trajectory maps to itself under the posterior mean
    s = build_schedule(20, 0.7, 0.1, 10.0)
    u0 = 1.7
    for t in range(2, 21):
        c0, ct, _ = posterior_mean_coeffs(s, t)
        ut = math.sqrt(s.alpha_bar[t - 1]) * u0
        expected = math.sqrt(s.alpha_bar[t - 2]) * u0
        assert abs(c0 * u0 + ct * ut - expected) / abs(expected) < 1e-10


def test_step_range_checks():
    # a schedule reads steps 1..T only: training draws them there
    # (test_trainer.py::test_sample_draws_steps_are_exactly_1_to_T), the
    # rollout walks t_prime..1, and the run config holds t_prime to -1 (T)
    # or 0..T
    for t_prime in (-1, 0, 5):
        RunConfig(T=5, t_prime=t_prime).validate()
    for t_prime in (-2, 6):
        with pytest.raises(ConfigurationError, match="t_prime must be"):
            RunConfig(T=5, t_prime=t_prime).validate()


@pytest.mark.parametrize("bad", [
    (dict(T=0, eta=0.5, alpha_min=0.1, alpha_max=10.0), "T must be >= 1"),
    (dict(T=10, eta=0.0, alpha_min=0.1, alpha_max=10.0), "eta must be in"),
    (dict(T=10, eta=1.5, alpha_min=0.1, alpha_max=10.0), "eta must be in"),
    (dict(T=10, eta=0.5, alpha_min=10.0, alpha_max=0.1), "alpha_min < alpha_max"),
])
def test_parameter_validation(bad):
    # build_schedule trusts its inputs; the run config they come from is
    # checked once
    settings, problem = bad
    with pytest.raises(ConfigurationError, match=re.escape(problem)):
        RunConfig(**settings).validate()


def test_dump_tsv_shape():
    s = build_schedule(4, 0.5, 0.1, 10.0)
    lines = dump_tsv(s).strip().split("\n")
    assert lines[0] == "t\tbeta\talpha_bar\tbeta_tilde"
    assert len(lines) == 5
