"""Exponential noise schedule and every per-step quantity derived from it.

The signal-retention sequence is defined through its complement:

    1 - alpha_bar_t = eta * (1 - exp(-alpha_min/T - s_t*(alpha_max - alpha_min)/(2*T^2)))

where s_t ranges over T uniformly spaced values from 1 to 2T+1. All arrays
are computed once in float64 at construction; model arithmetic downstream
may be float32, the schedule stays float64.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Schedule:
    """Precomputed per-step noise quantities, arrays indexed by t-1 for t=1..T."""

    T: int
    one_minus_alpha_bar: np.ndarray = field(repr=False)
    alpha_bar: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    beta_tilde: np.ndarray = field(repr=False)
    # variance-weighted L_diff's weight alpha_bar_{t-1} / (2 * beta_tilde_t), beta_tilde
    # floored at its t=2 value (1 at T = 1): the t=1 posterior variance is zero
    loss_weight: np.ndarray = field(repr=False)
    # row t-1: posterior mean coefficients on u0 and u_t, and beta_tilde, as Python floats
    reverse_coeffs: tuple[tuple[float, float, float], ...] = field(repr=False)


def uniform_spacing(T: int) -> np.ndarray:
    """T uniformly spaced values from 1 to 2T+1 (midpoint T+1 when T == 1)."""
    if T == 1:
        return np.array([float(T + 1)])
    return 1.0 + np.arange(T, dtype=np.float64) * (2.0 * T / (T - 1))


def build_schedule(T: int, eta: float, alpha_min: float, alpha_max: float) -> Schedule:
    """The schedule of T >= 1 steps at 0 < eta <= 1 and
    0 < alpha_min < alpha_max, the ranges `RunConfig.validate` enforces."""
    s = uniform_spacing(T)
    exponent = -alpha_min / T - s * (alpha_max - alpha_min) / (2.0 * T * T)
    one_minus_ab = eta * (1.0 - np.exp(exponent))
    alpha_bar = 1.0 - one_minus_ab
    ab_prev = np.concatenate(([1.0], alpha_bar[:-1]))
    alpha = alpha_bar / ab_prev
    beta = 1.0 - alpha
    beta_tilde = (1.0 - ab_prev) / one_minus_ab * beta
    floor = beta_tilde[1] if T >= 2 else 1.0
    coef_u0 = np.sqrt(ab_prev) * beta / one_minus_ab
    coef_ut = np.sqrt(alpha) * (1.0 - ab_prev) / one_minus_ab
    return Schedule(
        T=T, one_minus_alpha_bar=one_minus_ab, alpha_bar=alpha_bar, alpha=alpha,
        beta=beta, beta_tilde=beta_tilde,
        loss_weight=ab_prev / (2.0 * np.maximum(beta_tilde, floor)),
        reverse_coeffs=tuple(zip(coef_u0.tolist(), coef_ut.tolist(), beta_tilde.tolist())),
    )


def posterior_mean_coeffs(s: Schedule, t: int) -> tuple[float, float, float]:
    """Coefficients (on the clean state, on the noised state) and variance of
    the closed-form denoising posterior at step t in 1..T."""
    return s.reverse_coeffs[t - 1]


def dump_tsv(s: Schedule) -> str:
    """TSV of t, beta_t, alpha_bar_t, beta_tilde_t (for plotting)."""
    lines = ["t\tbeta\talpha_bar\tbeta_tilde"]
    for t in range(1, s.T + 1):
        lines.append(f"{t}\t{s.beta[t-1]:.12g}\t{s.alpha_bar[t-1]:.12g}\t{s.beta_tilde[t-1]:.12g}")
    return "\n".join(lines) + "\n"
