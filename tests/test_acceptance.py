"""Acceptance gate: ten end-to-end checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; each check also asserts, so a failure fails the suite.
"""
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from prefdiff.cli import main as cli_main
from prefdiff.config import RunConfig
from prefdiff import data as data_mod
from prefdiff.data import split_cold_start
from prefdiff.diffusion import denoise, forward_marginal, reverse_step
from prefdiff.evaluate import evaluate, infer_user
from prefdiff.params import init_params
from prefdiff.rng import make_rng
from prefdiff.schedule import build_schedule, posterior_mean_coeffs
from prefdiff.synthetic import generate_pair, write_tsv
from prefdiff.trainer import (BatchDraws, build_examples, compute_batch_loss,
                              sample_draws, train)

from conftest import central_difference, forward_chain_step, relative_error, with_cfg
from test_trainer import toy_batch


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_schedule_suite():
    start = time.perf_counter()
    ok = True
    for T in (50, 100, 200, 500, 1000):
        for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
            s = build_schedule(T, eta, 0.1, 10.0)
            ok &= bool(np.all(np.diff(s.one_minus_alpha_bar) > 0))
            ok &= bool(np.all(s.one_minus_alpha_bar < eta))
            ok &= float(np.max(np.abs(np.cumprod(s.alpha) - s.alpha_bar))) < 1e-10
            ok &= s.beta_tilde[0] == 0.0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, "schedule invariants over searched grid", ok, f"{elapsed:.2f}s")


def test_criterion_02_forward_marginal_statistics():
    start = time.perf_counter()
    s = build_schedule(10, 0.5, 0.1, 10.0)
    rng = make_rng(100, 0)
    n, d = 100_000, 4
    u0 = np.array([1.0, -0.5, 2.0, 0.25])
    ok = True
    for t in range(1, 11):
        eps = rng.standard_normal((n, d))
        u_t = forward_marginal(np.tile(u0, (n, 1)), t, eps, s)
        ab = s.alpha_bar[t - 1]
        sigma = math.sqrt((1 - ab) / n)
        ok &= bool(np.all(np.abs(u_t.mean(axis=0) - math.sqrt(ab) * u0) < 4 * sigma))
        var = u_t.var(axis=0)
        ok &= bool(np.all(np.abs(var - (1 - ab)) / (1 - ab) < 0.05))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(2, "forward-marginal mean/variance", ok, f"{elapsed:.2f}s")


def test_criterion_03_chain_vs_marginal():
    start = time.perf_counter()
    s = build_schedule(10, 0.5, 0.1, 10.0)
    rng = make_rng(101, 0)
    n = 100_000
    u0 = 2.0
    u = np.full(n, u0)
    ok = True
    for t in range(1, 11):
        u = forward_chain_step(u, t, rng.standard_normal(n), s)
        ab = s.alpha_bar[t - 1]
        mean_want, var_want = math.sqrt(ab) * u0, 1 - ab
        ok &= abs(u.mean() - mean_want) / abs(mean_want) < 0.05
        ok &= abs(u.var() - var_want) / var_want < 0.05
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(3, "composed chain matches closed-form marginal", ok, f"{elapsed:.2f}s")


def test_criterion_04_posterior_oracle():
    start = time.perf_counter()
    s = build_schedule(10, 0.5, 0.1, 10.0)
    rng = make_rng(102, 0)
    n = 400_000
    u0 = 2.0
    ok = True
    checked = 0
    for t in (2, 5, 10):
        u_prev = forward_marginal(np.full(n, u0), t - 1,
                                  rng.standard_normal(n), s)
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
            ok &= abs(got - expected) / abs(expected) < 0.05
            checked += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0 and checked >= 30
    _report(4, "binned posterior mean regression", ok,
            f"{checked} bins, {elapsed:.2f}s")


def test_criterion_05_gradient_check():
    start = time.perf_counter()
    p = init_params(RunConfig(d1=4, seed=11, init_scale=0.3, hidden=8,
                              mlp_layers=3, enc_layers=2, max_history_len=5,
                              T=5, eta=0.5, lam=0.5, dtype="float64"), 6, 8, 9)
    batch = toy_batch(p, n=2)
    draws = sample_draws(make_rng(50, 0), 2, p.meta)

    def loss():
        total, _ = compute_batch_loss(*batch, p, draws)
        return total

    p.zero_grads()
    loss().backward()
    worst = 0.0
    ok = True
    for name in p.arrays:
        analytic = p[name].grad
        analytic = np.zeros_like(p[name].data) if analytic is None else analytic
        numeric = central_difference(lambda: float(loss().data), p[name].data)
        err = relative_error(analytic, numeric)
        worst = max(worst, err)
        ok &= err < 1e-4
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(5, "full-model finite-difference gradient check", ok,
            f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_guidance_algebra_and_masking_rate():
    start = time.perf_counter()
    model = RunConfig(d1=4, seed=2, init_scale=0.3, hidden=8, mlp_layers=2,
                      enc_layers=1, max_history_len=4, T=5, eta=0.5, dtype="float64")
    p = init_params(model, 4, 4, 4)
    s = p.schedule
    rng = make_rng(60, 0)
    u, h, z = (rng.standard_normal((1, 4)) for _ in range(3))
    # omega = 0 is bitwise the step on the conditional prediction
    c0, ct, var = posterior_mean_coeffs(s, 3)
    want = c0 * denoise(u, h, 3, p).data + ct * u + math.sqrt(var) * z
    null = p["null_token"].data[None, :]
    ok = reverse_step(u, h, null, 3, 0.0, z, p).tobytes() == want.tobytes()
    # no condition ignores omega: an unguided rollout is the same at 4 and 0
    p1 = init_params(replace(model, variant=1), 4, 4, 4)
    rollouts = [infer_user(u[0], None, RunConfig(omega=omega, t_prime=5), p1,
                           make_rng(60, 1)) for omega in (4.0, 0.0)]
    ok &= rollouts[0].tobytes() == rollouts[1].tobytes()
    n, p_uncond = 100_000, 0.1
    draws = rng.uniform(size=n)
    # the training loss masks the first 1,000 draws' conditions itself
    head = 1000
    examples, rows = toy_batch(p, n=8)
    _, report = compute_batch_loss(
        examples, np.tile(rows, head // 8), with_cfg(p, p_uncond=p_uncond),
        BatchDraws(r=draws[:head], t=np.full(head, 3), eps=np.zeros((head, 4))))
    dropped = report["masked"] + int(np.sum(draws[head:] < p_uncond))
    assert dropped == int(np.sum(draws < p_uncond))
    sigma = math.sqrt(p_uncond * (1 - p_uncond) / n)
    ok &= abs(dropped / n - p_uncond) < 4 * sigma
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(6, "guidance identities and masking rate", ok,
            f"rate {dropped / n:.4f}, {elapsed:.2f}s")


def test_criterion_07_inference_step_identities():
    start = time.perf_counter()
    p = init_params(RunConfig(d1=4, seed=5, init_scale=0.3, hidden=8,
                              mlp_layers=2, enc_layers=1, max_history_len=4,
                              T=5, eta=0.5, dtype="float64"), 4, 4, 4)
    rng = make_rng(70, 0)
    u, h = rng.standard_normal(4), rng.standard_normal(4)
    out0 = infer_user(u, h, RunConfig(omega=2.0, t_prime=0), p, make_rng(0, 0))
    ok = out0.tobytes() == u.tobytes()
    out1 = infer_user(u, h, RunConfig(omega=2.0, t_prime=1), p, make_rng(0, 0))
    c0, ct, var = posterior_mean_coeffs(p.schedule, 1)
    null = p["null_token"].data[None, :]
    pred = 3.0 * denoise(u[None, :], h[None, :], 1, p).data[0] \
        - 2.0 * denoise(u[None, :], null, 1, p).data[0]
    want = c0 * pred + ct * u
    ok &= var == 0.0 and np.allclose(out1, want, atol=1e-12)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(7, "zero-step identity and single deterministic step", ok,
            f"{elapsed:.2f}s")


def test_criterion_08_synthetic_directional(tmp_path):
    start = time.perf_counter()
    src, tgt = generate_pair(n_users=2000, n_items=300, latent_dim=8,
                             ratings_per_user=10, noise_std=0.1, seed=1234)
    split = split_cold_start(src, tgt, 0.2, seed=1234)
    main_maes, v1_maes, init_maes = [], [], []
    for seed in (0, 1, 2):
        cfg = RunConfig(batch_size=128, learning_rate=0.01, epochs=10,
                        lam=0.01, p_uncond=0.1, T=50, eta=0.1, d1=16,
                        max_history_len=10, seed=seed, hidden=64,
                        mlp_layers=3, enc_layers=2, dtype="float32",
                        omega=2.0, t_prime=50)
        for variant, sink in ((0, main_maes), (1, v1_maes)):
            run_cfg = replace(cfg, variant=variant)
            params, _ = train(src, tgt, split, run_cfg)
            rep = evaluate(params, src, tgt, split, run_cfg)
            sink.append(rep.mae)
        untrained, _ = train(src, tgt, split, replace(cfg, epochs=0))
        rep0 = evaluate(untrained, src, tgt, split, cfg)
        init_maes.append(rep0.mae)
    m, v, i = (statistics.median(x) for x in (main_maes, v1_maes, init_maes))
    gap_v1 = (v - m) / v
    gap_init = (i - m) / i
    elapsed = time.perf_counter() - start
    ok = gap_v1 >= 0.03 and gap_init >= 0.30 and elapsed < 300.0
    _report(8, "guided model beats unguided and untrained baselines", ok,
            f"MAE {m:.4f} vs plain-diffusion {v:.4f} (+{gap_v1:.1%}) "
            f"vs untrained {i:.4f} (+{gap_init:.1%}), {elapsed:.0f}s")


def test_criterion_09_cli_train_determinism(tmp_path):
    src, tgt = generate_pair(n_users=80, n_items=30, ratings_per_user=5, seed=9)
    write_tsv(src, tmp_path / "src.tsv")
    write_tsv(tgt, tmp_path / "tgt.tsv")
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"source_path = {tmp_path / 'src.tsv'}\n"
        f"target_path = {tmp_path / 'tgt.tsv'}\n"
        "d1 = 8\nhidden = 8\nmlp_layers = 2\nenc_layers = 1\n"
        "T = 5\nepochs = 2\nbatch_size = 32\nmax_history_len = 5\n")
    runner = CliRunner()
    for out in ("a", "b"):
        result = runner.invoke(cli_main, ["train", "--config", str(conf),
                                          "--seed", "13", "--out",
                                          str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    ok = True
    for name in ("checkpoint/params.bin", "checkpoint/manifest.tsv", "loss.tsv"):
        ok &= (tmp_path / "a" / name).read_bytes() == \
              (tmp_path / "b" / name).read_bytes()
    _report(9, "bitwise-identical retraining from one seed", ok)


def test_criterion_10_leakage_guard(monkeypatch):
    src, tgt = generate_pair(n_users=200, n_items=40, ratings_per_user=5, seed=17)
    split = split_cold_start(src, tgt, 0.2, seed=17)
    cfg = RunConfig(batch_size=64, epochs=1, T=5, d1=8, hidden=8,
                    mlp_layers=2, enc_layers=1, max_history_len=5, seed=0)
    # spies: the target rows training reads, the examples it builds from
    # them, and any call that would read the held-out rows
    returned, examples, held_out_calls = [], [], []
    training_ratings, build = data_mod.training_ratings, build_examples

    def spy_training_ratings(target, *args, **kwargs):
        rows = training_ratings(target, *args, **kwargs)
        returned.extend(target.users[u] for u in target.user[rows])
        return rows

    def spy_build_examples(*args, **kwargs):
        out = build(*args, **kwargs)
        examples.extend(out.user.tolist())
        return out

    monkeypatch.setattr(data_mod, "training_ratings", spy_training_ratings)
    monkeypatch.setattr(data_mod, "held_out_ratings",
                        lambda *a, **k: held_out_calls.append(a))
    monkeypatch.setattr("prefdiff.trainer.build_examples", spy_build_examples)
    train(src, tgt, split, cfg)
    universe = data_mod.user_universe(src, tgt)
    test_idx = {universe[u] for u in split.cold_start_test}
    read = set(returned)
    ok = not held_out_calls and bool(read) and not read & split.cold_start_test
    ok &= bool(examples) and not set(examples) & test_idx
    _report(10, "no target-domain reads of held-out users during training", ok,
            f"{len(read)} train users read")
