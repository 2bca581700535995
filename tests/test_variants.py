"""Pipeline wirings: state assembly, noising masks, scoring paths, and the
`SELECTORS` table that a config's (variant, ablation) indexes."""
import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from prefdiff.autodiff import Tensor
from prefdiff.config import RunConfig, parse_config_text
from prefdiff.data import split_cold_start
from prefdiff.params import ModelMeta, init_params
from prefdiff.rng import make_rng
from prefdiff.trainer import compute_batch_loss, sample_draws, train
from prefdiff.variants import SELECTORS, lint_pipeline

from test_trainer import tiny_cfg, toy_batch, toy_domains

MAIN, V1, V2, V3, V4, V5, V6 = (pipe for (_, ablation), pipe in SELECTORS.items()
                                if ablation == "none")
NO_DM = SELECTORS[0, "no_dm"]


def wiring_name(selector) -> str:
    """A selector's name in test ids: main, v1..v6 or the ablation."""
    variant, ablation = selector
    return ablation if ablation != "none" else f"v{variant}" if variant else "main"


def params_for(selector, d1=4, dtype="float64"):
    variant, ablation = selector
    return init_params(RunConfig(d1=d1, seed=2, init_scale=0.3, hidden=8,
                                 mlp_layers=2, enc_layers=1, max_history_len=5,
                                 T=5, variant=variant, ablation=ablation,
                                 dtype=dtype), 6, 8, 9)


def test_capability_matrix():
    rows = {
        (0, "none"): (True, True, True),
        (1, "none"): (False, False, True),
        (2, "none"): (True, False, True),
        (3, "none"): (True, False, True),
        (4, "none"): (True, False, True),
        (5, "none"): (True, False, True),
        (6, "none"): (True, False, True),
        (0, "no_tf"): (True, True, True),
        (0, "no_gs"): (False, False, True),
        (0, "no_dm"): (True, False, False),
    }
    assert list(rows) == list(SELECTORS)
    for selector, want in rows.items():
        p = SELECTORS[selector]
        assert (p.uses_history, p.guided, p.diffusion) == want, selector


def test_state_mult_and_projection_follow_registry():
    rows = {(0, "none"): (1, False), (1, "none"): (1, False), (2, "none"): (2, True),
            (3, "none"): (2, True), (4, "none"): (1, True), (5, "none"): (2, True),
            (6, "none"): (1, True), (0, "no_tf"): (1, False), (0, "no_gs"): (1, False),
            (0, "no_dm"): (1, True)}
    assert list(rows) == list(SELECTORS)
    for selector, want in rows.items():
        p = SELECTORS[selector]
        assert (len(p.state), p.projection is not None) == want, selector
        assert params_for(selector).meta.state_dim == len(p.state) * 4


def test_clean_state_layouts():
    u = Tensor(np.arange(4.0)[None, :])
    h = Tensor(10.0 + np.arange(4.0)[None, :])
    assert np.array_equal(MAIN.clean_state(u, h).data, u.data)
    assert np.array_equal(V2.clean_state(u, h).data,
                          np.concatenate([u.data, h.data], axis=1))
    assert np.array_equal(V5.clean_state(u, h).data,
                          np.concatenate([h.data, u.data], axis=1))
    assert np.array_equal(V6.clean_state(u, h).data, h.data)


def test_noise_masks():
    assert MAIN.noise_mask(4) is None
    assert V2.noise_mask(4) is None
    assert V6.noise_mask(4) is None
    for pipe in (V3, V5):
        assert pipe.noise_mask(4).tolist() == [True] * 4 + [False] * 4


def test_inference_init_layouts():
    u = np.arange(4.0)
    h = 10.0 + np.arange(4.0)
    assert np.array_equal(MAIN.inference_init(u, h), u)
    assert np.array_equal(V1.inference_init(u, None), u)
    assert np.array_equal(V3.inference_init(u, h), np.concatenate([u, h]))
    assert np.array_equal(V5.inference_init(u, h), np.concatenate([h, u]))
    assert np.array_equal(V6.inference_init(u, h), h)
    assert np.array_equal(V2.inference_init(u, h), np.concatenate([u, h]))
    # always a copy, never a view of the stored embedding
    out = MAIN.inference_init(u, h)
    out[0] = 99.0
    assert u[0] == 0.0


def test_score_embedding_paths():
    rng = make_rng(3, 3)
    u = Tensor(rng.standard_normal((2, 4)))
    h = Tensor(rng.standard_normal((2, 4)))
    x_wide = Tensor(rng.standard_normal((2, 8)))
    x = Tensor(rng.standard_normal((2, 4)))

    assert MAIN.score_embedding(x, h, u, params_for((0, "none"))) is x

    for variant in (2, 3, 5):
        p = params_for((variant, "none"))
        want = x_wide.data @ p["proj_w"].data + p["proj_b"].data
        assert np.allclose(SELECTORS[variant, "none"].score_embedding(x_wide, h, u, p).data,
                           want)

    p = params_for((4, "none"))
    want = np.concatenate([x.data, h.data], axis=1) @ p["proj_w"].data + p["proj_b"].data
    assert np.allclose(V4.score_embedding(x, h, u, p).data, want)

    p = params_for((6, "none"))
    want = np.concatenate([x.data, u.data], axis=1) @ p["proj_w"].data + p["proj_b"].data
    assert np.allclose(V6.score_embedding(x, h, u, p).data, want)

    p = params_for((0, "no_dm"))
    want = np.concatenate([u.data, h.data], axis=1) @ p["proj_w"].data + p["proj_b"].data
    assert np.allclose(NO_DM.score_embedding(None, h, u, p).data, want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("selector", [s for s, pipe in SELECTORS.items() if pipe.projection],
                         ids=wiring_name)
def test_score_embedding_on_arrays_matches_graph_bitwise(selector, dtype):
    # evaluation scores one user at a time on 1-D arrays, without a graph:
    # numpy's 1-D product must equal row 0 of the training graph's
    # (1, k) @ (k, d) to the bit, for the float64 state a rollout leaves and
    # the model-dtype state at t_prime = 0
    pipe = SELECTORS[selector]
    p = params_for(selector, d1=16, dtype=dtype)
    rng = make_rng(6, 6)
    u, h = (rng.standard_normal(16).astype(dtype) for _ in range(2))
    for state_dtype in (dtype, "float64"):
        x = rng.standard_normal(len(pipe.state) * 16).astype(state_dtype) \
            if pipe.diffusion else None
        got = pipe.score_embedding(x, h, u, p)
        graph = pipe.score_embedding(
            *(None if a is None else Tensor(a[None, :]) for a in (x, h, u)), p)
        assert isinstance(got, np.ndarray) and isinstance(graph, Tensor)
        assert got.dtype == graph.data.dtype and graph.data.shape == (1, 16)
        assert got.tobytes() == graph.data[0].tobytes()


def test_selector():
    # a config's (variant, ablation) is its row of the table; no_gs is the
    # v1 row itself and no_tf the main row with the encoder bypassed
    for (variant, ablation), pipe in SELECTORS.items():
        cfg = parse_config_text(f"variant = {variant}\nablation = {ablation}\n")
        assert ModelMeta(cfg, 1, 1, 1).pipeline is pipe
    assert SELECTORS[0, "no_gs"] is V1
    assert SELECTORS[0, "no_tf"] == replace(MAIN, bypass_transformer=True)
    assert [s for s, pipe in SELECTORS.items() if pipe.bypass_transformer] == [(0, "no_tf")]


def test_the_output_digest_runs_every_selector():
    # tools/output_digest.py spells its selectors out, so that it also runs
    # checkouts older than the table; the list must still be the table's
    path = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SELECTORS"]]
    assert eval(compile(ast.Expression(value), str(path), "eval")) == list(SELECTORS)


def test_lint_warns_on_signal_noising_with_high_eta():
    assert lint_pipeline(V2, eta=0.9)
    assert lint_pipeline(V5, eta=0.9)
    assert lint_pipeline(V6, eta=0.9)
    assert not lint_pipeline(V3, eta=0.9)
    assert not lint_pipeline(NO_DM, eta=0.9)
    assert not lint_pipeline(V2, eta=0.3)
    assert not lint_pipeline(MAIN, eta=0.9)


@pytest.mark.parametrize("selector", list(SELECTORS), ids=wiring_name)
def test_batch_loss_runs_and_is_finite(selector):
    p = params_for(selector)
    batch = toy_batch(p, n=3)
    draws = sample_draws(make_rng(4, 4), 3, p.meta)
    total, report = compute_batch_loss(*batch, p, draws)
    assert np.isfinite(float(total.data))
    if not SELECTORS[selector].diffusion:
        assert report["diff"] == 0.0


def test_partial_noising_leaves_second_half_clean():
    # variants that re-inject the signal every reverse step never corrupt it
    s = params_for((3, "none")).schedule
    mask = V3.noise_mask(4)
    rng = make_rng(5, 5)
    x0 = rng.standard_normal((3, 8))
    eps = rng.standard_normal((3, 8))
    a = np.sqrt(s.alpha_bar[2])
    b = np.sqrt(s.one_minus_alpha_bar[2])
    x_t = a * x0 + b * eps
    x_t = np.where(mask, x_t, x0)
    assert np.array_equal(x_t[:, 4:], x0[:, 4:])
    assert not np.array_equal(x_t[:, :4], x0[:, :4])


@pytest.mark.parametrize("selector", [(2, "none"), (0, "no_dm")], ids=wiring_name)
def test_variant_training_end_to_end(selector):
    src, tgt = toy_domains(n_overlap=15, seed=6)
    split = split_cold_start(src, tgt, 0.2, seed=2)
    variant, ablation = selector
    params, history = train(src, tgt, split, tiny_cfg(epochs=3, batch_size=8,
                                                      variant=variant, ablation=ablation))
    assert params.meta.pipeline is SELECTORS[selector]
    assert params.meta.state_dim == len(SELECTORS[selector].state) * 4
    assert history[-1]["total"] < history[0]["total"]
