"""Pipeline wirings: state assembly, noising masks, scoring paths, and the
variant/ablation selector."""
import numpy as np
import pytest

from prefdiff.autodiff import Tensor
from prefdiff.config import RunConfig
from prefdiff.errors import ConfigurationError
from prefdiff.params import init_params
from prefdiff.rng import make_rng
from prefdiff.trainer import compute_batch_loss, sample_draws, train
from prefdiff.variants import WIRINGS, Pipeline, build_pipeline, lint_pipeline

from conftest import SELECTORS
from test_trainer import tiny_cfg, toy_batch, toy_domains
from prefdiff.data import split_cold_start


# the config selector of each wiring
SELECTOR = {"main": (0, "none"), **{f"v{i}": (i, "none") for i in range(1, 7)},
            "no_dm": (0, "no_dm")}


def params_for(kind, d1=4, dtype="float64"):
    variant, ablation = SELECTOR[kind]
    return init_params(RunConfig(d1=d1, seed=2, init_scale=0.3, hidden=8,
                                 mlp_layers=2, enc_layers=1, max_history_len=5,
                                 T=5, variant=variant, ablation=ablation,
                                 dtype=dtype), 6, 8, 9)


def test_capability_matrix():
    rows = {
        "main": (True, True, True),
        "v1": (False, False, True),
        "v2": (True, False, True),
        "v3": (True, False, True),
        "v4": (True, False, True),
        "v5": (True, False, True),
        "v6": (True, False, True),
        "no_dm": (True, False, False),
    }
    for kind, (hist, masking, diff) in rows.items():
        p = Pipeline(kind)
        assert (p.uses_history, p.uses_masking, p.uses_diffusion) == (hist, masking, diff), kind


def test_state_mult_and_projection_follow_registry():
    rows = {"main": (1, False), "v1": (1, False), "v2": (2, True),
            "v3": (2, True), "v4": (1, True), "v5": (2, True),
            "v6": (1, True), "no_dm": (1, True)}
    assert set(WIRINGS) == set(rows)
    for kind, want in rows.items():
        p = Pipeline(kind)
        assert (p.state_mult, p.with_projection) == want, kind
        assert p.state_mult == len(WIRINGS[kind].state)
    for vid in range(1, 7):
        p = build_pipeline(vid)
        assert p.kind == f"v{vid}" and p.wiring is WIRINGS[f"v{vid}"]


def test_clean_state_layouts():
    u = Tensor(np.arange(4.0)[None, :])
    h = Tensor(10.0 + np.arange(4.0)[None, :])
    assert np.array_equal(Pipeline("main").clean_state(u, h).data, u.data)
    assert np.array_equal(Pipeline("v2").clean_state(u, h).data,
                          np.concatenate([u.data, h.data], axis=1))
    assert np.array_equal(Pipeline("v5").clean_state(u, h).data,
                          np.concatenate([h.data, u.data], axis=1))
    assert np.array_equal(Pipeline("v6").clean_state(u, h).data, h.data)


def test_noise_masks():
    assert Pipeline("main").noise_mask(4) is None
    assert Pipeline("v2").noise_mask(4) is None
    assert Pipeline("v6").noise_mask(4) is None
    for kind in ("v3", "v5"):
        m = Pipeline(kind).noise_mask(4)
        assert m.tolist() == [True] * 4 + [False] * 4


def test_inference_init_layouts():
    u = np.arange(4.0)
    h = 10.0 + np.arange(4.0)
    assert np.array_equal(Pipeline("main").inference_init(u, h), u)
    assert np.array_equal(Pipeline("v1").inference_init(u, None), u)
    assert np.array_equal(Pipeline("v3").inference_init(u, h), np.concatenate([u, h]))
    assert np.array_equal(Pipeline("v5").inference_init(u, h), np.concatenate([h, u]))
    assert np.array_equal(Pipeline("v6").inference_init(u, h), h)
    assert np.array_equal(Pipeline("v2").inference_init(u, h), np.concatenate([u, h]))
    # always a copy, never a view of the stored embedding
    out = Pipeline("main").inference_init(u, h)
    out[0] = 99.0
    assert u[0] == 0.0


def test_score_embedding_paths():
    rng = make_rng(3, 3)
    u = Tensor(rng.standard_normal((2, 4)))
    h = Tensor(rng.standard_normal((2, 4)))
    x_wide = Tensor(rng.standard_normal((2, 8)))
    x = Tensor(rng.standard_normal((2, 4)))

    assert Pipeline("main").score_embedding(x, h, u, params_for("main")) is x

    for kind, state in (("v2", x_wide), ("v3", x_wide), ("v5", x_wide)):
        pipe = Pipeline(kind)
        p = params_for(kind)
        want = state.data @ p["proj_w"].data + p["proj_b"].data
        assert np.allclose(pipe.score_embedding(state, h, u, p).data, want)

    pipe = Pipeline("v4")
    p = params_for("v4")
    want = np.concatenate([x.data, h.data], axis=1) @ p["proj_w"].data + p["proj_b"].data
    assert np.allclose(pipe.score_embedding(x, h, u, p).data, want)

    pipe = Pipeline("v6")
    p = params_for("v6")
    want = np.concatenate([x.data, u.data], axis=1) @ p["proj_w"].data + p["proj_b"].data
    assert np.allclose(pipe.score_embedding(x, h, u, p).data, want)

    pipe = Pipeline("no_dm")
    p = params_for("no_dm")
    want = np.concatenate([u.data, h.data], axis=1) @ p["proj_w"].data + p["proj_b"].data
    assert np.allclose(pipe.score_embedding(None, h, u, p).data, want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("kind", [k for k, w in WIRINGS.items() if w.projection])
def test_score_embedding_on_arrays_matches_graph_bitwise(kind, dtype):
    # evaluation scores one user at a time on 1-D arrays, without a graph:
    # numpy's 1-D product must equal the graph's (1, k) @ (k, d) to the bit,
    # for the float64 state a rollout leaves and the model-dtype state at
    # t_prime = 0
    pipe = Pipeline(kind)
    p = params_for(kind, d1=16, dtype=dtype)
    rng = make_rng(6, 6)
    u, h = (rng.standard_normal(16).astype(dtype) for _ in range(2))
    for state_dtype in (dtype, "float64"):
        x = rng.standard_normal(pipe.state_mult * 16).astype(state_dtype) \
            if pipe.uses_diffusion else None
        got = pipe.score_embedding(x, h, u, p)
        graph = pipe.score_embedding(*(None if a is None else Tensor(a) for a in (x, h, u)), p)
        assert isinstance(got, np.ndarray) and isinstance(graph, Tensor)
        assert got.dtype == graph.data.dtype
        assert got.tobytes() == graph.data.tobytes()


def test_selector():
    assert build_pipeline().kind == "main"
    assert build_pipeline(variant=3).kind == "v3"
    assert build_pipeline(ablation="no_tf").bypass_transformer
    assert build_pipeline(ablation="no_gs").kind == "v1"
    assert not build_pipeline(ablation="no_gs").bypass_transformer
    assert build_pipeline(ablation="no_dm").kind == "no_dm"
    with pytest.raises(ConfigurationError):
        build_pipeline(variant=7)
    with pytest.raises(ConfigurationError):
        build_pipeline(ablation="bogus")
    with pytest.raises(ConfigurationError):
        build_pipeline(variant=2, ablation="no_tf")
    # the selectors the config accepts build every wiring and nothing else,
    # so Pipeline trusts its kind
    assert {build_pipeline(v, a).kind for v, a in SELECTORS} == set(WIRINGS)


def test_lint_warns_on_signal_noising_with_high_eta():
    assert lint_pipeline(Pipeline("v2"), eta=0.9)
    assert lint_pipeline(Pipeline("v5"), eta=0.9)
    assert lint_pipeline(Pipeline("v6"), eta=0.9)
    assert not lint_pipeline(Pipeline("v3"), eta=0.9)
    assert not lint_pipeline(Pipeline("no_dm"), eta=0.9)
    assert not lint_pipeline(Pipeline("v2"), eta=0.3)
    assert not lint_pipeline(Pipeline("main"), eta=0.9)


@pytest.mark.parametrize("kind", ["main", "v1", "v2", "v3", "v4", "v5", "v6", "no_dm"])
def test_batch_loss_runs_and_is_finite(kind):
    pipe = Pipeline(kind)
    p = params_for(kind)
    batch = toy_batch(p, n=3)
    draws = sample_draws(make_rng(4, 4), 3, p.meta)
    total, report = compute_batch_loss(*batch, p, draws)
    assert np.isfinite(float(total.data))
    if not pipe.uses_diffusion:
        assert report["diff"] == 0.0


def test_partial_noising_leaves_second_half_clean():
    # variants that re-inject the signal every reverse step never corrupt it
    pipe = Pipeline("v3")
    s = params_for("v3").schedule
    mask = pipe.noise_mask(4)
    rng = make_rng(5, 5)
    x0 = rng.standard_normal((3, 8))
    eps = rng.standard_normal((3, 8))
    a = np.sqrt(s.alpha_bar[2])
    b = np.sqrt(s.one_minus_alpha_bar[2])
    x_t = a * x0 + b * eps
    x_t = np.where(mask, x_t, x0)
    assert np.array_equal(x_t[:, 4:], x0[:, 4:])
    assert not np.array_equal(x_t[:, :4], x0[:, :4])


@pytest.mark.parametrize("kind", ["v2", "no_dm"])
def test_variant_training_end_to_end(kind):
    src, tgt = toy_domains(n_overlap=15, seed=6)
    split = split_cold_start(src, tgt, 0.2, seed=2)
    pipe = Pipeline(kind)
    variant, ablation = SELECTOR[kind]
    params, history = train(src, tgt, split, tiny_cfg(epochs=3, batch_size=8,
                                                      variant=variant, ablation=ablation))
    assert params.meta.pipeline.state_mult == pipe.state_mult
    assert params.meta.state_dim == pipe.state_mult * 4
    assert history[-1]["total"] < history[0]["total"]
