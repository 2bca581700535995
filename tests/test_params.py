"""Parameter initialization, step embeddings, and checkpoint round-trips."""
import gc
import math
import tempfile
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefdiff.config import RunConfig
from prefdiff.errors import CheckpointError, ConfigurationError
from prefdiff.params import (BLOB_NAME, MANIFEST_NAME, init_params,
                             load_checkpoint, save_checkpoint,
                             step_embedding_table)
from prefdiff.schedule import build_schedule

SELECTORS = [(v, "none") for v in range(7)] + [(0, a) for a in ("no_tf", "no_gs", "no_dm")]


def small_params(n_users=7, **kw):
    """A float64 model for 7 users, 5 source and 6 target items; `kw` are
    RunConfig keys."""
    defaults = dict(d1=4, seed=3, hidden=8, mlp_layers=2, enc_layers=1,
                    max_history_len=5, T=6, dtype="float64")
    defaults.update(kw)
    return init_params(RunConfig(**defaults), n_users, 5, 6)


def test_step_embedding_matches_direct_formula():
    T, d1 = 9, 6
    table = step_embedding_table(T, d1)
    for t in range(1, T + 1):
        for k in range(d1):
            angle = t / (10000.0 ** ((2 * (k // 2)) / d1))
            want = math.sin(angle) if k % 2 == 0 else math.cos(angle)
            assert table[t - 1, k] == pytest.approx(want, abs=1e-12)


def test_step_embedding_bounds_and_distinctness():
    table = step_embedding_table(200, 16)
    assert np.all(np.abs(table) <= 1.0)
    # all steps map to distinct embeddings
    assert len({tuple(row) for row in np.round(table, 12)}) == 200


def test_step_embedding_lookup_is_one_based():
    p = small_params()
    assert np.array_equal(p.step_embedding(1), p.step_table[0])
    assert np.array_equal(p.step_embedding(np.array([2, 4])), p.step_table[[1, 3]])


def _same_schedule(a, b) -> bool:
    return all(np.asarray(getattr(a, f.name)).tobytes() == np.asarray(getattr(b, f.name)).tobytes()
               for f in fields(a))


def test_params_carry_the_schedule_of_their_config(tmp_path):
    # the model builds its schedule from its own config, and a checkpoint
    # brings back the same one
    p = small_params(T=7, eta=0.3, alpha_min=0.2, alpha_max=4.0)
    want = build_schedule(7, 0.3, 0.2, 4.0)
    assert _same_schedule(p.schedule, want)
    save_checkpoint(p, tmp_path / "ckpt")
    assert _same_schedule(load_checkpoint(tmp_path / "ckpt").schedule, want)
    assert not _same_schedule(small_params(T=7).schedule, want)


def test_pipeline_is_built_once():
    meta = small_params(variant=2).meta
    assert meta.pipeline is meta.pipeline
    assert meta.pipeline.kind == "v2"


def test_init_shapes_and_special_values():
    p = small_params(variant=4)
    m = p.meta
    assert p["user_emb"].data.shape == (7, 4)
    assert p["den_w0"].data.shape == (m.denoiser_in, 8)
    assert p["den_w1"].data.shape == (8, m.state_dim)
    assert p["proj_w"].data.shape == (8, 4)
    assert np.all(p["null_token"].data == 0.0)
    assert np.all(p["den_b0"].data == 0.0)
    assert np.all(p["enc0_ln1_g"].data == 1.0)
    assert np.all(p["enc0_ln1_b"].data == 0.0)
    assert np.all(np.abs(p["user_emb"].data) <= 0.1)
    assert p["user_emb"].requires_grad


def test_state_mult_widens_denoiser():
    p = small_params(variant=2)
    assert p.meta.state_dim == 8
    assert p["den_w0"].data.shape[0] == 8 + 2 * 4
    assert p["den_w1"].data.shape[1] == 8


def test_init_deterministic_and_seed_sensitive():
    a, b, c = small_params(seed=5), small_params(seed=5), small_params(seed=6)
    assert np.array_equal(a["user_emb"].data, b["user_emb"].data)
    assert not np.array_equal(a["user_emb"].data, c["user_emb"].data)


def test_init_validation():
    with pytest.raises(ConfigurationError):
        small_params(n_users=0)
    # the architecture is checked once, by RunConfig.validate
    with pytest.raises(ConfigurationError, match="n_heads"):
        replace(small_params().meta.cfg, n_heads=3).validate()


def test_checkpoint_round_trip_bitwise(tmp_path):
    for dtype in ("float32", "float64"):
        p = small_params(dtype=dtype, variant=2)
        out = tmp_path / f"ckpt_{dtype}"
        save_checkpoint(p, out)
        q = load_checkpoint(out)
        assert q.meta == p.meta
        assert set(q.arrays) == set(p.arrays)
        for name in p.arrays:
            got, want = q[name].data, p[name].data
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(q.step_table, p.step_table)


def test_checkpoint_round_trips_run_binding(tmp_path):
    # the metadata is the run config less its input paths, which stay out
    # of the manifest so that its bytes do not depend on where inputs live
    p = small_params(eta=0.25, alpha_min=0.5, alpha_max=4.0, variant=3,
                     source_path="/data/a.tsv", target_path="b.tsv")
    assert p.meta.cfg == RunConfig(d1=4, seed=3, hidden=8, mlp_layers=2,
                                   enc_layers=1, max_history_len=5, T=6,
                                   dtype="float64", eta=0.25, alpha_min=0.5,
                                   alpha_max=4.0, variant=3)
    save_checkpoint(p, tmp_path / "bound")
    assert load_checkpoint(tmp_path / "bound").meta == p.meta
    assert "a.tsv" not in (tmp_path / "bound" / MANIFEST_NAME).read_text()


def test_load_checkpoint_closes_its_files(tmp_path):
    save_checkpoint(small_params(), tmp_path / "ckpt")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_checkpoint(tmp_path / "ckpt")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_checkpoint_missing_files(tmp_path):
    with pytest.raises(CheckpointError, match="missing checkpoint"):
        load_checkpoint(tmp_path / "nope")


def _corrupt_manifest(path, edit):
    mpath = path / MANIFEST_NAME
    lines = mpath.read_text().strip().split("\n")
    mpath.write_text("\n".join(edit(lines)) + "\n")


def test_checkpoint_unknown_array(tmp_path):
    p = small_params()
    save_checkpoint(p, tmp_path)
    _corrupt_manifest(tmp_path, lambda ls: ls + ["bogus\t4\tfloat64\t0"])
    with pytest.raises(CheckpointError, match="unknown array"):
        load_checkpoint(tmp_path)


def test_checkpoint_missing_array(tmp_path):
    p = small_params()
    save_checkpoint(p, tmp_path)
    _corrupt_manifest(tmp_path, lambda ls: [l for l in ls if not l.startswith("user_emb\t")])
    with pytest.raises(CheckpointError, match="missing arrays"):
        load_checkpoint(tmp_path)


def test_checkpoint_shape_mismatch(tmp_path):
    p = small_params()
    save_checkpoint(p, tmp_path)
    _corrupt_manifest(
        tmp_path,
        lambda ls: [l.replace("user_emb\t7,4", "user_emb\t7,5") for l in ls])
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(tmp_path)


def test_checkpoint_truncated_blob(tmp_path):
    p = small_params()
    save_checkpoint(p, tmp_path)
    blob = tmp_path / BLOB_NAME
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path)


def test_checkpoint_missing_meta(tmp_path):
    p = small_params()
    save_checkpoint(p, tmp_path)
    _corrupt_manifest(tmp_path, lambda ls: [l for l in ls if not l.startswith("# d1 = ")])
    with pytest.raises(CheckpointError, match="metadata fields \\['d1'\\]"):
        load_checkpoint(tmp_path)


def test_checkpoint_bad_meta_value(tmp_path):
    save_checkpoint(small_params(), tmp_path)
    _corrupt_manifest(tmp_path, lambda ls: [l.replace("# T = 6", "# T = 0") for l in ls])
    with pytest.raises(CheckpointError, match="T must be >= 1"):
        load_checkpoint(tmp_path)


# the metadata lines that `prefdiff train` wrote before the manifest carried
# the run config: ModelMeta's own fields as `# key=value`
OLD_META = ["d1=4", "n_users=7", "n_items_src=5", "n_items_tgt=6", "hidden=8",
            "mlp_layers=2", "enc_layers=1", "n_heads=1", "max_len=5", "T=6",
            "state_mult=1", "with_projection=False", "encoder_layer_norm=True",
            "dtype=float64", "eta=0.1", "alpha_min=0.1", "alpha_max=10.0",
            "variant=0", "ablation=none"]


def test_old_format_checkpoint_is_refused(tmp_path):
    save_checkpoint(small_params(), tmp_path)
    _corrupt_manifest(tmp_path, lambda ls: [f"# {line}" for line in OLD_META]
                      + [l for l in ls if not l.startswith("#")])
    with pytest.raises(CheckpointError, match="metadata"):
        load_checkpoint(tmp_path)


@st.composite
def run_configs(draw):
    """Valid RunConfigs over every selector, both dtypes and T from 1."""
    T = draw(st.integers(1, 4))
    n_heads = draw(st.integers(1, 2))
    variant, ablation = draw(st.sampled_from(SELECTORS))
    alpha_min = draw(st.floats(0.01, 5.0))
    cfg = RunConfig(
        fraction=draw(st.floats(0.01, 0.99)), seed=draw(st.integers(0, 2**32 - 1)),
        d1=n_heads * draw(st.integers(1, 3)), hidden=draw(st.integers(1, 4)),
        mlp_layers=draw(st.integers(1, 3)), enc_layers=draw(st.integers(0, 2)),
        n_heads=n_heads, max_history_len=draw(st.integers(1, 4)), T=T,
        eta=draw(st.floats(0.01, 1.0)), alpha_min=alpha_min,
        alpha_max=alpha_min + draw(st.floats(0.01, 10.0)),
        batch_size=draw(st.integers(1, 512)),
        learning_rate=draw(st.floats(1e-5, 1.0)), epochs=draw(st.integers(0, 20)),
        lam=draw(st.floats(0.0, 1.0)), p_uncond=draw(st.floats(0.0, 1.0)),
        loss_weighting=draw(st.sampled_from(["simplified", "variance_weighted"])),
        init_scale=draw(st.floats(1e-3, 1.0)), omega=draw(st.floats(0.0, 8.0)),
        t_prime=draw(st.integers(-1, T)), variant=variant, ablation=ablation,
        dtype=draw(st.sampled_from(["float32", "float64"])))
    cfg.validate()
    return cfg


@settings(max_examples=60, deadline=None)
@given(cfg=run_configs(), sizes=st.tuples(*[st.integers(1, 4)] * 3))
@example(cfg=RunConfig(d1=2, hidden=2, mlp_layers=1, enc_layers=0, T=1,
                       max_history_len=1, variant=6), sizes=(1, 1, 1))
def test_checkpoint_round_trip_property(cfg, sizes):
    p = init_params(cfg, *sizes)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(p, tmp)
        q = load_checkpoint(tmp)
    assert q.meta == p.meta
    assert list(q.arrays) == list(p.arrays)
    for name, tensor in p.arrays.items():
        assert q[name].data.dtype == tensor.data.dtype == np.dtype(cfg.dtype)
        assert q[name].data.tobytes() == tensor.data.tobytes()
