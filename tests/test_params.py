"""Parameter initialization, step embeddings, and checkpoint round-trips."""
import gc
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from prefdiff.errors import CheckpointError, ConfigurationError
from prefdiff.params import (BLOB_NAME, MANIFEST_NAME, init_params,
                             load_checkpoint, save_checkpoint,
                             step_embedding_table)


def small_params(**kw):
    defaults = dict(n_users=7, n_items_src=5, n_items_tgt=6, d1=4, seed=3,
                    hidden=8, mlp_layers=2, enc_layers=1, max_len=5, T=6,
                    dtype="float64")
    defaults.update(kw)
    return init_params(**defaults)


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
    assert np.array_equal(p.step_embedding([2, 4]), p.step_table[[1, 3]])


def test_init_shapes_and_special_values():
    p = small_params(with_projection=True)
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
    p = small_params(state_mult=2)
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
    with pytest.raises(ConfigurationError):
        small_params(d1=4, n_heads=3)


def test_checkpoint_round_trip_bitwise(tmp_path):
    for dtype in ("float32", "float64"):
        p = small_params(dtype=dtype, with_projection=True, state_mult=2)
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
    # init_params leaves the schedule and wiring unbound; `train` binds them
    p = small_params()
    assert (p.meta.eta, p.meta.variant, p.meta.ablation) == (None, None, None)
    save_checkpoint(p, tmp_path / "unbound")
    assert load_checkpoint(tmp_path / "unbound").meta == p.meta
    p.meta = replace(p.meta, eta=0.25, alpha_min=0.5, alpha_max=4.0, variant=3,
                     ablation="none")
    save_checkpoint(p, tmp_path / "bound")
    assert load_checkpoint(tmp_path / "bound").meta == p.meta


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
    _corrupt_manifest(tmp_path, lambda ls: [l for l in ls if not l.startswith("# d1=")])
    with pytest.raises(CheckpointError, match="metadata"):
        load_checkpoint(tmp_path)
