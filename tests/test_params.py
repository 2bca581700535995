"""Parameter initialization, step embeddings, and checkpoint round-trips."""
import gc
import hashlib
import math
import re
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import run_configs
from prefdiff.config import RunConfig
from prefdiff.diffusion import denoise
from prefdiff.errors import CheckpointError, ConfigurationError
from prefdiff.params import (BLOB_NAME, MANIFEST_NAME, ModelMeta,
                             _metadata_text, _parse_manifest, init_params,
                             load_checkpoint, save_checkpoint,
                             step_embedding_table)
from prefdiff.schedule import build_schedule
from prefdiff.variants import SELECTORS

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
    # the denoiser reads step t's embedding from row t - 1 of the table
    p = small_params()
    assert np.array_equal(p.step_table, step_embedding_table(6, 4))
    rng = np.random.default_rng(5)
    for t, rows in ((1, [0]), (np.array([2, 4]), [1, 3])):
        x, cond = rng.standard_normal((2, len(rows), 4))
        want = np.concatenate([x, cond, p.step_table[rows]], axis=1)
        want = np.tanh(want @ p["den_w0"].data + p["den_b0"].data)
        want = want @ p["den_w1"].data + p["den_b1"].data
        assert denoise(x, cond, t, p).data.tobytes() == want.tobytes()


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
    assert meta.pipeline is SELECTORS[2, "none"]


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
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(tmp_path / "nope")
    manifest = str(tmp_path / "nope" / MANIFEST_NAME)
    assert str(info.value) == f"cannot read {manifest!r}: No such file or directory"


def _corrupt_manifest(path, edit):
    mpath = path / MANIFEST_NAME
    lines = mpath.read_text().strip().split("\n")
    mpath.write_text("\n".join(edit(lines)) + "\n")


def test_checkpoint_array_lines_are_refused(tmp_path):
    # the arrays' names and shapes come from the config alone; a manifest
    # that lists them is not one this code wrote
    save_checkpoint(small_params(), tmp_path)
    _corrupt_manifest(tmp_path, lambda ls: ls + ["bogus\t4\tfloat64\t0"])
    with pytest.raises(CheckpointError, match="line 'bogus.*' is not `# key = value` metadata"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("line,edit,problem", [
    ("# n_users = 7", "# n_users = 8", "truncated"),
    ("# d1 = 4", "# d1 = 2", "too long"),
], ids=["n_users", "d1"])
def test_checkpoint_length_follows_the_manifest_sizes(tmp_path, line, edit, problem):
    # a size or config line that changes an array's shape no longer
    # matches the blob, and the length check names how
    ckpt = tmp_path / "ckpt"
    save_checkpoint(small_params(), ckpt)
    _corrupt_manifest(ckpt, lambda ls: [edit if l == line else l for l in ls])
    with pytest.raises(CheckpointError, match=problem):
        load_checkpoint(ckpt)


def test_checkpoint_blob_with_an_extra_byte(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(small_params(), ckpt)
    blob = ckpt / BLOB_NAME
    blob.write_bytes(blob.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="too long"):
        load_checkpoint(ckpt)


def test_checkpoint_truncated_blob(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(small_params(), ckpt)
    blob = ckpt / BLOB_NAME
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(ckpt)


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


def test_a_changed_seed_line_is_refused(tmp_path):
    # seed is a key `eval` lets differ, and it draws the split: a manifest
    # whose seed line was edited used to load and score another split
    save_checkpoint(small_params(), tmp_path)
    _corrupt_manifest(tmp_path, lambda ls: [l.replace("# seed = 3", "# seed = 4") for l in ls])
    with pytest.raises(CheckpointError, match="metadata and params.bin do not match the sha256"):
        load_checkpoint(tmp_path)


def test_a_digest_of_the_blob_alone_is_refused(tmp_path):
    # a manifest written before the digest covered the metadata lines
    save_checkpoint(small_params(), tmp_path)
    blob_digest = hashlib.sha256((tmp_path / BLOB_NAME).read_bytes()).hexdigest()
    _corrupt_manifest(tmp_path, lambda ls: [f"# sha256 = {blob_digest}"
                                            if l.startswith("# sha256 = ") else l for l in ls])
    with pytest.raises(CheckpointError, match="sha256"):
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


SIZES = st.tuples(*[st.integers(1, 4)] * 3)


@settings(max_examples=60, deadline=None)
@given(cfg=run_configs(), sizes=SIZES)
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


CORRUPTION = settings(max_examples=25, deadline=None)


@contextmanager
def _saved(cfg, sizes):
    """A temporary checkpoint directory of a fresh model."""
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(init_params(cfg, *sizes), tmp)
        yield Path(tmp)


@CORRUPTION
@given(cfg=run_configs(), sizes=SIZES, data=st.data())
def test_any_bit_flip_in_the_blob_is_refused(cfg, sizes, data):
    with _saved(cfg, sizes) as ckpt:
        blob = bytearray((ckpt / BLOB_NAME).read_bytes())
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
        (ckpt / BLOB_NAME).write_bytes(blob)
        with pytest.raises(CheckpointError, match="sha256"):
            load_checkpoint(ckpt)


@CORRUPTION
@given(cfg=run_configs(), sizes=SIZES, n=st.integers(1, 64), longer=st.booleans())
def test_a_blob_of_another_length_is_refused(cfg, sizes, n, longer):
    with _saved(cfg, sizes) as ckpt:
        blob = (ckpt / BLOB_NAME).read_bytes()
        (ckpt / BLOB_NAME).write_bytes(blob + bytes(n) if longer else blob[:-n])
        with pytest.raises(CheckpointError, match="too long" if longer else "truncated"):
            load_checkpoint(ckpt)


@CORRUPTION
@given(cfg=run_configs(), sizes=SIZES, data=st.data())
def test_any_changed_digit_of_the_digest_is_refused(cfg, sizes, data):
    with _saved(cfg, sizes) as ckpt:
        text = (ckpt / MANIFEST_NAME).read_text()
        digest = re.search(r"^# sha256 = ([0-9a-f]{64})$", text, re.M)
        i = digest.start(1) + data.draw(st.integers(0, 63))
        digit = data.draw(st.sampled_from("0123456789abcdef").filter(lambda c: c != text[i]))
        (ckpt / MANIFEST_NAME).write_text(text[:i] + digit + text[i + 1:])
        with pytest.raises(CheckpointError, match="sha256"):
            load_checkpoint(ckpt)


@CORRUPTION
@given(cfg=run_configs(), sizes=SIZES)
def test_a_checkpoint_with_per_array_lines_is_refused(cfg, sizes):
    # the format before the digest: the same metadata and blob, no sha256
    # line, and one `name, shape, dtype, byte offset` line per array
    p = init_params(cfg, *sizes)
    with _saved(cfg, sizes) as ckpt:
        lines = [l for l in (ckpt / MANIFEST_NAME).read_text().splitlines()
                 if not l.startswith("# sha256 = ")]
        offset = 0
        for name, tensor in p.arrays.items():
            shape = ",".join(map(str, tensor.data.shape))
            lines.append(f"{name}\t{shape}\t{tensor.data.dtype.name}\t{offset}")
            offset += tensor.data.nbytes
        assert offset == (ckpt / BLOB_NAME).stat().st_size
        (ckpt / MANIFEST_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="metadata"):
            load_checkpoint(ckpt)


@CORRUPTION
@given(cfg=run_configs(), sizes=SIZES, other=run_configs(), other_sizes=SIZES, data=st.data())
def test_any_changed_metadata_value_that_still_parses_is_refused(cfg, sizes, other,
                                                                 other_sizes, data):
    # one metadata line takes the value of another valid model's line; if
    # the manifest still parses, the sha256 over the metadata refuses it
    # (the length check comes first when the value changes an array shape)
    theirs = _metadata_text(ModelMeta(replace(other, source_path="", target_path=""),
                                      *other_sizes)).splitlines()
    with _saved(cfg, sizes) as ckpt:
        lines = (ckpt / MANIFEST_NAME).read_text().splitlines()
        changed = [i for i, line in enumerate(theirs) if line != lines[i]]
        assume(changed)
        i = data.draw(st.sampled_from(changed))
        text = "\n".join(lines[:i] + [theirs[i]] + lines[i + 1:]) + "\n"
        try:
            _parse_manifest(text)
        except CheckpointError:
            assume(False)
        (ckpt / MANIFEST_NAME).write_text(text)
        with pytest.raises(CheckpointError, match="sha256|truncated|too long"):
            load_checkpoint(ckpt)
