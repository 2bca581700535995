"""Rating ingestion, cold-start split, and history construction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefdiff.data import (RatingRecord, build_histories,
                           held_out_ratings, load_ratings, make_domain,
                           overlapping_users, split_cold_start,
                           training_ratings, user_universe, users_with_history,
                           write_split_manifest)
from prefdiff.encoder import encode_history
from prefdiff.errors import DataError


def write_tsv(path, rows):
    path.write_text("".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows))


def test_load_basic(tmp_path):
    p = tmp_path / "d.tsv"
    write_tsv(p, [("u1", "a", 4.0, 10), ("u2", "b", 2.5, 11), ("u1", "b", 5.0, 9)])
    d = load_ratings(p)
    assert d.users == ("u1", "u2")
    assert d.items == ("a", "b")
    assert d.n_users == 2 and d.n_items == 2
    assert d.user_index == {"u1": 0, "u2": 1}


def test_load_dedupe_latest_timestamp_wins(tmp_path):
    p = tmp_path / "d.tsv"
    write_tsv(p, [("u1", "a", 1.0, 5), ("u1", "a", 4.0, 9), ("u1", "a", 2.0, 7)])
    d = load_ratings(p)
    assert len(d.records) == 1
    assert d.records[0].rating == 4.0


def test_load_dedupe_tie_keeps_later_line(tmp_path):
    p = tmp_path / "d.tsv"
    write_tsv(p, [("u1", "a", 1.0, 5), ("u1", "a", 3.0, 5)])
    d = load_ratings(p)
    assert d.records[0].rating == 3.0


@pytest.mark.parametrize("line,msg", [
    ("u1\ta\t4.0\n", "4 tab-separated fields"),
    ("u1\ta\tnope\t5\n", "could not convert"),
    ("u1\ta\t9.5\t5\n", "outside"),
    ("u1\ta\tnan\t5\n", "outside"),
    ("u1\ta\t4.0\t-3\n", "negative timestamp"),
])
def test_load_malformed_lines(tmp_path, line, msg):
    p = tmp_path / "d.tsv"
    p.write_text("u0\tz\t3.0\t1\n" + line)
    with pytest.raises(DataError, match=msg) as exc:
        load_ratings(p)
    assert ":2:" in str(exc.value)


def test_blank_lines_skipped(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("u1\ta\t4.0\t1\n\nu2\tb\t3.0\t2\n")
    assert load_ratings(p).n_users == 2


def _two_domains(n_overlap=10, n_src_only=5, n_tgt_only=5):
    src = [RatingRecord(f"u{k}", "s0", 3.0, k) for k in range(n_overlap + n_src_only)]
    tgt = [RatingRecord(f"u{k}", "t0", 3.0, k) for k in range(n_overlap)]
    tgt += [RatingRecord(f"v{k}", "t0", 3.0, k) for k in range(n_tgt_only)]
    return make_domain(src), make_domain(tgt)


def test_overlap_in_source_order():
    src, tgt = _two_domains()
    assert overlapping_users(src, tgt) == [f"u{k}" for k in range(10)]


def test_split_sizes_and_disjointness():
    src, tgt = _two_domains(n_overlap=100)
    split = split_cold_start(src, tgt, 0.2, seed=7)
    assert len(split.cold_start_test) == 20
    assert len(split.overlap_train) == 80
    assert not split.cold_start_test & split.overlap_train
    assert split.cold_start_test | split.overlap_train == set(overlapping_users(src, tgt))


def test_split_rounding_half_up():
    src, tgt = _two_domains(n_overlap=10)
    # 0.25 * 10 = 2.5 rounds to 3
    assert len(split_cold_start(src, tgt, 0.25, seed=1).cold_start_test) == 3


def test_split_deterministic_and_seed_sensitive():
    src, tgt = _two_domains(n_overlap=50)
    a = split_cold_start(src, tgt, 0.2, seed=3)
    b = split_cold_start(src, tgt, 0.2, seed=3)
    c = split_cold_start(src, tgt, 0.2, seed=4)
    assert a.cold_start_test == b.cold_start_test
    assert a.cold_start_test != c.cold_start_test


def test_split_order_invariant():
    # the split depends on user ids, not record order
    src1, tgt = _two_domains(n_overlap=30)
    shuffled = list(src1.records)[::-1]
    src2 = make_domain(shuffled)
    a = split_cold_start(src1, tgt, 0.2, seed=9)
    b = split_cold_start(src2, tgt, 0.2, seed=9)
    assert a.cold_start_test == b.cold_start_test


def test_split_validation():
    src, tgt = _two_domains()
    with pytest.raises(DataError):
        split_cold_start(src, tgt, 0.0, seed=1)
    with pytest.raises(DataError):
        split_cold_start(src, tgt, 1.0, seed=1)
    empty = make_domain([RatingRecord("zz", "x", 3.0, 1)])
    with pytest.raises(DataError, match="no overlapping"):
        split_cold_start(src, empty, 0.2, seed=1)


def test_history_chronological_and_truncated():
    recs = [
        RatingRecord("u", "c", 3.0, 30, position=1),
        RatingRecord("u", "a", 3.0, 10, position=2),
        RatingRecord("u", "b", 3.0, 20, position=3),
        RatingRecord("u", "d", 3.0, 40, position=4),
    ]
    d = make_domain(recs)
    h = build_histories(d, ["u"], max_len=3)["u"]
    # chronological order b, c, d after dropping the oldest
    assert h.item_indices == (d.item_index["b"], d.item_index["c"], d.item_index["d"])


def test_history_timestamp_ties_keep_file_order():
    recs = [
        RatingRecord("u", "a", 3.0, 10, position=1),
        RatingRecord("u", "b", 3.0, 10, position=2),
    ]
    d = make_domain(recs)
    assert build_histories(d, ["u"], max_len=5)["u"].item_indices == (0, 1)


def test_history_empty_user_raises(tiny_params):
    # a user without source interactions gets no history, and an empty
    # history cannot be encoded into a guidance signal
    d = make_domain([RatingRecord("u", "a", 3.0, 1)])
    assert set(build_histories(d, ["ghost", "u"], max_len=5)) == {"u"}
    with pytest.raises(DataError, match="empty history"):
        encode_history(np.zeros((0, tiny_params.meta.cfg.d1)), tiny_params)


def test_build_histories_matches_single():
    recs = [RatingRecord(f"u{k % 3}", f"i{k}", 3.0, k) for k in range(20)]
    d = make_domain(recs)
    bulk = build_histories(d, ["u0", "u1", "u2"], max_len=4)
    for u in ("u0", "u1", "u2"):
        assert bulk[u] == build_histories(d, [u], max_len=4)[u]


def test_training_ratings_excludes_test_users():
    src, tgt = _two_domains(n_overlap=40)
    split = split_cold_start(src, tgt, 0.25, seed=5)
    recs = training_ratings(tgt, split)
    users_seen = {r.user_id for r in recs}
    assert users_seen == split.overlap_train
    assert not users_seen & split.cold_start_test


def test_held_out_ratings_are_test_only():
    src, tgt = _two_domains(n_overlap=40)
    split = split_cold_start(src, tgt, 0.25, seed=5)
    assert {r.user_id for r in held_out_ratings(tgt, split)} == split.cold_start_test


def test_user_universe_order_and_coverage():
    src, tgt = _two_domains(n_overlap=3, n_src_only=2, n_tgt_only=2)
    uni = user_universe(src, tgt)
    assert list(uni) == ["u0", "u1", "u2", "u3", "u4", "v0", "v1"]
    assert sorted(uni.values()) == list(range(7))


def test_users_with_history_filters_empty():
    d = make_domain([RatingRecord("u0", "a", 3.0, 1)])
    assert users_with_history(d, ["u0", "u1"]) == ["u0"]


def test_users_with_history_counts_generator_input(caplog):
    d = make_domain([RatingRecord("u0", "a", 3.0, 1)])
    with caplog.at_level("INFO", logger="prefdiff.data"):
        kept = users_with_history(d, (u for u in ["u0", "u1", "u2"]))
    assert kept == ["u0"]
    assert "excluded 2 users" in caplog.text


def test_split_manifest_round_trip(tmp_path):
    src, tgt = _two_domains(n_overlap=12)
    split = split_cold_start(src, tgt, 0.25, seed=2)
    p = tmp_path / "split.tsv"
    write_split_manifest(split, p)
    rows = [line.split("\t") for line in p.read_text().strip().split("\n")]
    train = {u for u, role in rows if role == "train"}
    test = {u for u, role in rows if role == "test"}
    assert train == split.overlap_train and test == split.cold_start_test


@given(st.integers(min_value=2, max_value=60), st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_split_size_property(n, frac, seed):
    src, tgt = _two_domains(n_overlap=n)
    split = split_cold_start(src, tgt, frac, seed=seed)
    assert len(split.cold_start_test) == int(math.floor(frac * n + 0.5))
    assert len(split.cold_start_test) + len(split.overlap_train) == n
