"""Rating ingestion, cold-start split, history construction, and the
atomic writer."""
import errno
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prefdiff.data import (build_histories,
                           held_out_ratings, load_ratings, make_domain,
                           overlapping_users, split_cold_start,
                           training_ratings, user_universe, write_atomic,
                           write_split_manifest)
from prefdiff.errors import ConfigurationError, DataError
from prefdiff.trainer import build_examples


def write_tsv(path, rows):
    path.write_text("".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows))


def _domain(rows, position=None):
    """A domain from (user, item, rating, timestamp) rows, in row order."""
    users, items, ratings, timestamps = (list(col) for col in zip(*rows))
    return make_domain(users, items, ratings, timestamps, position)


def _history(d, users, max_len, user):
    """One user's history as a tuple, through the bulk builder."""
    table, lengths, row_of = build_histories(d, users, max_len)
    row = row_of[user]
    return tuple(table[row, :lengths[row]].tolist())


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
    assert d.n_ratings == 1
    assert d.rating[0] == 4.0
    assert d.timestamp[0] == 9 and d.position[0] == 2


def test_load_dedupe_tie_keeps_later_line(tmp_path):
    p = tmp_path / "d.tsv"
    write_tsv(p, [("u1", "a", 1.0, 5), ("u1", "a", 3.0, 5)])
    d = load_ratings(p)
    assert d.rating.tolist() == [3.0] and d.position.tolist() == [2]


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
    src = [(f"u{k}", "s0", 3.0, k) for k in range(n_overlap + n_src_only)]
    tgt = [(f"u{k}", "t0", 3.0, k) for k in range(n_overlap)]
    tgt += [(f"v{k}", "t0", 3.0, k) for k in range(n_tgt_only)]
    return _domain(src), _domain(tgt)


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
    rows = np.arange(src1.n_ratings)[::-1]
    src2 = make_domain([src1.users[u] for u in src1.user[rows]],
                       [src1.items[i] for i in src1.item[rows]],
                       src1.rating[rows], src1.timestamp[rows], src1.position[rows])
    assert src2.users == src1.users[::-1]
    a = split_cold_start(src1, tgt, 0.2, seed=9)
    b = split_cold_start(src2, tgt, 0.2, seed=9)
    assert a.cold_start_test == b.cold_start_test


def test_split_validation():
    src, tgt = _two_domains()
    with pytest.raises(DataError):
        split_cold_start(src, tgt, 0.0, seed=1)
    with pytest.raises(DataError):
        split_cold_start(src, tgt, 1.0, seed=1)
    empty = _domain([("zz", "x", 3.0, 1)])
    with pytest.raises(DataError, match="no overlapping"):
        split_cold_start(src, empty, 0.2, seed=1)


def test_history_chronological_and_truncated():
    d = _domain([("u", "c", 3.0, 30), ("u", "a", 3.0, 10),
                 ("u", "b", 3.0, 20), ("u", "d", 3.0, 40)], position=[1, 2, 3, 4])
    table, lengths, row_of = build_histories(d, ["u"], max_len=3)
    # chronological order b, c, d after dropping the oldest
    assert table.tolist() == [[d.item_index["b"], d.item_index["c"], d.item_index["d"]]]
    assert lengths.tolist() == [3] and row_of == {"u": 0}


def test_history_timestamp_ties_keep_file_order():
    d = _domain([("u", "a", 3.0, 10), ("u", "b", 3.0, 10)], position=[1, 2])
    assert _history(d, ["u"], 5, "u") == (0, 1)
    # the later file line comes later, whatever the row order
    d = _domain([("u", "a", 3.0, 10), ("u", "b", 3.0, 10)], position=[2, 1])
    assert _history(d, ["u"], 5, "u") == (1, 0)


def test_history_empty_user_raises():
    # a split holds only users with source interactions, and refuses data
    # where every user lacks one, so no empty history reaches the encoder
    d = _domain([("u", "a", 3.0, 1)])
    table, lengths, row_of = build_histories(d, ["u"], max_len=5)
    assert row_of == {"u": 0}
    # the table is zero-padded past the history's one item
    assert table.tolist() == [[0, 0, 0, 0, 0]] and lengths.tolist() == [1]
    with pytest.raises(DataError, match="no overlapping users"):
        split_cold_start(d, _domain([("ghost", "t", 3.0, 1)]), 0.5, seed=0)


def test_build_histories_matches_single():
    d = _domain([(f"u{k % 3}", f"i{k}", 3.0, k) for k in range(20)])
    for u in ("u0", "u1", "u2"):
        assert _history(d, ["u0", "u1", "u2"], 4, u) == _history(d, [u], 4, u)


def test_training_ratings_excludes_test_users():
    src, tgt = _two_domains(n_overlap=40)
    split = split_cold_start(src, tgt, 0.25, seed=5)
    rows = training_ratings(tgt, split)
    assert rows.dtype == np.int64 and np.all(np.diff(rows) > 0)
    users_seen = {tgt.users[u] for u in tgt.user[rows]}
    assert users_seen == split.overlap_train
    assert not users_seen & split.cold_start_test


def test_held_out_ratings_are_test_only():
    src, tgt = _two_domains(n_overlap=40)
    split = split_cold_start(src, tgt, 0.25, seed=5)
    rows = held_out_ratings(tgt, split)
    assert {tgt.users[u] for u in tgt.user[rows]} == split.cold_start_test
    assert len(rows) + len(training_ratings(tgt, split)) == 40


def test_user_universe_order_and_coverage():
    src, tgt = _two_domains(n_overlap=3, n_src_only=2, n_tgt_only=2)
    uni = user_universe(src, tgt)
    assert list(uni) == ["u0", "u1", "u2", "u3", "u4", "v0", "v1"]
    assert sorted(uni.values()) == list(range(7))


def test_split_manifest_round_trip(tmp_path):
    src, tgt = _two_domains(n_overlap=12)
    split = split_cold_start(src, tgt, 0.25, seed=2)
    p = tmp_path / "split.tsv"
    write_split_manifest(split, p)
    rows = [line.split("\t") for line in p.read_text().strip().split("\n")]
    train = {u for u, role in rows if role == "train"}
    test = {u for u, role in rows if role == "test"}
    assert train == split.overlap_train and test == split.cold_start_test


def test_write_atomic_replaces_the_whole_file(tmp_path):
    p = tmp_path / "out.tsv"
    write_atomic(p, "a\tb\n")
    assert p.read_bytes() == b"a\tb\n"
    write_atomic(p, b"\x00\xff")
    assert p.read_bytes() == b"\x00\xff"
    assert os.listdir(tmp_path) == ["out.tsv"]


def test_write_atomic_failure_keeps_the_old_file(tmp_path, monkeypatch):
    p = tmp_path / "out.tsv"
    p.write_bytes(b"old\n")

    def refuse(src, dst):
        raise OSError(errno.EPERM, "replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(ConfigurationError, match=re.escape(f"cannot write '{p}': replace refused")):
        write_atomic(p, "new\n")
    assert p.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.tsv"]


@given(st.integers(min_value=2, max_value=60), st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_split_size_property(n, frac, seed):
    src, tgt = _two_domains(n_overlap=n)
    n_test = int(math.floor(frac * n + 0.5))
    if not 1 <= n_test <= n - 1:
        # a split that holds out no one, or everyone, is refused up front
        with pytest.raises(DataError, match=f"holds out {n_test} of {n} overlapping users"):
            split_cold_start(src, tgt, frac, seed=seed)
        return
    split = split_cold_start(src, tgt, frac, seed=seed)
    assert len(split.cold_start_test) == n_test
    assert len(split.cold_start_test) + len(split.overlap_train) == n


@given(st.lists(st.tuples(st.integers(0, 11), st.sampled_from("st"), st.integers(0, 5)),
                min_size=1, max_size=80),
       st.floats(min_value=0.05, max_value=0.95), st.integers(0, 2**31 - 1),
       st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_split_users_are_in_both_domains(ratings, frac, seed, max_len):
    # users rate in the source ("s"), the target ("t") or both, beside a
    # source-only and a target-only user; a split holds only users with
    # ratings on both sides, and neither side is empty, so training and
    # evaluation need no filter of their own, and every history they
    # encode holds 1..max_history_len items
    rows = {side: [(f"u{u}", f"i{i}", 3.0, k) for k, (u, s, i) in enumerate(ratings) if s == side]
            for side in "st"}
    src = _domain(rows["s"] + [("src_only", "i0", 3.0, 0)])
    tgt = _domain(rows["t"] + [("tgt_only", "i0", 3.0, 0)])
    try:
        split = split_cold_start(src, tgt, frac, seed=seed)
    except DataError:
        n = len(overlapping_users(src, tgt))
        assert n == 0 or not 1 <= int(math.floor(frac * n + 0.5)) <= n - 1
        return
    assert split.overlap_train and split.cold_start_test
    for u in split.overlap_train | split.cold_start_test:
        assert u in src.user_index and u in tgt.user_index
    examples = build_examples(src, tgt, split, user_universe(src, tgt), max_len)
    assert len(examples.user) and np.all(examples.history_row >= 0)
    assert np.all((1 <= examples.lengths) & (examples.lengths <= max_len))
    # evaluate reads test user k's history at row k
    test_users = sorted(split.cold_start_test)
    _, lengths, row_of = build_histories(src, test_users, max_len)
    assert row_of == {u: k for k, u in enumerate(test_users)}
    assert np.all((1 <= lengths) & (lengths <= max_len))


def test_load_columns(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("u1\ta\t4.0\t10\n\nu2\tb\t2.5\t11\nu1\tb\t5.0\t9\n")
    d = load_ratings(p)
    assert d.user.tolist() == [0, 1, 0] and d.item.tolist() == [0, 1, 1]
    assert d.rating.tolist() == [4.0, 2.5, 5.0]
    assert d.timestamp.tolist() == [10, 11, 9]
    assert d.position.tolist() == [1, 3, 4]    # file lines; line 2 is blank
    assert [c.dtype for c in (d.user, d.item, d.timestamp, d.position)] == [np.int64] * 4
    assert d.rating.dtype == np.float64 and d.n_ratings == 3
    with pytest.raises(ValueError):
        d.rating[0] = 1.0    # the columns are read-only


def test_load_dedupe_keeps_the_pairs_first_row(tmp_path):
    # the winner of (u1, a) is line 4, but the pair first appears on line 1
    p = tmp_path / "d.tsv"
    write_tsv(p, [("u1", "a", 1.0, 5), ("u2", "b", 2.0, 1), ("u1", "c", 3.0, 2),
                  ("u1", "a", 4.0, 6), ("u1", "a", 0.5, 6), ("u1", "a", 2.0, 3)])
    d = load_ratings(p)
    assert d.item.tolist() == [0, 1, 2]
    assert d.rating.tolist() == [0.5, 2.0, 3.0]
    assert d.position.tolist() == [5, 2, 3]


def test_load_empty_file(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("\n\n")
    d = load_ratings(p)
    assert d.n_users == d.n_items == d.n_ratings == 0
    assert d.user.dtype == np.int64 and d.rating.dtype == np.float64


@pytest.mark.parametrize("timestamp", [2**63, 10**30])
def test_load_rejects_timestamp_beyond_int64(tmp_path, timestamp):
    p = tmp_path / "d.tsv"
    p.write_text(f"u0\tz\t3.0\t{2**63 - 1}\n\nu1\ta\t4.0\t{timestamp}\n")
    with pytest.raises(DataError) as exc:
        load_ratings(p)
    assert str(exc.value) == f"{p}:3: timestamp {timestamp} beyond int64"
    # the largest int64 loads exactly
    p.write_text(f"u0\tz\t3.0\t{2**63 - 1}\n")
    assert load_ratings(p).timestamp.tolist() == [2**63 - 1]


def test_load_reports_the_first_bad_line(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("u0\tz\t3.0\t1\nu1\ta\t4.0\t-1\nu1\ta\tnope\t5\nu1\ta\n")
    with pytest.raises(DataError, match=f"^{p}:2: negative timestamp -1$"):
        load_ratings(p)


def _load_per_line(path, rating_range=(0.0, 5.0)):
    """The loader as first written, one record per line: the reference for
    `load_ratings`. Returns (user, item) -> (rating, timestamp, line)."""
    lo, hi = rating_range
    kept = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
            user_id, item_id, rating_s, ts_s = parts
            try:
                rating = float(rating_s)
                timestamp = int(ts_s)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(rating) or not lo <= rating <= hi:
                raise DataError(f"{path}:{lineno}: rating {rating} outside [{lo}, {hi}]")
            if timestamp < 0:
                raise DataError(f"{path}:{lineno}: negative timestamp {timestamp}")
            prev = kept.get((user_id, item_id))
            if prev is None or timestamp >= prev[1]:
                kept[(user_id, item_id)] = (rating, timestamp, lineno)
    return kept


BAD_LINES = ["u1\ta\t4.0", "u1\ta\t4.0\t5\tx", "u1\ta\tnope\t5", "u1\ta\t9.5\t5",
             "u1\ta\tnan\t5", "u1\ta\t-inf\t5", "u1\ta\t-0.5\t1", "u1\ta\t4.0\t-3",
             "u1\ta\t4.0\t5.0", "u1\ta\t4.0\t", "u1\ta\t\t3", " ", "u1 a 4.0 5",
             f"u1\ta\t4.0\t-{2**64}"]
row_lines = st.builds(
    lambda u, i, r, t: f"{u}\t{i}\t{r}\t{t}",
    st.sampled_from(["u0", "u1", "ü2", "u 3"]), st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["0", "2.5", "5.0", "4", "3e0", " 1.5", "5", "0.0"]),
    st.sampled_from(["0", "1", "2", "3", "+2", " 1", str(2**63 - 1)]))


@given(lines=st.lists(st.one_of(row_lines, row_lines, st.just("")), max_size=30),
       bad=st.none() | st.tuples(st.integers(min_value=0), st.sampled_from(BAD_LINES)),
       newline=st.sampled_from(["\n", "\r\n"]), trailing=st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_matches_per_line_loader(tmp_path, lines, bad, newline, trailing):
    # duplicate pairs and timestamp ties are common with so few ids
    if bad is not None:
        at, line = bad
        lines = lines[:at % (len(lines) + 1)] + [line] + lines[at % (len(lines) + 1):]
    p = tmp_path / "d.tsv"
    p.write_bytes((newline.join(lines) + (newline if trailing else "")).encode("utf-8"))
    try:
        want = _load_per_line(p)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_ratings(p)
        assert str(got.value) == str(exc)
        return
    d = load_ratings(p)
    users = tuple(dict.fromkeys(u for u, _ in want))
    items = tuple(dict.fromkeys(i for _, i in want))
    assert d.users == users and d.items == items
    assert d.user_index == {u: k for k, u in enumerate(users)}
    assert d.item_index == {i: k for k, i in enumerate(items)}
    assert d.user.tolist() == [d.user_index[u] for u, _ in want]
    assert d.item.tolist() == [d.item_index[i] for _, i in want]
    assert d.rating.tolist() == [r for r, _, _ in want.values()]
    assert d.timestamp.tolist() == [t for _, t, _ in want.values()]
    assert d.position.tolist() == [k for _, _, k in want.values()]


@given(rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 3)),
                     min_size=1, max_size=40),
       data=st.data(), max_len=st.integers(1, 6), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_build_histories_matches_per_user_sort(rows, data, max_len, seed):
    position = np.random.default_rng(seed).permutation(len(rows)) + 1
    d = _domain([(f"u{u}", f"i{i}", 3.0, t) for u, i, t in rows], position=position)
    # distinct users with ratings, as a split gives
    users = data.draw(st.lists(st.sampled_from(d.users), unique=True))
    table, lengths, row_of = build_histories(d, users, max_len)
    assert list(row_of) == users and list(row_of.values()) == list(range(len(users)))
    assert table.shape == (len(users), max_len) and table.dtype == np.int64
    for u, row in row_of.items():
        mine = [k for k in range(d.n_ratings) if d.users[d.user[k]] == u]
        mine.sort(key=lambda k: (d.timestamp[k], d.position[k]))
        want = [int(d.item[k]) for k in mine[-max_len:]]
        assert lengths[row] == len(want)
        assert table[row].tolist() == want + [0] * (max_len - len(want))
