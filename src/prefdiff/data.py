"""Two-domain rating data held as numpy columns: loading, overlap
bookkeeping, the cold-start split, chronological interaction histories,
`read_input`, through which the package reads every input file, and
`write_atomic`, through which it writes every output file.

A domain is one row per (user, item) pair, in the order in which each pair
first appears in its file. Histories, training ratings and held-out ratings
are row indices into these columns or tables built from them.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ConfigurationError, DataError, PrefDiffError
from .rng import make_rng

_INT64_MAX = int(np.iinfo(np.int64).max)
RATING_RANGE = (0.0, 5.0)


@dataclass(frozen=True, eq=False)
class DomainData:
    """One domain's users, items and ratings.

    `users`/`items` are ordered by first appearance; index maps are
    bijections onto 0..n-1. Row k is a rating of user `user[k]` for item
    `item[k]` (int64 indices into `users`/`items`), with a float64 `rating`,
    an int64 `timestamp` and the int64 source-file line `position` that
    breaks timestamp ties. Immutable after construction: the columns are
    read-only.
    """
    users: tuple[str, ...]
    items: tuple[str, ...]
    user_index: dict[str, int] = field(repr=False)
    item_index: dict[str, int] = field(repr=False)
    user: np.ndarray = field(repr=False)
    item: np.ndarray = field(repr=False)
    rating: np.ndarray = field(repr=False)
    timestamp: np.ndarray = field(repr=False)
    position: np.ndarray = field(repr=False)

    def __post_init__(self):
        for column in (self.user, self.item, self.rating, self.timestamp, self.position):
            column.flags.writeable = False

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_ratings(self) -> int:
        return len(self.rating)


@dataclass(frozen=True)
class ColdStartSplit:
    """Overlapping users split into training and cold-start test users;
    neither set is empty. Every user is in both domains, so each has at
    least one source rating (a history to encode) and one target rating."""
    overlap_train: frozenset[str]
    cold_start_test: frozenset[str]


def _codes(ids) -> tuple[tuple[str, ...], dict[str, int], np.ndarray]:
    """The distinct ids in first-appearance order, their index map, and the
    int64 index of every id."""
    index = {name: k for k, name in enumerate(dict.fromkeys(ids))}
    return tuple(index), index, np.fromiter(map(index.__getitem__, ids), np.int64,
                                            count=len(ids))


def make_domain(user_ids, item_ids, rating, timestamp, position=None) -> DomainData:
    """A domain from per-row columns, kept in the given row order: user and
    item ids, ratings, timestamps, and source lines (default 1..n)."""
    users, user_index, user = _codes(user_ids)
    items, item_index, item = _codes(item_ids)
    if position is None:
        position = np.arange(1, len(user) + 1)
    return DomainData(users=users, items=items, user_index=user_index,
                      item_index=item_index, user=user, item=item,
                      rating=np.array(rating, dtype=np.float64),
                      timestamp=np.array(timestamp, dtype=np.int64),
                      position=np.array(position, dtype=np.int64))


def _check_line(path, lineno: int, line: str, lo: float, hi: float) -> None:
    """Raise the DataError that names a bad line; a good line passes."""
    parts = line.split("\t")
    if len(parts) != 4:
        raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
    try:
        rating = float(parts[2])
        timestamp = int(parts[3])
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None
    if not math.isfinite(rating) or not lo <= rating <= hi:
        raise DataError(f"{path}:{lineno}: rating {rating} outside [{lo}, {hi}]")
    if timestamp < 0:
        raise DataError(f"{path}:{lineno}: negative timestamp {timestamp}")
    if timestamp > _INT64_MAX:
        raise DataError(f"{path}:{lineno}: timestamp {timestamp} beyond int64")


def _parse_columns(fields: list[str], lo: float, hi: float):
    """The rating and timestamp columns of four-field lines, or None if any
    line fails a check of `_check_line`."""
    try:
        rating = np.fromiter(map(float, fields[2::4]), np.float64, count=len(fields) // 4)
        timestamp = np.fromiter(map(int, fields[3::4]), np.int64, count=len(fields) // 4)
    except (ValueError, OverflowError):
        return None
    if np.all(np.isfinite(rating) & (rating >= lo) & (rating <= hi)) \
            and np.all(timestamp >= 0):
        return rating, timestamp
    return None


def load_ratings(path) -> DomainData:
    """Parse a ratings TSV (`user \\t item \\t rating \\t timestamp`).

    Blank lines are skipped. Ratings lie in `RATING_RANGE`; timestamps are
    non-negative and fit in int64. Duplicate (user, item) pairs keep the
    latest-timestamp line, ties the later line, at the row of the pair's
    first line. A bad line raises a DataError that names the first one; a
    path that `read_input` refuses raises one that names the path.
    """
    lo, hi = RATING_RANGE
    lines = read_input(path, DataError).split("\n")
    lineno = np.flatnonzero(np.fromiter(map(len, lines), np.int64, count=len(lines))) + 1
    lines = list(filter(None, lines))
    if not lines:
        return make_domain([], [], [], [])
    fields = "\t".join(lines).split("\t")
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, count=len(lines))
    columns = _parse_columns(fields, lo, hi) if np.all(tabs == 3) else None
    if columns is None:
        for k, line in zip(lineno.tolist(), lines):
            _check_line(path, k, line, lo, hi)
        raise AssertionError(f"{path}: the bulk check failed on lines that pass alone")
    rating, timestamp = columns
    users, user_index, user = _codes(fields[0::4])
    items, item_index, item = _codes(fields[1::4])
    # per pair, the last line of the latest timestamp, at the pair's first row
    pair = user * len(items) + item
    order = np.lexsort((timestamp, pair))
    new_pair = np.flatnonzero(np.diff(pair[order])) + 1
    winners = order[np.append(new_pair - 1, len(order) - 1)]
    first_rows = np.minimum.reduceat(order, np.insert(new_pair, 0, 0))
    keep = winners[np.argsort(first_rows)]
    return DomainData(users=users, items=items, user_index=user_index,
                      item_index=item_index, user=user[keep], item=item[keep],
                      rating=rating[keep], timestamp=timestamp[keep],
                      position=lineno[keep])


def overlapping_users(source: DomainData, target: DomainData) -> list[str]:
    """Users present in both domains, in source-domain order."""
    tgt = set(target.users)
    return [u for u in source.users if u in tgt]


def split_cold_start(source: DomainData, target: DomainData,
                     fraction: float, seed: int) -> ColdStartSplit:
    """Hold out `round(fraction * |overlap|)` overlapping users as cold-start
    test users; the rest train. Deterministic given the seed. A split that
    would leave either side empty raises a DataError."""
    overlap = sorted(overlapping_users(source, target))
    if not overlap:
        raise DataError("no overlapping users between the two domains")
    n = len(overlap)
    n_test = int(math.floor(fraction * n + 0.5))
    if not 1 <= n_test <= n - 1:
        raise DataError(f"fraction {fraction} holds out {n_test} of {n} overlapping "
                        f"users; a split needs 1..{n - 1} test users")
    rng = make_rng(seed, 0x5711)
    perm = rng.permutation(n)
    test = frozenset(overlap[i] for i in perm[:n_test])
    train = frozenset(u for u in overlap if u not in test)
    return ColdStartSplit(overlap_train=train, cold_start_test=test)


def build_histories(source: DomainData, users, max_len: int):
    """Chronological histories, truncated to the latest `max_len` items, of
    many users at once.

    Returns `(table, lengths, row_of)`: a zero-padded (n, max_len) int64
    table of source item indices, oldest first, the int64 history lengths,
    and the table row of each user id. Rows follow the order of `users`,
    distinct users with source ratings, as those of a `ColdStartSplit`.
    Ties in timestamp go by file line.
    """
    row_of = {u: k for k, u in enumerate(users)}
    slot = np.full(source.n_users, -1, dtype=np.int64)
    slot[np.fromiter(map(source.user_index.__getitem__, row_of), np.int64,
                     count=len(row_of))] = np.arange(len(row_of))
    row = slot[source.user]
    picked = np.flatnonzero(row >= 0)
    order = picked[np.lexsort((source.position[picked], source.timestamp[picked],
                               row[picked]))]
    row = row[order]
    counts = np.bincount(row, minlength=len(row_of))
    lengths = np.minimum(counts, max_len)
    # column of each rating in its user's table row; the oldest fall off
    col = np.arange(len(order)) - (np.cumsum(counts) - lengths)[row]
    kept = col >= 0
    table = np.zeros((len(row_of), max_len), dtype=np.int64)
    table[row[kept], col[kept]] = source.item[order[kept]]
    return table, lengths, row_of


def _rows_of(domain: DomainData, users) -> np.ndarray:
    """Row indices, in row order, of the ratings of the given users."""
    member = np.zeros(domain.n_users, dtype=bool)
    member[[domain.user_index[u] for u in users]] = True
    return np.flatnonzero(member[domain.user])


def training_ratings(target: DomainData, split: ColdStartSplit) -> np.ndarray:
    """Rows of the target-domain ratings visible to training: those of
    overlap-train users only, never a cold-start test user's."""
    return _rows_of(target, split.overlap_train)


def held_out_ratings(target: DomainData, split: ColdStartSplit) -> np.ndarray:
    """Rows of the target-domain ratings of cold-start test users
    (evaluation only)."""
    return _rows_of(target, split.cold_start_test)


def read_input(path, error: type[PrefDiffError], binary: bool = False) -> str | bytes:
    """The whole file at `path`: UTF-8 text with universal newlines (so
    `\\r\\n` reads as `\\n`), or its bytes when `binary`. A path that cannot
    be read, or text that is not UTF-8, raises `error` naming the path."""
    try:
        with open(path, "rb") if binary else open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}") from exc
    except OSError as exc:
        raise error(f"cannot read {str(path)!r}: {exc.strerror}") from exc


def write_atomic(path, data: str | bytes) -> None:
    """Write `data` (text as UTF-8) to a temporary file next to `path`, then
    `os.replace` it onto `path`: a reader sees the old file or the whole new
    one. A failed write removes the temporary file, leaves `path` as it
    was and raises ConfigurationError naming `path`: an output path is the
    run's input. There is no fsync, so this guards against a failed or
    killed process, not against power loss."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc.strerror}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_split_manifest(split: ColdStartSplit, path) -> None:
    write_atomic(path, "".join([f"{u}\ttrain\n" for u in sorted(split.overlap_train)]
                               + [f"{u}\ttest\n" for u in sorted(split.cold_start_test)]))


def user_universe(source: DomainData, target: DomainData) -> dict[str, int]:
    """Global user index over both domains: source order first, then users
    seen only in the target domain. Shared by training and evaluation."""
    universe: dict[str, int] = {}
    for u in source.users:
        universe.setdefault(u, len(universe))
    for u in target.users:
        universe.setdefault(u, len(universe))
    return universe

