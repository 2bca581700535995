"""Two-domain rating data: loading, overlap bookkeeping, cold-start split,
and chronological interaction histories.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .errors import DataError
from .rng import make_rng

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RatingRecord:
    user_id: str
    item_id: str
    rating: float
    timestamp: int
    position: int = 0  # line order in the source file, used for tie-breaks


@dataclass(frozen=True)
class DomainData:
    """One domain's users, items, and rating records.

    `users`/`items` are ordered by first appearance; index maps are
    bijections onto 0..n-1. Immutable after construction.
    """
    users: tuple[str, ...]
    items: tuple[str, ...]
    records: tuple[RatingRecord, ...]
    user_index: dict[str, int] = field(repr=False)
    item_index: dict[str, int] = field(repr=False)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class ColdStartSplit:
    overlap_train: frozenset[str]
    cold_start_test: frozenset[str]
    fraction: float
    seed: int


@dataclass(frozen=True)
class History:
    user_id: str
    item_indices: tuple[int, ...]
    max_len: int


def make_domain(records: list[RatingRecord]) -> DomainData:
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    for r in records:
        users.setdefault(r.user_id, len(users))
        items.setdefault(r.item_id, len(items))
    return DomainData(
        users=tuple(users), items=tuple(items), records=tuple(records),
        user_index=users, item_index=items,
    )


def load_ratings(path, rating_range: tuple[float, float] = (0.0, 5.0)) -> DomainData:
    """Parse a ratings TSV (`user \\t item \\t rating \\t timestamp`).

    Duplicate (user, item) pairs keep the latest-timestamp record; ties keep
    the later line.
    """
    lo, hi = rating_range
    kept: dict[tuple[str, str], RatingRecord] = {}
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
            rec = RatingRecord(user_id, item_id, rating, timestamp, position=lineno)
            key = (user_id, item_id)
            prev = kept.get(key)
            if prev is None or rec.timestamp >= prev.timestamp:
                kept[key] = rec
    return make_domain(list(kept.values()))


def overlapping_users(source: DomainData, target: DomainData) -> list[str]:
    """Users present in both domains, in source-domain order."""
    tgt = set(target.users)
    return [u for u in source.users if u in tgt]


def split_cold_start(source: DomainData, target: DomainData,
                     fraction: float, seed: int) -> ColdStartSplit:
    """Hold out `round(fraction * |overlap|)` overlapping users as cold-start
    test users; the rest train. Deterministic given the seed."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    overlap = sorted(overlapping_users(source, target))
    if not overlap:
        raise DataError("no overlapping users between the two domains")
    n_test = int(math.floor(fraction * len(overlap) + 0.5))
    rng = make_rng(seed, 0x5711)
    perm = rng.permutation(len(overlap))
    test = frozenset(overlap[i] for i in perm[:n_test])
    train = frozenset(u for u in overlap if u not in test)
    return ColdStartSplit(overlap_train=train, cold_start_test=test,
                          fraction=fraction, seed=seed)


def build_histories(source: DomainData, users, max_len: int) -> dict[str, History]:
    """Chronological, truncated histories for many users in one pass over the
    records. Users with no interactions are omitted."""
    wanted = set(users)
    grouped: dict[str, list[RatingRecord]] = {}
    for r in source.records:
        if r.user_id in wanted:
            grouped.setdefault(r.user_id, []).append(r)
    out: dict[str, History] = {}
    for u, recs in grouped.items():
        recs.sort(key=lambda r: (r.timestamp, r.position))
        recs = recs[-max_len:]
        out[u] = History(
            user_id=u,
            item_indices=tuple(source.item_index[r.item_id] for r in recs),
            max_len=max_len,
        )
    return out


def training_ratings(target: DomainData, split: ColdStartSplit) -> list[RatingRecord]:
    """Target-domain records visible to training: those of overlap-train
    users only, never a cold-start test user's."""
    return [r for r in target.records if r.user_id in split.overlap_train]


def held_out_ratings(target: DomainData, split: ColdStartSplit) -> list[RatingRecord]:
    """Target-domain records of cold-start test users (evaluation only)."""
    return [r for r in target.records if r.user_id in split.cold_start_test]


def write_split_manifest(split: ColdStartSplit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u in sorted(split.overlap_train):
            fh.write(f"{u}\ttrain\n")
        for u in sorted(split.cold_start_test):
            fh.write(f"{u}\ttest\n")


def user_universe(source: DomainData, target: DomainData) -> dict[str, int]:
    """Global user index over both domains: source order first, then users
    seen only in the target domain. Shared by training and evaluation."""
    universe: dict[str, int] = {}
    for u in source.users:
        universe.setdefault(u, len(universe))
    for u in target.users:
        universe.setdefault(u, len(universe))
    return universe


def users_with_history(domain: DomainData, users) -> list[str]:
    """Filter to users with at least one source interaction; logs the count
    of excluded users (the encoder is undefined on empty input)."""
    have = {r.user_id for r in domain.records}
    users = list(users)
    kept = [u for u in users if u in have]
    dropped = len(users) - len(kept)
    if dropped:
        logger.info("excluded %d users with empty source history", dropped)
    return kept
