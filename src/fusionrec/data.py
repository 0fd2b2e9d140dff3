"""Interaction ingestion, filtering, sequence building, splits, and CF training records.

File formats (UTF-8, one record per line, tab separated):

* interactions: ``user_id<TAB>item_id<TAB>timestamp<TAB>rating``
* catalog:      ``item_id<TAB>title<TAB>description``

Item and user ids are opaque strings. Duplicate (user, item, timestamp)
records are kept: re-interactions are legitimate events.

`read_text` opens every text file the program reads: these two, the
embeddings, the fixtures, the config and the JSON artifacts. The line-based
ones iterate `text_lines`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError, FusionrecError


@dataclass(frozen=True)
class Event:
    user: str
    item: str
    timestamp: int
    rating: float


@dataclass
class InteractionLog:
    users: set[str]
    items: set[str]
    events: list[Event]
    catalog: dict[str, tuple[str, str]]  # item id -> (title, description)

    def item_frequency(self) -> Counter:
        return Counter(ev.item for ev in self.events)


@dataclass
class UserSequence:
    user: str
    items: list[str]


@dataclass
class SplitDataset:
    train: dict[str, list[str]]
    validation: dict[str, str]
    test: dict[str, str]

    def full_sequence(self, user: str) -> list[str]:
        return self.train[user] + [self.validation[user], self.test[user]]

    def users(self) -> list[str]:
        return sorted(self.train)

    def item_universe(self) -> set[str]:
        items: set[str] = set()
        for user in self.train:
            items.update(self.train[user])
            items.add(self.validation[user])
            items.add(self.test[user])
        return items


@dataclass(frozen=True)
class TrainingSequence:
    """One user's train region as next-item pairs: ``targets[t]`` follows ``history[: t + 1]``."""

    user: str
    history: tuple[str, ...]
    targets: tuple[str, ...]


@dataclass
class ColdWarmPartition:
    cold: set[str]
    warm: set[str]
    frequency: dict[str, int] = field(repr=False, default_factory=dict)


def read_text(path, kind: str, error: type[FusionrecError] = DataError) -> str:
    """The whole file at `path` decoded as UTF-8; a file that cannot be opened
    or decoded raises `error` naming `kind` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's strerror leaves out the path, which the message already names
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {kind} {path}: {reason}") from None


def text_lines(path, kind: str, error: type[FusionrecError] = DataError):
    """Yield (line number, line) for each non-empty line of `read_text`, newline removed."""
    for lineno, line in enumerate(read_text(path, kind, error).split("\n"), start=1):
        if line:
            yield lineno, line


def load_catalog(path) -> dict[str, tuple[str, str]]:
    """Parse a catalog file into {item_id: (title, description)}."""
    catalog: dict[str, tuple[str, str]] = {}
    for lineno, line in text_lines(path, "catalog file"):
        parts = line.split("\t", 2)
        if len(parts) < 2:
            raise DataError(f"catalog line {lineno}: expected item_id, title[, description]")
        item = parts[0]
        title = parts[1]
        description = parts[2] if len(parts) == 3 else ""
        catalog[item] = (title, description)
    return catalog


def load_interactions(path, catalog_path) -> InteractionLog:
    """Load interaction events plus the item catalog.

    Every event's item must have a catalog entry; a reference to an
    uncataloged item is a data error (not silently dropped).
    """
    catalog = load_catalog(catalog_path)
    events: list[Event] = []
    for lineno, line in text_lines(path, "interactions file"):
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(
                f"interactions line {lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        user, item, ts_raw, rating_raw = (p.strip() for p in parts)
        try:
            timestamp = int(ts_raw)
            rating = float(rating_raw)
        except ValueError as exc:
            raise DataError(f"interactions line {lineno}: {exc}") from exc
        if item not in catalog:
            raise DataError(f"interactions line {lineno}: item {item!r} has no catalog entry")
        events.append(Event(user, item, timestamp, rating))
    users = {ev.user for ev in events}
    items = {ev.item for ev in events}
    return InteractionLog(users=users, items=items, events=events, catalog=catalog)


def filter_dataset(
    log: InteractionLog, min_user_events: int = 5, min_item_popularity: int = 5
) -> InteractionLog:
    """Drop unpopular items and sparse users until a fixed point is reached.

    Removing a user lowers item popularity and vice versa, so the two rules
    are iterated until nothing changes; the result is order-independent.
    """
    if min_user_events < 1 or min_item_popularity < 1:
        raise ValueError("thresholds must be >= 1")
    events = list(log.events)
    while True:
        item_counts = Counter(ev.item for ev in events)
        kept = [ev for ev in events if item_counts[ev.item] >= min_item_popularity]
        user_counts = Counter(ev.user for ev in kept)
        kept = [ev for ev in kept if user_counts[ev.user] >= min_user_events]
        if len(kept) == len(events):
            break
        events = kept
    if not events:
        raise DataError("filtering removed every event")
    users = {ev.user for ev in events}
    items = {ev.item for ev in events}
    return InteractionLog(users=users, items=items, events=events, catalog=dict(log.catalog))


def build_sequences(log: InteractionLog) -> dict[str, UserSequence]:
    """Order each user's events by (timestamp, item id) into a sequence."""
    per_user: dict[str, list[Event]] = {}
    for ev in log.events:
        per_user.setdefault(ev.user, []).append(ev)
    sequences: dict[str, UserSequence] = {}
    for user, evs in per_user.items():
        evs.sort(key=lambda e: (e.timestamp, e.item))
        sequences[user] = UserSequence(user=user, items=[e.item for e in evs])
    return sequences


def leave_one_out_split(sequences: dict[str, UserSequence]) -> SplitDataset:
    """Last interaction to test, second-to-last to validation, rest to train."""
    train: dict[str, list[str]] = {}
    validation: dict[str, str] = {}
    test: dict[str, str] = {}
    for user in sorted(sequences):
        items = sequences[user].items
        if len(items) < 3:
            raise DataError(f"user {user!r} has {len(items)} interactions, need >= 3 to split")
        train[user] = list(items[:-2])
        validation[user] = items[-2]
        test[user] = items[-1]
    return SplitDataset(train=train, validation=validation, test=test)


def build_training_instances(split: SplitDataset, max_history: int) -> list[TrainingSequence]:
    """One TrainingSequence per user with at least two train items.

    ``history`` is ``train[:-1]`` and ``targets`` is ``train[1:]``, both cut to
    the most recent ``max_history`` positions. Validation and test items
    appear in no record, so they stay outside the CF vocabulary unless some
    train sequence holds them.
    """
    if max_history < 1:
        raise ValueError("max_history must be >= 1")
    records: list[TrainingSequence] = []
    for user in split.users():
        train = split.train[user]
        if len(train) < 2:
            continue
        records.append(
            TrainingSequence(
                user=user,
                history=tuple(train[:-1][-max_history:]),
                targets=tuple(train[1:][-max_history:]),
            )
        )
    return records


def partition_cold_warm(log: InteractionLog, fraction: float = 0.35) -> ColdWarmPartition:
    """Split items into top/bottom frequency bands of floor(fraction*|items|) each."""
    if not 0.0 < fraction <= 0.5:
        raise ValueError("fraction must be in (0, 0.5]")
    freq = log.item_frequency()
    items = sorted(log.items, key=lambda q: (-freq[q], q))
    if len(items) < 2:
        raise DataError("need at least 2 distinct items to partition")
    n_band = math.floor(fraction * len(items))
    warm = set(items[:n_band])
    cold = set(items[len(items) - n_band:]) if n_band else set()
    return ColdWarmPartition(cold=cold, warm=warm, frequency={q: freq[q] for q in items})
