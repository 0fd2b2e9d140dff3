"""Interaction ingestion, filtering, splits, and CF training records.

File formats (UTF-8, one record per line, tab separated):

* interactions: ``user_id<TAB>item_id<TAB>timestamp<TAB>rating``
* catalog:      ``item_id<TAB>title<TAB>description``

Item and user ids are opaque strings. Duplicate (user, item, timestamp)
records are kept: re-interactions are legitimate events. The catalog, the
embeddings and the two fixtures are keyed files: they read `keyed_lines`, so
an id given twice in one of them is an error.

`read_text` opens every text file the program reads: these two, the
embeddings, the fixtures, the config and the JSON artifacts. The line-based
ones iterate `text_lines`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DataError, FusionrecError


@dataclass(frozen=True)
class Event:
    user: str
    item: str
    timestamp: int
    rating: float


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
        return {item for user in self.train for item in self.full_sequence(user)}


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


def keyed_lines(path, kind: str, key_fields: int = 1):
    """`text_lines` of a file whose records are keyed by their first
    `key_fields` tab-separated fields. A key given twice is a DataError naming
    it, the file and both line numbers."""
    first_line: dict[tuple[str, ...], int] = {}
    for lineno, line in text_lines(path, kind):
        key = tuple(line.split("\t", key_fields)[:key_fields])
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            shown = key[0] if key_fields == 1 else key
            raise DataError(
                f"id {shown!r} given twice in {kind} {path}, at lines {first} and {lineno}"
            )
        yield lineno, line


def load_catalog(path) -> dict[str, tuple[str, str]]:
    """Parse a catalog file into {item_id: (title, description)}."""
    catalog: dict[str, tuple[str, str]] = {}
    for lineno, line in keyed_lines(path, "catalog file"):
        parts = line.split("\t", 2)
        if len(parts) < 2:
            raise DataError(f"catalog line {lineno}: expected item_id, title[, description]")
        item = parts[0]
        title = parts[1]
        description = parts[2] if len(parts) == 3 else ""
        catalog[item] = (title, description)
    return catalog


def load_interactions(path, catalog_path) -> list[Event]:
    """Load interaction events in file order.

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
    return events


def filter_dataset(
    events: list[Event], min_user_events: int = 5, min_item_popularity: int = 5
) -> list[Event]:
    """Drop unpopular items and sparse users until a fixed point is reached.

    Removing a user lowers item popularity and vice versa, so the two rules
    are iterated until nothing changes; the result is order-independent.
    """
    if min_user_events < 1 or min_item_popularity < 1:
        raise ValueError("thresholds must be >= 1")
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
    return events


def leave_one_out_split(events: list[Event]) -> SplitDataset:
    """Order each user's events by (timestamp, item id); the last item goes to
    test, the second-to-last to validation and the rest to train."""
    per_user: dict[str, list[Event]] = {}
    for ev in events:
        per_user.setdefault(ev.user, []).append(ev)
    train: dict[str, list[str]] = {}
    validation: dict[str, str] = {}
    test: dict[str, str] = {}
    for user in sorted(per_user):
        items = [ev.item for ev in sorted(per_user[user], key=lambda e: (e.timestamp, e.item))]
        if len(items) < 3:
            raise DataError(f"user {user!r} has {len(items)} interactions, need >= 3 to split")
        train[user] = items[:-2]
        validation[user] = items[-2]
        test[user] = items[-1]
    return SplitDataset(train=train, validation=validation, test=test)


def unowned_columns(sequences, position: dict[str, int], width: int):
    """The columns of `range(width)` that no item of a sequence maps to in
    `position` (an item outside it owns none), from one ownership mask over
    all the sequences.

    Returns (columns, starts, counts): sequence b's unowned columns, in
    ascending order, are `columns[starts[b] : starts[b] + counts[b]]`.
    """
    owned_columns = [[position[item] for item in seq if item in position] for seq in sequences]
    owned = np.zeros((len(owned_columns), width), dtype=bool)
    owners = np.repeat(np.arange(len(owned_columns)), [len(cols) for cols in owned_columns])
    owned[owners, np.fromiter(chain.from_iterable(owned_columns), dtype=np.intp,
                              count=len(owners))] = True
    counts = width - np.count_nonzero(owned, axis=1)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.intp)
    return np.nonzero(~owned)[1], starts, counts


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


def partition_cold_warm(events: list[Event], fraction: float = 0.35) -> ColdWarmPartition:
    """Split items into top/bottom frequency bands of floor(fraction*|items|) each."""
    if not 0.0 < fraction <= 0.5:
        raise ValueError("fraction must be in (0, 0.5]")
    freq = Counter(ev.item for ev in events)
    items = sorted(freq, key=lambda q: (-freq[q], q))
    if len(items) < 2:
        raise DataError("need at least 2 distinct items to partition")
    n_band = math.floor(fraction * len(items))
    warm = set(items[:n_band])
    cold = set(items[len(items) - n_band:]) if n_band else set()
    return ColdWarmPartition(cold=cold, warm=warm, frequency={q: freq[q] for q in items})
