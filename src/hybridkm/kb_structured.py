"""Structured knowledge operations: querying the entry database with a
belief state and encoding the result as a one-hot match vector.

The match vector buckets the number of matching entries into
{0, 1, 2-3, >=4} (one-hot) and appends a booking-availability bit, giving
five bits for the default bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .belief import DONTCARE, ExtendedBeliefState, normalize_text
from .corpus import Database, DbEntry
from .errors import UnknownDomainError

#: Upper bucket edges: count <= 0, <= 1, <= 3, else the overflow bucket.
DEFAULT_BUCKET_BOUNDS: tuple[int, ...] = (0, 1, 3)


@dataclass(frozen=True)
class MatchResult:
    domain: str
    entries: tuple[DbEntry, ...]
    booking_available: bool

    @property
    def count(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MatchVector:
    """One-hot bucket encoding of a match count plus a booking bit."""

    bits: tuple[int, ...]
    bucket: int


def _entry_matches(entry: DbEntry, constraints: dict[str, str]) -> bool:
    for slot, value in constraints.items():
        if value == DONTCARE:
            continue
        have = entry.slots.get(slot)
        if have is None or normalize_text(have) != value:
            return False
    return True


def query(db: Database, state: ExtendedBeliefState, domain: str) -> MatchResult:
    """Entries of ``domain`` matching the state's constraints for that domain.

    Only non-ruk triples of the requested domain constrain the query; a
    value of "dontcare" matches every entry, while any other value must
    equal the entry's slot value after text normalization.  Entries that
    lack a constrained slot never match.
    """
    if domain not in db.tables:
        raise UnknownDomainError(f"domain {domain!r} not in database")
    constraints = {
        t.slot: normalize_text(t.value)
        for t in state.non_ruk_triples
        if t.domain == domain
    }
    entries = tuple(e for e in db.tables[domain] if _entry_matches(e, constraints))
    booking = any(e.bookable for e in entries)
    return MatchResult(domain=domain, entries=entries, booking_available=booking)


def encode_match(
    count: int | MatchResult,
    booking_available: bool | None = None,
    bounds: Sequence[int] = DEFAULT_BUCKET_BOUNDS,
) -> MatchVector:
    """One-hot vector over count buckets delimited by ``bounds`` plus one
    trailing booking bit.

    With the default bounds (0, 1, 3) the buckets are 0, 1, 2-3 and >=4.
    Accepts either a raw count with an explicit booking flag or a
    MatchResult carrying both.
    """
    if isinstance(count, MatchResult):
        if booking_available is not None:
            raise ValueError("booking_available is taken from the MatchResult")
        booking = count.booking_available
        n = count.count
    else:
        if booking_available is None:
            raise ValueError("booking_available is required with a raw count")
        booking = booking_available
        n = count
    if n < 0:
        raise ValueError(f"match count must be non-negative, got {n}")
    if list(bounds) != sorted(set(bounds)):
        raise ValueError(f"bucket bounds must be strictly increasing, got {bounds!r}")
    bucket = len(bounds)
    for i, edge in enumerate(bounds):
        if n <= edge:
            bucket = i
            break
    bits = [0] * (len(bounds) + 1)
    bits[bucket] = 1
    bits.append(1 if booking else 0)
    return MatchVector(bits=tuple(bits), bucket=bucket)
