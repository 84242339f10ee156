"""Text trace parsing and replay.

One access per line: ``<domain_id> <R|W> <hex_address>``.  Full-line and
trailing ``#`` comments plus blank lines are ignored.  The read/write
flag is recorded in the per-domain operation counts but does not affect
placement.  The fields are strict: the domain id is ASCII decimal
digits, the op ``R``, ``W``, ``r`` or ``w``, and the address an optional
``0x``/``0X`` followed by ASCII hex digits.  No sign, no underscore and
no other script's digits; any other line raises TraceError with its
1-based line number.  The parser streams and checks a domain string
only the first time it sees it.

``replay`` hands the records to the cache's batch loop
(``_BaseCache.play``) when the cache's ``access`` is the core's own.  A
cache class that overrides or wraps ``access`` gets one ``access`` call
per record instead, so replay stays "``access`` per record" for it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .cache import _BaseCache


class TraceRecord(NamedTuple):
    domain: int
    op: str  # "R" or "W"
    addr: int


class TraceError(ValueError):
    """Malformed trace line; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"trace line {line_number}: {reason}")
        self.line_number = line_number


# the op field as written -> the op recorded
_OPS = {"R": "R", "W": "W", "r": "R", "w": "W"}


def _domain_id(lineno: int, dom_s: str, domains: Optional[int]) -> int:
    """Check a domain field: ASCII decimal digits, below ``domains``."""
    if not (dom_s.isascii() and dom_s.isdigit()):
        raise TraceError(lineno, f"bad domain id {dom_s!r}")
    try:
        domain = int(dom_s)
    except ValueError:  # more digits than int() converts
        raise TraceError(lineno, f"bad domain id {dom_s!r}") from None
    if domains is not None and domain >= domains:
        raise TraceError(
            lineno, f"domain id {domain} out of range for {domains} domains")
    return domain


def _records(lines: Iterable[str],
             domains: Optional[int] = None) -> Iterator[TraceRecord]:
    """Parse lines one at a time; a malformed line, or a domain id of
    ``domains`` or more, raises TraceError.

    A domain field is checked when its string is first seen and its id
    memoized; an address field must be ASCII letters and digits before
    ``int(_, 16)`` reads it, which leaves an optional ``0x``/``0X`` and
    hex digits.
    """
    domain_of: dict[str, int] = {}
    new = tuple.__new__  # TraceRecord's own __new__ is a Python call
    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        fields = raw.split()
        if len(fields) != 3:
            if not fields:
                continue
            raise TraceError(lineno, f"expected 3 fields, got {len(fields)}")
        dom_s, op_s, addr_s = fields
        domain = domain_of.get(dom_s)
        if domain is None:
            domain = domain_of[dom_s] = _domain_id(lineno, dom_s, domains)
        op = _OPS.get(op_s)
        if op is None:
            raise TraceError(lineno, f"operation must be R or W, got {op_s!r}")
        if not (addr_s.isascii() and addr_s.isalnum()):
            raise TraceError(lineno, f"bad hex address {addr_s!r}")
        try:
            addr = int(addr_s, 16)
        except ValueError:
            raise TraceError(lineno, f"bad hex address {addr_s!r}") from None
        yield new(TraceRecord, (domain, op, addr))


def parse_trace_lines(lines: Iterable[str],
                      domains: Optional[int] = None) -> list[TraceRecord]:
    return list(_records(lines, domains))


def load_trace(path, domains: Optional[int] = None) -> Iterator[TraceRecord]:
    """Stream the records of a trace file.  The file opens when the
    first record is requested and closes when the records run out or
    the iterator is discarded.  ``domains``, when given, bounds the
    domain ids, so an out-of-range id is reported with its line."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from _records(fh, domains)


def replay(cache, records: Iterable[TraceRecord]) -> dict[int, dict[str, int]]:
    """Run every record through the cache; returns per-domain R/W counts.

    Hit/miss/eviction counters accumulate in the cache's own stats.  A
    cache whose ``access`` is the core's own plays the records in one
    batch loop (``play``); one whose ``access`` is overridden or wrapped
    gets an ``access`` call per record.  Either way the records are
    consumed lazily.
    """
    if type(cache).access is _BaseCache.access:
        return cache.play(records)
    ops: dict[int, dict[str, int]] = {}
    for rec in records:
        cache.access(rec.domain, rec.addr)
        row = ops.setdefault(rec.domain, {"reads": 0, "writes": 0})
        row["reads" if rec.op == "R" else "writes"] += 1
    return ops
