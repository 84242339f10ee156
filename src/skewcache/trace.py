"""Text trace parsing and replay.

One access per line: ``<domain_id> <R|W> <hex_address>``.  Full-line and
trailing ``#`` comments plus blank lines are ignored.  The read/write
flag is recorded in the per-domain operation counts but does not affect
placement.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Optional


class TraceRecord(NamedTuple):
    domain: int
    op: str  # "R" or "W"
    addr: int


class TraceError(ValueError):
    """Malformed trace line; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"trace line {line_number}: {reason}")
        self.line_number = line_number


def _records(lines: Iterable[str],
             domains: Optional[int] = None) -> Iterator[TraceRecord]:
    """Parse lines one at a time; a malformed line, or a domain id of
    ``domains`` or more, raises TraceError."""
    limit = math.inf if domains is None else domains
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 3:
            raise TraceError(lineno, f"expected 3 fields, got {len(fields)}")
        dom_s, op, addr_s = fields
        try:
            domain = int(dom_s, 10)
        except ValueError:
            raise TraceError(lineno, f"bad domain id {dom_s!r}") from None
        if domain < 0:
            raise TraceError(lineno, f"domain id must be nonnegative, got {domain}")
        if domain >= limit:
            raise TraceError(
                lineno, f"domain id {domain} out of range for {domains} domains")
        op = op.upper()
        if op not in ("R", "W"):
            raise TraceError(lineno, f"operation must be R or W, got {fields[1]!r}")
        try:
            addr = int(addr_s, 16)
        except ValueError:
            raise TraceError(lineno, f"bad hex address {addr_s!r}") from None
        if addr < 0:
            raise TraceError(lineno, "addresses are unsigned")
        yield TraceRecord(domain, op, addr)


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

    Hit/miss/eviction counters accumulate in the cache's own stats.
    """
    ops: dict[int, dict[str, int]] = {}
    for rec in records:
        cache.access(rec.domain, rec.addr)
        row = ops.setdefault(rec.domain, {"reads": 0, "writes": 0})
        row["reads" if rec.op == "R" else "writes"] += 1
    return ops
