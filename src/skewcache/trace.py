"""Text trace parsing and replay.

One access per line: ``<domain_id> <R|W> <hex_address>``.  Full-line and
trailing ``#`` comments plus blank lines are ignored.  The read/write
flag is recorded in the per-domain operation counts but does not affect
placement.  The fields are strict: the domain id is ASCII decimal
digits, the op ``R``, ``W``, ``r`` or ``w``, and the address an optional
``0x``/``0X`` followed by ASCII hex digits.  No sign, no underscore and
no other script's digits; any other line raises TraceError with its
1-based line number.

Records are plain ``(domain, op, addr)`` tuples (``TraceRecord`` names
the shape).  ``_records`` parses one line at a time and checks a domain
string only the first time it sees it.  ``load_trace`` streams a file a
chunk of whole lines at a time.  ``_PLAIN`` matches the run of plain
record lines (no comment, no blank line, no whitespace but spaces and
tabs) at the start of the chunk, and ``str.split`` with C-level
``map`` and ``zip`` parses the run.  The line the pattern refused goes
to ``_records`` with its line number, and the match resumes after it.
A run shorter than ``_MIN_RUN`` lines, or one whose domain or address
conversion raises, goes to ``_records`` with the rest of its chunk.  So
the records and any TraceError (message and line number) are those of
``_records`` over the whole file, which stays the oracle.

``replay`` hands the records to the cache's batch loop
(``_BaseCache.play``) when the cache's ``access`` is the core's own.  A
cache class that overrides or wraps ``access`` gets one ``access`` call
per record instead, so replay stays "``access`` per record" for it.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .cache import _BaseCache

# Whole lines read per chunk.  Past about 256 KiB the pattern's
# validation of a chunk grows faster than linearly.
_CHUNK_HINT = 1 << 16

# A run of plain record lines.  An ``x`` out of place passes here and
# fails ``int(_, 16)``, which sends the run to the per-line parser.
_PLAIN = re.compile(r"(?:[ \t]*[0-9]+[ \t]+[RWrw][ \t]+[0-9A-Fa-fxX]+[ \t]*\n)*")

# A shorter run of plain lines is not worth a bulk parse: it and the
# rest of its chunk go to the per-line parser.
_MIN_RUN = 16


class TraceRecord(NamedTuple):
    """The shape of a record; the parsers yield plain tuples of it."""

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


def _records(lines: Iterable[str], domains: Optional[int] = None,
             start: int = 1) -> Iterator[TraceRecord]:
    """Parse lines one at a time, the first numbered ``start``; a
    malformed line, or a domain id of ``domains`` or more, raises
    TraceError.

    A domain field is checked when its string is first seen and its id
    memoized; an address field must be ASCII letters and digits before
    ``int(_, 16)`` reads it, which leaves an optional ``0x``/``0X`` and
    hex digits.
    """
    domain_of: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=start):
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
        yield domain, op, addr


def parse_trace_lines(lines: Iterable[str],
                      domains: Optional[int] = None) -> list[TraceRecord]:
    return list(_records(lines, domains))


def _bulk(text: str, lineno: int, domains: Optional[int],
          domain_of: dict[str, int]) -> Optional[Iterable[TraceRecord]]:
    """The records of a run of lines ``_PLAIN`` accepted, parsed by
    ``str.split`` and C-level ``map``; None if a domain or address
    conversion raises (``_records`` then names the line)."""
    fields = text.split()
    doms = fields[0::3]
    try:
        for dom_s in set(doms).difference(domain_of):
            domain_of[dom_s] = _domain_id(lineno, dom_s, domains)
        addrs = list(map(int, fields[2::3], repeat(16)))
    except ValueError:  # TraceError included
        return None
    return zip(map(domain_of.__getitem__, doms), map(_OPS.__getitem__, fields[1::3]), addrs)


def _chunks(path, domains: Optional[int], hint: int) -> Iterator[Iterable[TraceRecord]]:
    """The records of a trace file, one iterable per run of lines, read
    a chunk of whole lines of about ``hint`` characters at a time
    (module docstring)."""
    domain_of: dict[str, int] = {}
    lineno = 1
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(hint):
            chunk = "".join(lines)
            pos = done = 0  # the chunk's characters and lines parsed
            while done < len(lines):
                end = _PLAIN.match(chunk, pos).end()
                run = chunk.count("\n", pos, end)
                parsed = _bulk(chunk[pos:end], lineno + done, domains, domain_of) \
                    if run >= _MIN_RUN else None
                if parsed is None:
                    yield _records(lines[done:], domains, lineno + done)
                    break
                yield parsed
                done += run
                if done < len(lines):  # the line the pattern refused
                    yield _records(lines[done:done + 1], domains, lineno + done)
                    pos = end + len(lines[done])
                    done += 1
            lineno += len(lines)


def load_trace(path, domains: Optional[int] = None) -> Iterator[TraceRecord]:
    """Stream the records of a trace file, parsed a chunk at a time.
    The file opens when the first record is requested and closes when
    the records run out or the iterator is discarded.  ``domains``,
    when given, bounds the domain ids, so an out-of-range id is reported
    with its line."""
    return chain.from_iterable(_chunks(path, domains, _CHUNK_HINT))


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
    for domain, op, addr in records:
        cache.access(domain, addr)
        row = ops.setdefault(domain, {"reads": 0, "writes": 0})
        row["reads" if op == "R" else "writes"] += 1
    return ops
