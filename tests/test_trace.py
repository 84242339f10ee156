"""Trace format parsing and replay."""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewcache import (
    FieldSpec,
    SkewParams,
    TraceError,
    build_cache,
    galois_config,
    load_trace,
    parse_trace_lines,
    replay,
    trace,
)
from skewcache.cache import GaloisCache, _BaseCache


def test_parse_basic():
    lines = [
        "# warmup",
        "",
        "0 R 0x40",
        "1 W 80   # store",
        "2 r DEADBEEF",
    ]
    records = parse_trace_lines(lines)
    assert [tuple(r) for r in records] == [
        (0, "R", 0x40),
        (1, "W", 0x80),
        (2, "R", 0xDEADBEEF),
    ]


def test_parse_reports_line_numbers():
    with pytest.raises(TraceError) as err:
        parse_trace_lines(["0 R 0x40", "0 R"])
    assert err.value.line_number == 2
    with pytest.raises(TraceError) as err:
        parse_trace_lines(["", "# c", "x R 0x40"])
    assert err.value.line_number == 3
    with pytest.raises(TraceError) as err:
        parse_trace_lines(["0 Q 0x40"])
    assert err.value.line_number == 1
    with pytest.raises(TraceError) as err:
        parse_trace_lines(["0 R zz"])
    assert err.value.line_number == 1
    with pytest.raises(TraceError) as err:
        parse_trace_lines(["-1 R 0x40"])
    assert err.value.line_number == 1


DOMAIN_MAX = 2 ** 40
records_st = st.lists(st.tuples(st.integers(0, DOMAIN_MAX), st.sampled_from("RW"),
                                 st.integers(0, 2 ** 70)), max_size=20)
noise_st = st.sampled_from(["", "   ", "# comment", "  # indented 0 R 40", "\t"])


@st.composite
def _record_line(draw, rec):
    domain, op, addr = rec
    op = draw(st.sampled_from([op, op.lower()]))
    addr_s = draw(st.sampled_from([f"{addr:x}", f"0x{addr:X}", f"{addr:X}"]))
    tail = draw(st.sampled_from(["", "  # trailing", "\t#x"]))
    return f"{draw(st.sampled_from(['', '  ']))}{domain} {op}\t{addr_s}{tail}"


@st.composite
def _trace(draw):
    """(records, lines): formatted records with noise lines in between."""
    records = draw(records_st)
    lines = []
    for rec in records:
        lines += draw(st.lists(noise_st, max_size=2))
        lines.append(draw(_record_line(rec)))
    lines += draw(st.lists(noise_st, max_size=2))
    return records, lines


@settings(max_examples=100, deadline=None)
@given(_trace())
def test_formatted_records_parse_back(trace):
    records, lines = trace
    assert parse_trace_lines(lines) == records


# the domain is ASCII decimal digits, the address an optional 0x/0X and
# ASCII hex digits: no sign, no underscore, no other script's digits
BAD_LINES = ["0 R", "0 R 40 1", "x R 40", "1.0 R 40", "-3 R 40", "0 Q 40",
             "0 R zz", "0 R 0xg", "0 R -40", f"{DOMAIN_MAX + 1} W 40",
             "-0 R 40", "+1 R 40", "1_0 R 40", "0 R -0", "0 R +40", "0 R 4_0",
             "0 R 0x_40", "\u0663 R 40", "0 R \u0663", "0 R 0x", "0 R x40",
             "9" * 5000 + " R 40"]


@settings(max_examples=100, deadline=None)
@given(_trace(), st.data())
def test_malformed_line_reports_its_number(trace, data):
    _, lines = trace
    at = data.draw(st.integers(0, len(lines)), label="position")
    bad = data.draw(st.sampled_from(BAD_LINES), label="bad line")
    lines = lines[:at] + [bad] + lines[at:]
    with pytest.raises(TraceError) as err:
        parse_trace_lines(lines, domains=DOMAIN_MAX + 1)
    assert err.value.line_number == at + 1


def test_domain_limit_names_line():
    with pytest.raises(TraceError, match="trace line 3: domain id 4 out of "
                                         "range for 4 domains"):
        parse_trace_lines(["0 R 40", "", "4 W 40"], domains=4)
    assert parse_trace_lines(["3 R 40"], domains=4) == [(3, "R", 0x40)]


# Pieces of the chunked parser's oracle test.  A plain line is what the
# chunk pattern accepts; the plain pieces past the first five values
# still fail a conversion (a domain out of range for 4 domains, a
# 5,000-digit domain, x40, 1x2, 0x).  Any other line sends its chunk to
# _records, well-formed or not.
_PLAIN_PIECES = (["", " ", "\t"], ["0", "1", "3", "007", "2", "4", "9" * 5000],
                 ["R", "W", "r", "w"], [" ", "\t", "  ", " \t"],
                 ["40", "0x40", "0X40", "0XdeadBEEF", "f" * 30, "x40", "1x2", "0x"])
_OTHER_PIECES = (["\x0c", "\x85", " # trailing"], ["x", "-1", "+1", "\u0663"], ["Q", "RW"],
                 ["\x0b", "\x0c", "\x1c", "\x85"], ["zz", "4_0", "-40"])
_NOISE = ["", "   ", "# comment", "  # 0 R 40", "0 R", "0 R 40 1"]
_NEWLINES = ["\n", "\n", "\r\n", "\r"]


@st.composite
def _raw_line(draw, good=False):
    """A line: with ``good``, one the chunk path parses; otherwise a
    plain line, a line with other pieces, or noise."""
    if not good and draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(_NOISE))
    plain = good or draw(st.integers(0, 3)) > 0

    def piece(i):
        values = _PLAIN_PIECES[i] if plain or draw(st.booleans()) else _OTHER_PIECES[i]
        return draw(st.sampled_from(values[:5] if good else values))

    return "".join([piece(0), piece(1), piece(3), piece(2), piece(3), piece(4),
                    piece(0)])


@st.composite
def _trace_text(draw):
    """A trace file's text, each line ended by any newline and the last
    maybe by none: good lines with one other line among them, or lines
    of every kind."""
    if draw(st.booleans()):
        lines = draw(st.lists(_raw_line(good=True), max_size=30))
        lines.insert(draw(st.integers(0, len(lines))), draw(_raw_line()))
    else:
        lines = draw(st.lists(_raw_line(), max_size=30))
    ends = [draw(st.sampled_from(_NEWLINES)) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _drain(records):
    """The records up to the first TraceError, and that error's message
    and line number (None if the records run out)."""
    out = []
    try:
        for rec in records:
            out.append(rec)
    except TraceError as exc:
        return out, (str(exc), exc.line_number)
    return out, None


# The per-line parser is the oracle; the example budget comes from the
# loaded Hypothesis profile (HYPOTHESIS_PROFILE=ci, see tests/conftest.py).
# A chunk ends with the first line that takes it past the hint, so the
# bad third line ends the first chunk at hint 14 and starts the second at
# 7; at hint 40 one chunk holds runs of plain lines between refused ones.
@settings(max_examples=max(150, settings().max_examples), deadline=None)
@given(text=_trace_text(), hint=st.integers(1, 40), min_run=st.integers(1, 3),
       domains=st.sampled_from([None, 4, DOMAIN_MAX + 1]))
@example(text="0 R 40\n1 W 80\n2 R zz\n3 W c0\n", hint=14, min_run=1, domains=None)
@example(text="0 R 40\n1 W 80\n2 R zz\n3 W c0\n", hint=7, min_run=1, domains=None)
@example(text="0 R 40\r\n" + "9" * 5000 + " R 40\r3 w 0x\n", hint=1, min_run=1,
         domains=4)
@example(text="0 R 40\n# c\n1 W 80\n\n2 r 0xc0\n3 w 0\n", hint=40, min_run=1,
         domains=None)
@example(text="0 R 40\n# c\n1 W 80\n2 R zz\n3 W c0\n", hint=40, min_run=2,
         domains=None)
def test_chunked_stream_matches_line_oracle(text, hint, min_run, domains):
    """``load_trace``, chunks of a few characters so they split anywhere
    and bulk runs of a few lines, yields what ``_records`` yields over
    the same lines, and raises the same TraceError at the same line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.trace")
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(trace, "_CHUNK_HINT", hint), \
                mock.patch.object(trace, "_MIN_RUN", min_run):
            got = _drain(load_trace(path, domains))
        with open(path, "r", encoding="utf-8") as fh:
            want = _drain(trace._records(fh, domains))
    assert got == want
    assert all(type(rec) is tuple for rec in got[0])


def test_load_trace_streams_the_parsed_records(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("0 R 0x40\n# comment\n1 W 80\n")
    records = load_trace(path)
    assert iter(records) is records  # a stream, not a list
    assert list(records) == parse_trace_lines(path.read_text().splitlines())


def test_replay_counts_ops_and_stats():
    cache = build_cache(galois_config(SkewParams(FieldSpec.binary(2))), 0)
    records = parse_trace_lines(["0 R 0x40", "0 W 0x40", "1 R 0x80"])
    ops = replay(cache, records)
    assert ops == {0: {"reads": 1, "writes": 1}, 1: {"reads": 1, "writes": 0}}
    stats = cache.stats()
    assert stats[0]["hits"] == 1 and stats[0]["misses"] == 1
    assert stats[1]["misses"] == 1


def test_replay_calls_an_overridden_access_per_record(monkeypatch):
    """A cache whose ``access`` is overridden gets one call per record;
    a plain cache is played by the batch loop, with the same result."""
    class CountingCache(GaloisCache):
        calls = 0

        def access(self, domain, addr):
            self.calls += 1
            return super().access(domain, addr)

    cfg = galois_config(SkewParams(FieldSpec.binary(2)))
    records = parse_trace_lines([f"{i % 3} {'RW'[i % 2]} {i * 0x40 % 0x900:x}"
                                 for i in range(100)])
    counting = CountingCache(cfg, 5)
    ops = replay(counting, iter(records))
    assert counting.calls == len(records)

    played = []
    play = _BaseCache.play
    monkeypatch.setattr(_BaseCache, "play",
                        lambda cache, recs: played.append(cache) or play(cache, recs))
    plain = build_cache(cfg, 5)
    assert replay(plain, iter(records)) == ops
    assert played == [plain]
    assert plain.stats() == counting.stats() and plain._cells == counting._cells
    assert plain.rng.getstate() == counting.rng.getstate()


def test_write_does_not_change_placement():
    cfg = galois_config(SkewParams(FieldSpec.binary(2)))
    outcomes = []
    for op in ("R", "W"):
        cache = build_cache(cfg, 7)
        records = parse_trace_lines([f"0 {op} 0x40", f"0 {op} 0x40"])
        replay(cache, records)
        outcomes.append(cache.stats())
    assert outcomes[0] == outcomes[1]


def test_scripted_prime_fill_probe_trace():
    """Adversary primes a set, the victim fills its own, the adversary
    re-reads the one line the fill can contend with: the re-read misses
    in a quarter of the seeds."""
    from skewcache import compose_address, solve_intersection_way

    sp = SkewParams(FieldSpec.binary(2))
    cfg = galois_config(sp)
    crossing_way = solve_intersection_way(sp, 2, 1, 2, 0)
    lines = [f"1 R {compose_address(cfg, 0, tag):x}" for tag in range(4)]
    lines += [f"2 R {compose_address(cfg, 2, 100 + i):x}" for i in range(3)]
    lines += [f"2 R {compose_address(cfg, 2, 999):x}"]
    # primed tags land in way order, so tag == way for the probe line
    lines += [f"1 R {compose_address(cfg, 0, crossing_way):x}"]
    records = parse_trace_lines(lines)

    seeds = 100_000
    probe_misses = 0
    for seed in range(seeds):
        cache = build_cache(cfg, seed)
        replay(cache, records)
        adversary_misses = cache.stats()[1]["misses"]
        assert adversary_misses in (4, 5)  # the probe misses at most once
        probe_misses += adversary_misses - 4
    assert abs(probe_misses / seeds - 0.25) < 0.01
