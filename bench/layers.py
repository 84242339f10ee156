"""Per-layer spans and counts, installed around skewcache's public functions.

Nothing under ``src/`` is edited: ``install`` replaces functions and
methods with wrappers at run time, in the defining module and in every
skewcache module that imported them by name.  A span records calls and
inclusive time; the stack of open spans gives each span's self time.
The hottest small functions (``FieldSpec.check``, ``FieldSpec.inv``,
``permute_all_ways``) are only counted, so their time stays in the
span that called them.

Cache calls are also attributed to the protocol phase of the attack
running at the time, by the calling domain and the method: the victim
domain's calls are ``victim``; in a collusion attack the squeezer's
calls are ``squeeze``; the other adversary calls are ``probe`` for
``probe_one``/``observe_probe`` and ``prime`` for ``access``.  Only the
outermost cache call is attributed, so a probe that calls ``access``
inside is timed once.

``hot_records`` > 0 splits ``trace.replay`` into the hot segment and the
rest, reading the cache's counters between them; replay's result is the
same as one call over all records.  The split takes any iterable of
records, so a trace that is streamed rather than loaded as a list works
too; ``trace.records`` counts the records replay consumed.

The tables below name every traced cache kind, method and attack phase;
run.py builds its metric list from them.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from itertools import islice

import skewcache
from skewcache import attacks, cache, circuit, cli, field, skew, trace

_MODULES = (skewcache, field, skew, cache, attacks, trace, circuit, cli)

# traced cache kind: (class, its traced methods)
CACHE_METHODS = {
    "galois": (cache.GaloisCache, ("access", "probe_one", "flush")),
    "conventional": (cache.ConventionalCache, ("access", "observe_probe", "flush")),
    "stacked": (cache.StackedGaloisCache, ("access",)),
}
# the kind a cache config names, as in CACHE_METHODS
_KIND_OF_CONFIG = {"galois": "galois", "conventional": "conventional",
                   "stacked-galois": "stacked"}
# replay segments, split at ``hot_records``
SEGMENTS = ("hot", "stream")
# attack kind: the phases its cache calls are attributed to (see _phase)
ATTACK_PHASES = {
    "collusion": ("prime", "squeeze", "victim", "probe"),
    "galois_pp": ("prime", "victim", "probe"),
    "baseline_pp": ("prime", "victim", "probe"),
}


def _replace(module, name: str, wrapper) -> None:
    """Rebind ``module.name`` and every import of the same object by name."""
    original = getattr(module, name)
    for mod in _MODULES:
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


def _stat_totals(stats: dict) -> Counter:
    totals = Counter()
    for row in stats.values():
        totals.update(row)
    return totals


class Tracer:
    """Counters and span times of one CLI command; ``summary`` is JSON-ready."""

    def __init__(self, hot_records: int = 0):
        self.hot_records = hot_records
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.child_seconds = defaultdict(float)
        self.counts = Counter()
        self.fill_passes = Counter()
        self.segments: dict[str, dict] = {}
        self._stack: list[list[float]] = []
        self._scenario = None
        self._cache_depth = 0

    # -- wrappers ------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        calls, seconds, child_seconds, stack = (
            self.calls, self.seconds, self.child_seconds, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                seconds[name] += dt
                child_seconds[name] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def cache_method(self, kind: str, method: str, fn):
        name = f"cache.{kind}.{method}"
        line_access = method == "access" or (kind == "galois" and method == "probe_one")
        calls, seconds, child_seconds, stack = (
            self.calls, self.seconds, self.child_seconds, self._stack)
        clock = time.perf_counter

        # The span bookkeeping is inlined here: this is the hottest wrapper.
        def wrapper(obj, *args):
            calls[name] += 1
            outer = self._cache_depth == 0
            self._cache_depth += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(obj, *args)
            finally:
                dt = clock() - t0
                stack.pop()
                self._cache_depth -= 1
                seconds[name] += dt
                child_seconds[name] += frame[0]
                if stack:
                    stack[-1][0] += dt
                sc = self._scenario
                if sc is not None:
                    if line_access:
                        self.counts[f"attacks.{sc.kind}.line_accesses"] += 1
                    if outer and args:
                        phase = self._phase(sc, method, args[0])
                        self.seconds[f"attacks.{sc.kind}.{phase}"] += dt

        return wrapper

    @staticmethod
    def _phase(sc, method: str, domain: int) -> str:
        if domain == sc.victim_domain:
            return "victim"
        if sc.kind == "collusion" and domain == sc.adversary_domains[1]:
            return "squeeze"
        return "probe" if method in ("probe_one", "observe_probe") else "prime"

    # -- result hooks ---------------------------------------------------

    def _scenario_span(self, fn):
        timed = self.span("attacks.run_scenario", fn)

        def wrapper(sc):
            self._scenario = sc
            self.counts[f"attacks.{sc.kind}.trials"] += sc.trials
            try:
                return timed(sc)
            finally:
                self._scenario = None

        return wrapper

    def _replay_split(self, fn):
        def split(cache_obj, records):
            if self.hot_records <= 0:
                ops = fn(cache_obj, records)
            else:
                remaining = iter(records)
                ops = fn(cache_obj, islice(remaining, self.hot_records))
                before = _stat_totals(cache_obj.stats())
                rest = fn(cache_obj, remaining)
                after = _stat_totals(cache_obj.stats())
                self.segments[_KIND_OF_CONFIG[cache_obj.cfg.kind]] = {
                    "hot": dict(before), "stream": dict(after - before)}
                for d, row in rest.items():
                    merged = ops.setdefault(d, {"reads": 0, "writes": 0})
                    merged["reads"] += row["reads"]
                    merged["writes"] += row["writes"]
            self.counts["trace.records"] += sum(r["reads"] + r["writes"] for r in ops.values())
            return ops

        return self.span("trace.replay", split)

    def _add(self, key: str, value) -> None:
        self.counts[key] += value

    # -- installation ---------------------------------------------------

    def install_facts(self) -> None:
        """Only the hooks that record input properties; no per-access wrappers."""
        _replace(attacks, "fill_domain_set", self.span(
            "attacks.fill_domain_set", attacks.fill_domain_set,
            lambda args, passes: self.fill_passes.update((passes,))))
        _replace(trace, "replay", self._replay_split(trace.replay))

    def install(self) -> None:
        self.install_facts()
        fs = field.FieldSpec
        fs.mul = self.span("field.mul", fs.mul)
        fs.check = self.counted("field.check", fs.check)
        fs.inv = self.counted("field.inv", fs.inv)
        _replace(skew, "permute_all_ways",
                 self.counted("skew.permute_all_ways", skew.permute_all_ways))
        _replace(skew, "layout_table", self.span("skew.layout_table", skew.layout_table))
        _replace(skew, "verify_diagonalization", self.span(
            "skew.verify_diagonalization", skew.verify_diagonalization,
            lambda args, report: self._add("skew.diag_checked", report.checked)))
        _replace(skew, "verify_way_bijection",
                 self.span("skew.verify_way_bijection", skew.verify_way_bijection))
        for kind, (cls, methods) in CACHE_METHODS.items():
            for method in methods:
                setattr(cls, method, self.cache_method(kind, method, getattr(cls, method)))
        _replace(attacks, "run_scenario", self._scenario_span(attacks.run_scenario))
        _replace(trace, "load_trace", self.span("trace.load_trace", trace.load_trace))
        _replace(circuit, "permutation_cost", self.span(
            "circuit.permutation_cost", circuit.permutation_cost,
            lambda args, report: self._add("circuit.total_xor_count", report.total_xor_count)))
        _replace(circuit, "way_network", self.span("circuit.way_network", circuit.way_network))
        _replace(circuit, "emit_netlist", self.span("circuit.emit_netlist", circuit.emit_netlist))
        cli.main = self.span("cli.main", cli.main)

    # -- output ---------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "child_seconds": dict(self.child_seconds),
            "counts": dict(self.counts),
            "fill_passes": {str(k): v for k, v in sorted(self.fill_passes.items())},
            "segments": self.segments,
        }
