"""The benchmark's traced run still reaches every cache method it wraps.

bench/layers.py wraps cache methods by name on each cache class.  A
refactor of cache.py that moves a method, or lets one kind's class
inherit another's wrapped method, would silently zero or double those
counters.  Each command below runs through ``bench/child.py trace`` in
a fresh interpreter, as the benchmark runs it, and must count calls of
the methods it uses and none of another cache kind's.  In particular
the stacked run must count no ``cache.galois.*`` call.

galois-pp probes its primed set with one ``probe_group`` call a trial,
which layers.py does not wrap, so its traced run counts no
``probe_one`` call: the expectation pins that, and has to change when
the benchmark wraps ``probe_group``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
TRACE = "tests/golden/replay.trace"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CACHE_METHODS = _load_layers().CACHE_METHODS

# The traced methods a run calls, and those it calls none of.  A replay
# uses only ``access``; baseline-pp uses every traced method of its
# cache kind, and galois-pp every one but ``probe_one`` (module docstring).
RUNS = [
    pytest.param("galois", ("access",), (), f"simulate {TRACE} --kind galois --n 3",
                 id="simulate-galois"),
    pytest.param("conventional", ("access",), (),
                 f"simulate {TRACE} --kind conventional --replacement lru",
                 id="simulate-conventional"),
    pytest.param("stacked", ("access",), (),
                 f"simulate {TRACE} --kind stacked-galois --n 3 --stack-bits 2",
                 id="simulate-stacked"),
    pytest.param("conventional", CACHE_METHODS["conventional"][1], (),
                 "attack baseline-pp --trials 20", id="baseline-pp"),
    pytest.param("galois", ("access", "flush"), ("probe_one",),
                 "attack galois-pp --n 3 --trials 20", id="galois-pp"),
]


@pytest.mark.parametrize("kind,methods,uncalled,args", RUNS)
def test_traced_run_counts_its_cache_methods(kind, methods, uncalled, args, tmp_path):
    out = tmp_path / "result.json"
    argv = args.split() + ["--no-timestamp", "--output", str(tmp_path / "report")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(out), "0", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["rc"] == 0
    calls = result["layers"]["calls"]

    for method in methods:
        assert calls.get(f"cache.{kind}.{method}", 0) > 0, (kind, method, calls)
    for method in uncalled:
        assert calls.get(f"cache.{kind}.{method}", 0) == 0, (kind, method, calls)
    foreign = {name: n for name, n in calls.items()
               if name.startswith("cache.") and not name.startswith(f"cache.{kind}.")}
    assert foreign == {}
