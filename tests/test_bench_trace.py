"""The benchmark's traced run still reaches every cache method it wraps.

bench/layers.py wraps cache methods by name on each cache class.  A
refactor of cache.py that moves a method, or lets one kind's class
inherit another's wrapped method, would silently zero or double those
counters.  Each command below runs through ``bench/child.py trace`` in
a fresh interpreter, as the benchmark runs it, and must count calls of
the methods it uses and none of another cache kind's.  In particular
the stacked run must count no ``cache.galois.*`` call.
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

# A replay uses only ``access``; an attack uses every traced method of
# its cache kind.
RUNS = [
    pytest.param("galois", False, f"simulate {TRACE} --kind galois --n 3",
                 id="simulate-galois"),
    pytest.param("conventional", False,
                 f"simulate {TRACE} --kind conventional --replacement lru",
                 id="simulate-conventional"),
    pytest.param("stacked", False,
                 f"simulate {TRACE} --kind stacked-galois --n 3 --stack-bits 2",
                 id="simulate-stacked"),
    pytest.param("conventional", True, "attack baseline-pp --trials 20", id="baseline-pp"),
    pytest.param("galois", True, "attack galois-pp --n 3 --trials 20", id="galois-pp"),
]


@pytest.mark.parametrize("kind,attack,args", RUNS)
def test_traced_run_counts_its_cache_methods(kind, attack, args, tmp_path):
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

    methods = CACHE_METHODS[kind][1] if attack else ("access",)
    for method in methods:
        assert calls.get(f"cache.{kind}.{method}", 0) > 0, (kind, method, calls)
    foreign = {name: n for name, n in calls.items()
               if name.startswith("cache.") and not name.startswith(f"cache.{kind}.")}
    assert foreign == {}
