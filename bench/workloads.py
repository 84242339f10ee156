"""The three benchmark workloads: the CLI commands each one runs, and their inputs.

Every workload is a list of ``Command`` objects.  A round runs each
command once, in a fresh interpreter, one after the other (closed loop,
one client).  ``parts`` names the end-to-end metrics the command feeds:
0, 1 and 2 stand for ``part1_per_s``, ``part2_per_s`` and
``part3_per_s`` (see README.md for what each part is in each workload).
``units`` is the work the command does, in its parts' unit; ``expect``
is what the correctness gate needs to know about it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

VICTIM_PROB = 0.5

# Trial counts chosen so each attack kind costs about one second of
# cli.main time on a 2-core x86 host (1.5 ms, 140 us and 97 us a trial).
COLLUSION_TRIALS = 700
GALOIS_PP_TRIALS = 7000
BASELINE_PP_TRIALS = 10000

# Replay trace: four domains, a hit-heavy segment whose working set
# (4 x 40 lines) fits every replayed cache, then a streaming segment of
# never-reused lines, which misses every time.
DOMAINS = 4
HOT_LINES_PER_DOMAIN = 40
HOT_ACCESSES = 50_000
STREAM_ACCESSES = 50_000
WRITE_SHARE = 0.3


@dataclass
class Command:
    label: str
    parts: tuple[int, ...]
    argv: list[str]
    units: int
    expect: dict
    cache_kind: str | None = None
    netlist_dir: bool = False
    facts: bool = False


def _attack(seed: int, work: Path) -> list[Command]:
    common = ["--victim-prob", str(VICTIM_PROB), "--seed", str(seed)]
    specs = [
        ("collusion", ["--n", "3"], COLLUSION_TRIALS, 8, "galois"),
        ("galois-pp", ["--n", "4"], GALOIS_PP_TRIALS, 16, "galois"),
        ("baseline-pp", ["--sets", "64", "--ways", "8"], BASELINE_PP_TRIALS, None,
         "conventional"),
    ]
    commands = []
    for part, (which, flags, trials, order, cache_kind) in enumerate(specs):
        commands.append(Command(
            label=which,
            parts=(part,),
            argv=["attack", which, *flags, "--trials", str(trials), *common],
            units=trials,
            expect={"check": "attack", "kind": which.replace("-", "_"),
                    "order": order, "trials": trials, "victim_prob": VICTIM_PROB},
            cache_kind=cache_kind,
            facts=which == "collusion",
        ))
    return commands


def _verify(label: str, part: int, flags: list[str], order: int) -> Command:
    # part 3 is every verify command: the workload's whole verify time
    return Command(
        label=label,
        parts=(part, 2),
        argv=["verify", *flags],
        units=order ** 3 * (order - 1),
        expect={"check": "verify", "order": order},
    )


def _structure(seed: int, work: Path) -> list[Command]:
    commands = [_verify(f"verify-n{n}", 0, ["--n", str(n)], 2 ** n) for n in range(2, 7)]
    commands.append(_verify("verify-n6-a3b5c7", 0,
                            ["--n", "6", "--a", "3", "--b", "5", "--c", "7"], 64))
    commands.append(_verify("verify-p61", 1, ["--p", "61", "--n", "1"], 61))
    # cost commands take milliseconds and write files, so their times
    # swing with file-system latency; they count in wall_s only
    for n in range(2, 8):
        commands.append(Command(
            label=f"cost-n{n}",
            parts=(),
            argv=["cost", "--n", str(n)],
            units=2 ** n,
            expect={"check": "cost", "order": 2 ** n, "n": n},
            netlist_dir=True,
        ))
    # The inputs do not depend on the seed; it only orders the round.
    random.Random(seed).shuffle(commands)
    return commands


def make_trace(seed: int, path: Path) -> int:
    """Write the replay trace for this seed; returns its length."""
    rng = random.Random(seed)
    pools = [rng.sample(range(1 << 20), HOT_LINES_PER_DOMAIN) for _ in range(DOMAINS)]
    next_block = [(d + 1) << 24 for d in range(DOMAINS)]
    lines = []
    for i in range(HOT_ACCESSES + STREAM_ACCESSES):
        d = rng.randrange(DOMAINS)
        op = "W" if rng.random() < WRITE_SHARE else "R"
        if i < HOT_ACCESSES:
            block = rng.choice(pools[d])
        else:
            block = next_block[d]
            next_block[d] += 1
        lines.append(f"{d} {op} {(block << 6) | rng.randrange(64):x}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return len(lines)


def _replay(seed: int, work: Path) -> list[Command]:
    trace = work / "replay.trace"
    length = make_trace(seed, trace)
    specs = [
        ("galois", ["--kind", "galois", "--n", "4"]),
        ("conventional", ["--kind", "conventional", "--sets", "64", "--ways", "8",
                          "--replacement", "lru"]),
        ("stacked", ["--kind", "stacked-galois", "--n", "4", "--stack-bits", "2"]),
    ]
    return [
        Command(
            label=f"simulate-{kind}",
            parts=(part,),
            argv=["simulate", str(trace), *flags, "--seed", str(seed)],
            units=length,
            expect={"check": "simulate", "accesses": length},
            cache_kind=kind,
            facts=True,
        )
        for part, (kind, flags) in enumerate(specs)
    ]


WORKLOADS = {"attack": _attack, "structure": _structure, "replay": _replay}


def build(workload: str, seed: int, work: Path) -> list[Command]:
    return WORKLOADS[workload](seed, work)
