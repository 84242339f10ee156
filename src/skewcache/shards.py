"""Contiguous shards of CPU-bound work, played in forked children.

``_run_shards(work, play, min_work)`` splits ``range(work)`` into
contiguous shards, one per CPU in the process's affinity mask and each
of at least ``min_work`` units (one shard where the mask cannot be
read), and returns ``play(first, stop)`` of every shard in order.  It
forks a child per shard after the first, which this process plays;
every process runs the same ``play`` over its own range, pinned to a CPU
of its own.  Each caller merges the results itself, and its merge is
exact, so its report is byte-identical at any shard count; ``taskset -c
0`` therefore gives a serial run, ``play`` over the whole range.

Two callers share the runner:

* the attack trial driver (``attacks._run_trials``) shards the trials,
  at least ``attacks.MIN_SHARD_TRIALS`` a shard.  It adds the shards'
  counts (confusion cells and values) and domain stats and joins their
  trial rows in trial order: each trial reseeds itself and restores its
  prefix into a flushed cache, whose LRU clock restarts at 0, and the
  cache holds nothing yet when the children fork.  Each shard plays its
  blocks of trials through its own trial memo: its first trial of each
  activity value and draw path, drawn in numpy as a reseed would draw
  it, so a trial has the same outcome and stats delta in every shard,
  and a shard's stats count each memoized trial once.  Collusion's
  lockstep engine (``attacks._collusion_lockstep``) plays every trial
  from its own ``Random(seed + trial)`` and the prefix's cells, so it
  has the same outcome and stats in any batch of any block.
* the diagonalization verifier (``skew.verify_diagonalization``) shards
  its domains t, at least ``skew.MIN_SHARD_DOMAINS`` a shard.  The
  parent builds every table the check reads before it forks, so the
  children share them copy-on-write and make no ``FieldSpec`` call; it
  joins the shards' violation lists in domain order.

The children run the callers' Python code and, for the verifier and
collusion's lockstep engine, numpy gathers, comparisons and integer
arithmetic, but no BLAS routine: numpy's BLAS library
starts a thread when imported, a forked child does not inherit it, and
Python 3.12 and later warn (``DeprecationWarning``) on such a fork.
"""

from __future__ import annotations

import os
import pickle
import signal


def _shard_count(work: int, min_work: int) -> int:
    """One shard per CPU this process may run on, each of at least
    ``min_work`` units of ``work``; one where the CPU set cannot be read
    (no ``os.sched_getaffinity``: macOS, Windows)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        return 1
    return max(1, min(cpus, work // min_work))


def _pin(pid: int, cpus) -> None:
    """Let process ``pid`` (0: this one) run only on ``cpus``.

    Left to the scheduler, a shard and the child forked from it were
    seen to share one CPU for a whole run while the other stood idle,
    in 10 of 48 collusion commands on a 2-core VM, which took the gain
    of sharding from those commands.  Where a shard runs changes its
    speed only, never its result, so a refused placement is ignored.
    """
    try:
        os.sched_setaffinity(pid, cpus)
    except (AttributeError, OSError):
        pass


def _play_in_child(fd: int, play, first: int, stop: int):
    """A forked shard: play it, pickle its result or its exception into
    the pipe ``fd``, and leave through ``os._exit``, so that the child
    never returns into its caller's code nor flushes the output buffers
    it inherited."""
    status = 1
    try:
        try:
            outcome = (None, play(first, stop))
        except BaseException as exc:  # sent to the parent, which raises it
            outcome = (exc, None)
        data = pickle.dumps(outcome)
        with open(fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_shards(work: int, play, min_work: int) -> list:
    """``play(first, stop)`` over contiguous shards of ``range(work)``,
    one per ``_shard_count``, and each shard's result in order.

    This process plays the first shard; each other shard runs in a child
    forked before any work, which pickles its result back through a
    pipe.  Each shard is pinned to a CPU of its own (in turn, when there
    are more shards than CPUs), and this process gets its CPU set back
    at the end.  A shard's exception is raised here, the earliest
    shard's if several fail, as a serial run would raise it.  Every
    child is reaped before this returns or raises, and killed first if
    it is still running then.
    """
    count = _shard_count(work, min_work)
    bounds = [work * i // count for i in range(count + 1)]
    cpus = sorted(os.sched_getaffinity(0)) if count > 1 else []
    running = []  # forked children not yet reaped, in shard order
    pipes = []  # the read end of each child's pipe
    try:
        for shard, (first, stop) in enumerate(zip(bounds[1:-1], bounds[2:]), 1):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _play_in_child(write_end, play, first, stop)
            finally:
                os.close(write_end)
            running.append(pid)
            _pin(pid, {cpus[shard % len(cpus)]})
        if cpus:
            _pin(0, {cpus[0]})
        results = [play(bounds[0], bounds[1])]
        for pid, read_end in zip(list(running), pipes):
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            if not data:  # the child died, or its outcome did not pickle
                raise RuntimeError(f"a shard ended with wait status {status} "
                                   "and no result")
            exc, result = pickle.loads(data)
            if exc is not None:
                raise exc
            results.append(result)
        return results
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read_end in pipes:
            os.close(read_end)
        if cpus:
            _pin(0, cpus)
