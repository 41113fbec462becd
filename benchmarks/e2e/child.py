"""The fresh-interpreter half of the e2e benchmark.

``run.py`` starts this file once per measurement so that every workload
gets its own process: the process-wide ``ConstantInterner`` starts
empty, and ``ru_maxrss`` is the workload's own.  Two phases:

* ``setup`` — import repro, generate the inputs, parse, load and
  rewrite, then exit.  The parent times the whole process: that is
  ``setup_s``.
* ``measure`` — the same set-up, then the oracle, then interleaved
  seq → sim → mp repetitions with tracing off for ``--seconds``; with
  ``--trace 1`` the per-layer measurements of :mod:`layers` follow.
  Prints one JSON document as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import resource
import signal
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro import Database, evaluate, parse_program  # noqa: E402
from repro.parallel import (  # noqa: E402
    build_fault_plan, example3_scheme, rewrite_general, run_parallel)

from workloads import ANSWER_PREDICATE, BASE_PREDICATE, WORKLOADS, Oracle  # noqa: E402

# One executor run may take this long before it counts as failed; well
# under run_multiprocessing's own 120 s so a hang is ours to report.
RUN_TIMEOUT_S = 45.0
PROCESSORS = (0, 1)


class RunTimeout(Exception):
    """An executor run outlived RUN_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise RunTimeout(f"no result within {RUN_TIMEOUT_S} s")


def rewrite_of(workload):
    """The scheme constructor the workload names."""
    return rewrite_general if workload.scheme == "general" else example3_scheme


def build(workload, seed, quick):
    """What a user does before the first evaluation (timed as set-up)."""
    edges = workload.edges(seed, quick)
    program = parse_program(workload.program)
    database = Database.from_facts({BASE_PREDICATE: edges})
    return edges, program, database, rewrite_of(workload)(program, PROCESSORS)


class Executors:
    """The three ways a user can ask for the answer, plus bookkeeping.

    Every call is one counted operation: it fails when it raises, times
    out, leaks a worker, returns an answer the oracle rejects or — on
    the kill workload — does not restart exactly one worker.
    """

    def __init__(self, workload, program, database, scheme, oracle):
        self.workload = workload
        self.rewrite = rewrite_of(workload)
        self.program = program
        self.database = database
        self.scheme = scheme
        self.oracle = oracle
        self.attempted = 0
        self.failures = []
        self.kill_after = None      # set from the first simulator run

    def answer_problem(self, result):
        """Why the oracle rejects ``result``'s answer, or None."""
        relation = result.relation(ANSWER_PREDICATE)
        if self.oracle.accepts(relation, len(relation)):
            return None
        return (f"answer of {len(relation)} facts rejected by the oracle "
                f"({self.oracle.size} expected)")

    def timed(self, label, call, verdict=None):
        """Run ``call`` under the timeout; return ``(seconds, result)``.

        Both are None when the run failed.  ``verdict(result)`` names
        what is wrong with a result (default: the oracle's check); it
        and the worker reaping run after the clock stops.
        """
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, RUN_TIMEOUT_S)
        try:
            started = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - started
        except Exception as error:  # the boundary that counts failures
            self.failures.append(f"{label}: {type(error).__name__}: {error}")
            return None, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # A leaked worker would tax every later run: reap it here.
            leaked = multiprocessing.active_children()
            for process in leaked:
                process.kill()
                process.join()
        if leaked:
            problem = f"{len(leaked)} worker(s) outlived the run"
        else:
            problem = (verdict or self.answer_problem)(result)
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
            return None, None
        return seconds, result

    def seq(self, **options):
        return self.timed("seq", lambda: evaluate(
            self.program, self.database, **options))

    def sim(self, **options):
        seconds, result = self.timed("sim", lambda: run_parallel(
            self.scheme, self.database, **options))
        if result is not None and self.kill_after is None:
            self.kill_after = result.metrics.firings[PROCESSORS[1]] // 2
        return seconds, result

    def mp(self, database=None, verdict=None, **options):
        # Imported on first use: a user who never asks for real processes
        # does not import the executor either, so set-up does not.
        from repro.parallel.mp import run_multiprocessing
        if self.workload.kill and database is None:
            if self.kill_after is None:
                self.attempted += 1
                self.failures.append(
                    "mp: no simulator run gave the kill threshold")
                return None, None
            options.update(
                recovery="checkpoint",
                faults=build_fault_plan(
                    [f"kill:{PROCESSORS[1]}@{self.kill_after}"]))

            def verdict(result):
                # restarts != 1 means the kill did not land, so the run
                # measured something other than recovery.
                if result.restarts != 1:
                    return f"restarts = {result.restarts}, expected 1"
                return self.answer_problem(result)
        return self.timed("mp", lambda: run_multiprocessing(
            self.scheme, self.database if database is None else database,
            **options), verdict)


def seq_counters(result):
    counters = result.counters
    return {
        "engine.firings": counters.total_firings(),
        "engine.probes": counters.probes,
        "engine.iterations": counters.iterations,
        "engine.facts_out": len(result.relation(ANSWER_PREDICATE)),
    }


def sim_counters(result):
    metrics = result.metrics
    return {
        "sim.rounds": metrics.rounds,
        "sim.tuples_sent": metrics.total_sent(),
        "sim.channel_messages": metrics.total_channel_messages(),
        "sim.channel_bytes": metrics.total_channel_bytes(),
        "sim.firings": metrics.total_firings(),
    }


def mp_counters(result):
    metrics, stats = result.metrics, result.stats
    sent = metrics.total_sent()
    messages = metrics.total_channel_messages()
    received = sum(metrics.received.values())
    firings = list(metrics.firings.values())
    return {
        "mp.tuples_sent": sent,
        "mp.channel_messages": messages,
        "mp.channel_bytes": metrics.total_channel_bytes(),
        "mp.batch_factor": sent / messages if messages else 0.0,
        "mp.dup_dropped_ratio": (sum(metrics.duplicates_dropped.values())
                                 / received if received else 0.0),
        "mp.worker_iterations": sum(s.iterations for s in stats.values()),
        "mp.sent_log_facts": sum(s.sent_log_facts for s in stats.values()),
        "mp.load_imbalance": (max(firings) * len(firings) / sum(firings)
                              if sum(firings) else 1.0),
        "mp.restarts": result.restarts,
        "mp.recovery_s": metrics.recovery_seconds,
        "mp.replayed_facts": metrics.recovery_replayed_facts,
        "mp.checkpoint_bytes": metrics.checkpoint_bytes,
        "mp.log_truncated": metrics.log_truncated,
    }


def repetitions(executors, seconds, single):
    """Interleaved seq → sim → mp runs until ``seconds`` are used up.

    Interleaving puts machine drift on all three executors alike.  A
    repetition only starts while an average one still fits, so the
    measurement takes about ``seconds`` (one repetition at least).
    Returns the wall samples and the counters of every run.
    """
    walls = {"seq": [], "sim": [], "mp": []}
    counters = {"seq": [], "sim": [], "mp": []}
    readers = {"seq": seq_counters, "sim": sim_counters, "mp": mp_counters}
    started = time.perf_counter()
    done = 0
    while True:
        for name in ("seq", "sim", "mp"):
            wall, result = getattr(executors, name)()
            if result is not None:
                walls[name].append(wall)
                counters[name].append(readers[name](result))
            del result
        done += 1
        elapsed = time.perf_counter() - started
        if single or elapsed + elapsed / done > seconds:
            return walls, counters


def peak_rss_mb():
    """Largest resident set of this process or any reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0   # Linux reports KiB


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="file the traced loop's spans are written to")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    edges, program, database, scheme = build(workload, args.seed, args.quick)
    if args.phase == "setup":
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    oracle = Oracle(edges)
    executors = Executors(workload, program, database, scheme, oracle)
    # The traced run spends a third of its time on the untraced walls its
    # ratios are read against and the rest on the layers.
    budget = args.seconds / 3.0 if args.trace else args.seconds
    walls, counters = repetitions(executors, budget, args.quick)
    document = {
        "workload": workload.name,
        "seed": args.seed,
        "edb_facts": len(edges),
        "oracle_facts": oracle.size,
        "walls": walls,
        "counters": counters,
    }
    if args.trace:
        import layers
        document["layers"] = layers.measure(
            executors, edges, walls, counters, seconds=args.seconds - budget,
            single=args.quick, spans_path=args.spans)
    document["peak_rss_mb"] = peak_rss_mb()
    document["attempted"] = executors.attempted
    document["failures"] = executors.failures
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
