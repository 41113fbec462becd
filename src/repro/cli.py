"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro run program.dl [--facts facts.dl] [--method seminaive]
    repro parallel program.dl --scheme example3 -n 4 [--facts facts.dl]
                   [--keep 0.5] [--mp] [--detect-termination] [--stats]
                   [--trace run.jsonl] [--delay-prob 0.2] [--seed 7]
                   [--inject-fault kill:p1@50] [--recovery checkpoint]
                   [--max-restarts 3] [--checkpoint-interval 4]
                   [--ack-deadline 20]
    repro trace run.jsonl [--json] [--send-cost 1.0] [--recv-cost 1.0]
    repro network program.dl [--positions 1,2] [--linear 1,-1,1]
                   [--g-range 2]
    repro workloads

``program.dl`` is a Datalog file; fact rules (``par(1, 2).``) may live
in the program file itself or in a separate ``--facts`` file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from .datalog import parse_program
from .datalog.program import Program
from .engine import evaluate
from .errors import ReproError
from .facts import Database

__all__ = ["main", "build_parser"]


def _load(program_path: str, facts_path: Optional[str]) -> Tuple[Program, Database]:
    """Load a program and its extensional database."""
    with open(program_path, encoding="utf-8") as handle:
        program = parse_program(handle.read())
    database = Database.from_atoms(program.facts())
    if facts_path is not None:
        with open(facts_path, encoding="utf-8") as handle:
            facts_program = parse_program(handle.read(), validate=False)
        for atom in facts_program.facts():
            database.add_fact(atom.predicate, atom.to_fact())
    proper = Program(program.proper_rules())
    return proper, database


def _print_relations(database: Database, predicates: Sequence[str],
                     limit: int) -> None:
    for predicate in predicates:
        relation = database.get(predicate)
        if relation is None:
            continue
        print(f"{predicate}/{relation.arity}: {len(relation)} facts")
        for index, fact in enumerate(sorted(relation, key=repr)):
            if index >= limit:
                print(f"  ... ({len(relation) - limit} more)")
                break
            args = ", ".join(str(value) for value in fact)
            print(f"  {predicate}({args})")


def _cmd_run(args: argparse.Namespace) -> int:
    program, database = _load(args.program, args.facts)
    result = evaluate(program, database, method=args.method)
    predicates = ([args.query] if args.query
                  else list(program.derived_predicates))
    _print_relations(result.output, predicates, args.limit)
    if args.stats:
        counters = result.counters
        print(f"\nfirings: {counters.total_firings()}, "
              f"probes: {counters.probes}, "
              f"iterations: {counters.iterations}")
    return 0


def _build_scheme(args: argparse.Namespace, program: Program,
                  database: Database):
    from .parallel import (
        example1_scheme,
        example2_scheme,
        example3_scheme,
        hash_scheme,
        rewrite_general,
        tradeoff_scheme,
        wolfson_scheme,
    )

    processors = tuple(range(args.processors))
    scheme = args.scheme
    if scheme == "example1":
        return example1_scheme(program, processors)
    if scheme == "example2":
        return example2_scheme(program, processors, database)
    if scheme == "example3":
        return example3_scheme(program, processors)
    if scheme == "hash":
        return hash_scheme(program, processors)
    if scheme == "wolfson":
        return wolfson_scheme(program, processors)
    if scheme == "tradeoff":
        return tradeoff_scheme(program, processors, args.keep)
    if scheme == "general":
        return rewrite_general(program, processors)
    raise ReproError(f"unknown scheme {scheme!r}")


def _cmd_parallel(args: argparse.Namespace) -> int:
    from .parallel import build_fault_plan, run_parallel
    from .parallel.mp import run_multiprocessing

    faults = (build_fault_plan(args.inject_fault, seed=args.seed)
              if args.inject_fault else None)
    # Kills and their recovery need worker processes to kill: refuse
    # them before anything is evaluated.
    if not args.mp:
        if faults is not None and faults.kills:
            raise ReproError("kill faults need real worker processes; add "
                             "--mp (the simulator injects channel faults "
                             "only)")
        if args.recovery != "fail":
            raise ReproError(f"--recovery {args.recovery} recovers killed "
                             "worker processes; add --mp (the simulator "
                             "kills none)")
    program, database = _load(args.program, args.facts)
    parallel_program = _build_scheme(args, program, database)
    print(f"scheme: {parallel_program.scheme} on "
          f"{len(parallel_program.processors)} processors")
    print("base-relation storage:")
    for line in parallel_program.fragmentation.describe().splitlines():
        print(f"  {line}")

    if faults is not None:
        specs = ", ".join(args.inject_fault)
        print(f"fault injection: {specs} (recovery={args.recovery}, "
              f"seed={args.seed})")

    tracer = None
    if args.trace:
        import time

        from .obs import JsonlSink, Tracer

        # The simulator's trace must be deterministic (equal seeds →
        # byte-identical files), so only the mp executor gets a clock.
        tracer = Tracer(JsonlSink(args.trace),
                        clock=time.perf_counter if args.mp else None)
    try:
        if args.mp:
            result = run_multiprocessing(parallel_program, database,
                                         timeout=args.timeout, tracer=tracer,
                                         recovery=args.recovery,
                                         faults=faults,
                                         max_restarts=args.max_restarts,
                                         checkpoint_interval=
                                         args.checkpoint_interval,
                                         ack_timeout=args.ack_deadline)
            print(f"\nreal multiprocessing run: "
                  f"{result.wall_seconds:.2f}s wall")
            if result.restarts:
                print(f"workers restarted after injected faults: "
                      f"{result.restarts}")
        else:
            result = run_parallel(parallel_program, database,
                                  detect_termination=args.detect_termination,
                                  delay_probability=args.delay_prob,
                                  seed=args.seed, tracer=tracer,
                                  faults=faults)
    finally:
        if tracer is not None:
            tracer.close()
    if args.trace:
        print(f"trace written to {args.trace} "
              f"(inspect with: repro trace {args.trace})")
    _print_relations(result.output, parallel_program.derived, args.limit)
    if args.stats:
        summary = dict(result.metrics.summary())
        if args.mp:
            summary["wall_seconds"] = round(result.wall_seconds, 3)
        print()
        for key, value in summary.items():
            print(f"  {key}: {value}")
        if args.mp:
            from .parallel.naming import processor_tag

            # Seconds each worker spent blocked on its inbox, draining
            # it, in steps and sending the steps' output, and its CPU.
            for proc, stats in result.stats.items():
                print(f"  worker {processor_tag(proc)}: "
                      f"inbox_wait_s={stats.inbox_wait_s:.4f} "
                      f"drain_s={stats.drain_s:.4f} "
                      f"step_s={stats.step_s:.4f} "
                      f"send_s={stats.send_s:.4f} "
                      f"longest_step_s={stats.longest_step_s:.4f} "
                      f"cpu_s={stats.cpu_s:.4f}")
            resident = processor_tag(min(result.stats, key=processor_tag))
            print(f"  (the coordinator steps worker {resident} itself: "
                  f"unless it was restarted, its cpu_s is the coordinator "
                  f"process's CPU)")
            # When each coordinator phase ended, in wall and coordinator
            # CPU seconds since the run began.
            for phase, wall_s, cpu_s in result.phases:
                print(f"  coordinator {phase}: wall_s={wall_s:.4f} "
                      f"cpu_s={cpu_s:.4f}")
    if args.check:
        sequential = evaluate(program, database)
        matches = all(
            result.relation(pred).as_set()
            == sequential.relation(pred).as_set()
            for pred in parallel_program.derived)
        print(f"\nmatches sequential evaluation: {matches}")
        if not matches:
            return 1
    return 0


def _parse_int_list(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _cmd_network(args: argparse.Namespace) -> int:
    from .datalog import as_linear_sirup
    from .network import (
        derive_network,
        find_dataflow_cycle,
        format_dataflow,
        solve_linear_network,
    )
    from .parallel import TupleDiscriminator

    program, _database = _load(args.program, None)
    sirup = as_linear_sirup(program)
    print(f"dataflow graph: {format_dataflow(sirup)}")
    cycle = find_dataflow_cycle(sirup)
    if cycle is not None:
        print(f"cycle at positions {cycle}: a zero-communication choice "
              "exists (Theorem 3) — use scheme example1")
    else:
        print("acyclic: every choice needs some communication; deriving "
              "the minimal network graph")

    if args.positions:
        positions = _parse_int_list(args.positions)
    else:
        positions = cycle if cycle is not None else tuple(
            range(1, sirup.arity + 1))
    v_r = tuple(sirup.body_vars[p - 1] for p in positions)
    v_e = tuple(sirup.exit_vars[p - 1] for p in positions)
    print(f"v(r) = <{', '.join(v.name for v in v_r)}>, "
          f"v(e) = <{', '.join(v.name for v in v_e)}>")

    if args.linear:
        coefficients = _parse_int_list(args.linear)
        network = solve_linear_network(sirup, v_r, v_e, coefficients,
                                       g_range=args.g_range)
        print(f"h = linear form {coefficients} over g values; "
              f"processors {sorted(network.processors)}")
    else:
        h = TupleDiscriminator(len(v_r), g_range=args.g_range)
        network = derive_network(sirup, v_r, v_e, h, g_range=args.g_range)
        print(f"h = (g(a1), ..., g(a{len(v_r)})); "
              f"{len(network.processors)} processors")
    print("minimal network graph (remote edges):")
    for line in network.to_ascii().splitlines():
        print(f"  {line}")
    remote, complete = network.degree_summary()
    print(f"{remote} of {complete} possible channels can ever be used")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import load_trace
    from .parallel import CostModel

    report = load_trace(args.trace_file)
    cost = CostModel(send_cost=args.send_cost, recv_cost=args.recv_cost,
                     round_overhead=args.round_overhead)
    if args.json:
        print(json.dumps(report.summary(cost), indent=2, sort_keys=True))
    else:
        print(report.render(cost))
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    from .workloads import make_workload, workload_kinds

    for kind in workload_kinds():
        workload = make_workload(kind, 24, seed=0)
        print(f"{kind:16s} {workload.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel bottom-up Datalog evaluation via "
                    "discriminating functions (SIGMOD 1990)")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evaluate a program sequentially")
    run.add_argument("program", help="Datalog program file")
    run.add_argument("--facts", help="extra facts file")
    run.add_argument("--method", choices=("seminaive", "naive"),
                     default="seminaive")
    run.add_argument("--query", help="print only this derived predicate")
    run.add_argument("--limit", type=int, default=20,
                     help="max facts printed per relation")
    run.add_argument("--stats", action="store_true")
    run.set_defaults(func=_cmd_run)

    par = commands.add_parser("parallel", help="run a program in parallel")
    par.add_argument("program", help="Datalog program file")
    par.add_argument("--facts", help="extra facts file")
    par.add_argument("--scheme", default="example3",
                     choices=("example1", "example2", "example3", "hash",
                              "wolfson", "tradeoff", "general"))
    par.add_argument("-n", "--processors", type=int, default=4)
    par.add_argument("--keep", type=float, default=0.5,
                     help="retention fraction for --scheme tradeoff")
    par.add_argument("--mp", action="store_true",
                     help="use real OS processes instead of the simulator")
    par.add_argument("--detect-termination", action="store_true",
                     help="run Safra's detector (simulator only)")
    par.add_argument("--delay-prob", type=float, default=0.0,
                     help="per-tuple chance in [0, 1] of one extra tick of "
                          "message delay, drawn at send (simulator only; "
                          "asynchrony injection)")
    par.add_argument("--seed", type=int, default=0,
                     help="RNG seed for delay injection (simulator only)")
    par.add_argument("--inject-fault", metavar="SPEC", action="append",
                     default=[],
                     help="inject a fault: kill:<tag>@<firings> (e.g. "
                          "kill:p1@50; --mp only), or a simulator-only "
                          "channel fault drop:<prob>, delay:<prob> or "
                          "dup:<prob>, optionally @<src>-><dst>; repeatable")
    par.add_argument("--recovery", choices=("fail", "restart", "checkpoint"),
                     default="fail",
                     help="what to do when a worker process dies (--mp "
                          "only): fail fast with a precise error, restart it "
                          "from its base fragment and replay peer sent-logs, "
                          "or resume it from its last coordinator-held "
                          "checkpoint and replay only unacknowledged "
                          "suffixes")
    par.add_argument("--max-restarts", type=int, default=3,
                     help="total worker restarts allowed per run before the "
                          "recovery policy gives up (>= 0)")
    par.add_argument("--checkpoint-interval", type=int, default=4,
                     help="bursts between worker checkpoints under "
                          "--recovery checkpoint (>= 1; ignored otherwise); "
                          "a burst is a run of steps that ends when the "
                          "worker has no staged input left")
    par.add_argument("--ack-deadline", type=float, default=None,
                     help="seconds a live worker may go without acking a "
                          "probe before the run is declared wedged "
                          "(default: derived from the processor count)")
    par.add_argument("--trace", metavar="PATH",
                     help="write a JSONL event trace to PATH")
    par.add_argument("--timeout", type=float, default=120.0)
    par.add_argument("--limit", type=int, default=20)
    par.add_argument("--stats", action="store_true")
    par.add_argument("--check", action="store_true",
                     help="verify against sequential evaluation")
    par.set_defaults(func=_cmd_parallel)

    trace = commands.add_parser(
        "trace", help="replay a JSONL trace into timelines and histograms")
    trace.add_argument("trace_file", help="JSONL trace written by "
                                          "`repro parallel --trace`")
    trace.add_argument("--json", action="store_true",
                       help="print the machine-readable summary dict")
    trace.add_argument("--send-cost", type=float, default=1.0,
                       help="cost-model work units per tuple sent")
    trace.add_argument("--recv-cost", type=float, default=1.0,
                       help="cost-model work units per tuple received")
    trace.add_argument("--round-overhead", type=float, default=0.0,
                       help="cost-model fixed per-round overhead")
    trace.set_defaults(func=_cmd_trace)

    net = commands.add_parser("network",
                              help="derive the minimal network graph")
    net.add_argument("program", help="Datalog program file (a linear sirup)")
    net.add_argument("--positions",
                     help="1-based attribute positions for v(r), e.g. 1,2")
    net.add_argument("--linear",
                     help="coefficients of a linear h, e.g. 1,-1,1")
    net.add_argument("--g-range", type=int, default=2)
    net.set_defaults(func=_cmd_network)

    wl = commands.add_parser("workloads", help="list built-in workloads")
    wl.set_defaults(func=_cmd_workloads)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
