"""Per-layer measurements of the e2e benchmark (the ``--trace 1`` run).

A layer is a module of ``src/repro``.  Nothing inside ``src/`` is
instrumented: every number here comes from timing a call into a
layer's public functions from this file, or from a counter the public
result objects already expose.

The seconds come from the *traced loop*: a single-process, round-based
drive of the workload's two ``ProcessorRuntime``s that makes the same
calls the executors make — fragment, construct, initialise, then per
round route, pack, pickle, unpickle, receive and step — with a span
opened and closed here around each call.  Spans are kept in memory and
written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from contextlib import contextmanager

from repro import Database, parse_program
from repro.engine import build_strata, compile_plan
from repro.facts import make_relation, pack_facts, unpack_facts
from repro.obs import AggregateSink, Tracer
from repro.parallel import ProcessorRuntime

from workloads import ANSWER_PREDICATE, BASE_PREDICATE

# Spans that only group others; their self time is what no layer covers.
STRUCTURAL = ("trace.loop", "round")
MAX_LOOPS = 5


class Spans:
    """In-memory span recorder: name, start, end and the causing span."""

    def __init__(self):
        self.rows = []
        self._open = []
        self.run = 0

    @contextmanager
    def span(self, name, **fields):
        row = {"run": self.run, "id": len(self.rows),
               "parent": self._open[-1] if self._open else None,
               "name": name, **fields}
        self.rows.append(row)
        self._open.append(row["id"])
        row["start"] = time.perf_counter()
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")


def self_times(rows):
    """Span id → duration minus the durations of its direct children."""
    own = {row["id"]: row["end"] - row["start"] for row in rows}
    for row in rows:
        if row["parent"] is not None:
            own[row["parent"]] -= row["end"] - row["start"]
    return own


def traced_loop(scheme, database, spans):
    """Drive the scheme's runtimes round by round under spans.

    Mirrors the simulator's barriered rounds (deliver everything in
    flight, then step every processor in order), so rounds and
    per-processor firings must equal the simulator's; remote batches
    additionally cross the mp wire format (pack → pickle → unpickle →
    ``receive_packed``).  Returns the runtimes, the round count and the
    remote batches in sending order.
    """
    order = sorted(scheme.processors)
    runtimes, routers, sent = {}, {}, []

    def route(sender, emissions, round_):
        by_predicate = {}
        for predicate, fact in emissions:
            by_predicate.setdefault(predicate, []).append(fact)
        messages = []
        for predicate, facts in by_predicate.items():
            with spans.span("routing.partition", processor=sender,
                            round=round_, facts=len(facts)):
                buckets, _ = routers[sender].partition(predicate, facts)
            for target, bucket in buckets.items():
                if target == sender:
                    messages.append((target, predicate, bucket, None))
                    continue
                with spans.span("facts.pack", processor=sender, round=round_,
                                facts=len(bucket)) as row:
                    blob = pickle.dumps(pack_facts(bucket))
                    row["bytes"] = len(blob)
                sent.append(bucket)
                messages.append((target, predicate, None, blob))
        return messages

    with spans.span("trace.loop"):
        in_flight = []
        for processor in order:
            with spans.span("plans.fragment", processor=processor):
                local = scheme.local_database(processor, database)
            with spans.span("processor.init", processor=processor) as row:
                program = scheme.program_for(processor)
                runtimes[processor] = ProcessorRuntime(program, local)
                emissions = runtimes[processor].initialize()
                row["facts"] = len(emissions)
            routers[processor] = program.router_table()
            in_flight.extend(route(processor, emissions, 0))
        rounds = 0
        while in_flight:
            rounds += 1
            with spans.span("round", round=rounds):
                for target, predicate, facts, blob in in_flight:
                    runtime = runtimes[target]
                    if blob is None:
                        with spans.span("processor.receive", processor=target,
                                        round=rounds, facts=len(facts)):
                            runtime.receive(predicate, facts, remote=False)
                        continue
                    with spans.span("facts.unpack", processor=target,
                                    round=rounds, bytes=len(blob)):
                        payload = pickle.loads(blob)
                    with spans.span("processor.receive", processor=target,
                                    round=rounds):
                        runtime.receive_packed(predicate, payload)
                in_flight = []
                for processor in order:
                    with spans.span("processor.step", processor=processor,
                                    round=rounds) as row:
                        emissions = runtimes[processor].step()
                        row["facts"] = len(emissions)
                    in_flight.extend(route(processor, emissions, rounds))
    return runtimes, rounds, sent


def loop_metrics(rows, runtimes, rounds):
    """The span-derived layer metrics of one traced loop."""
    own = self_times(rows)
    total = {}
    compute = {}
    routed = 0
    for row in rows:
        duration = row["end"] - row["start"]
        total[row["name"]] = total.get(row["name"], 0.0) + duration
        if row["name"] in ("processor.init", "processor.step"):
            compute[row["processor"]] = (
                compute.get(row["processor"], 0.0) + duration)
        if row["name"] == "routing.partition":
            routed += row["facts"]
    wall = total["trace.loop"]
    unaccounted = sum(own[row["id"]] for row in rows
                      if row["name"] in STRUCTURAL)
    firings = [runtime.counters.total_firings()
               for runtime in runtimes.values()]
    remote = sum(runtime.received_remote for runtime in runtimes.values())
    dropped = sum(runtime.duplicates_dropped for runtime in runtimes.values())
    partition_s = total.get("routing.partition", 0.0)
    return {
        "plans.fragment_s": total["plans.fragment"],
        "processor.init_s": total["processor.init"],
        "processor.step_s": total.get("processor.step", 0.0),
        "processor.receive_s": total.get("processor.receive", 0.0),
        "processor.rounds": rounds,
        "processor.dup_dropped_ratio": dropped / remote if remote else 0.0,
        "processor.load_imbalance": (max(firings) * len(firings)
                                     / sum(firings) if sum(firings) else 1.0),
        "routing.partition_s": partition_s,
        "routing.facts_per_s": routed / partition_s if partition_s else 0.0,
        "trace.loop_wall_s": wall,
        "trace.unaccounted_share": unaccounted / wall,
        "mp.critical_compute_s": max(compute.values()),
    }


def median_of(call, count):
    """Median wall of ``count`` calls of ``call``."""
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def fact_store(oracle, iterations):
    """Insert, re-insert, index and probe the answer in a bare relation."""
    answer = list(oracle.facts())
    size = max(1, len(answer) // max(1, iterations))
    batches = [answer[i:i + size] for i in range(0, len(answer), size)]
    relation = make_relation(ANSWER_PREDICATE, 2)
    started = time.perf_counter()
    fresh = sum(len(relation.add_new_many(batch)) for batch in batches)
    new_s = time.perf_counter() - started
    started = time.perf_counter()
    again = sum(len(relation.add_new_many(batch)) for batch in batches)
    dup_s = time.perf_counter() - started
    if fresh != len(answer) or again != 0:
        raise AssertionError("add_new_many miscounted new facts")
    started = time.perf_counter()
    relation.index_on((0,))
    index_s = time.perf_counter() - started
    keys = [(key,) for key in sorted({source for source, _ in answer})]
    passes = 50
    started = time.perf_counter()
    for _ in range(passes):
        for key in keys:
            if next(iter(relation.lookup((0,), key)))[0] != key[0]:
                raise AssertionError("lookup returned a foreign fact")
    lookup_s = time.perf_counter() - started
    return {
        "facts.insert_new_per_s": len(answer) / new_s,
        "facts.insert_dup_per_s": len(answer) / dup_s,
        "facts.index_build_s": index_s,
        "facts.lookup_per_s": passes * len(keys) / lookup_s,
    }


def wire(sent, batch_factor):
    """Pack + pickle and unpickle + unpack the run's sent tuples.

    ``sent`` is re-cut into batches of the mp run's mean batch size, the
    size at which the real executor pays these costs.
    """
    facts = [fact for bucket in sent for fact in bucket]
    size = max(1, round(batch_factor)) if batch_factor else max(1, len(facts))
    batches = [facts[i:i + size] for i in range(0, len(facts), size)]
    started = time.perf_counter()
    blobs = [pickle.dumps(pack_facts(batch)) for batch in batches]
    pack_s = time.perf_counter() - started
    started = time.perf_counter()
    back = [unpack_facts(pickle.loads(blob)) for blob in blobs]
    unpack_s = time.perf_counter() - started
    if back != batches:
        raise AssertionError("packed batches did not round-trip")
    return {
        "facts.pack_s": pack_s,
        "facts.unpack_s": unpack_s,
        "facts.wire_bytes_per_fact": (sum(map(len, blobs)) / len(facts)
                                      if facts else 0.0),
    }


def median_counter(records, name):
    """Lower median, so a count stays a count that was observed."""
    return statistics.median_low([record[name] for record in records])


def measure(executors, edges, walls, counters, seconds, single, spans_path):
    """Every per-layer metric of one workload, by name.

    ``executors`` carries the workload, its program, database, scheme
    and oracle; ``walls`` and ``counters`` are the untraced repetitions
    the ratios are read against.
    """
    deadline = time.perf_counter() + seconds
    workload, program = executors.workload, executors.program
    database, scheme = executors.database, executors.scheme
    oracle = executors.oracle
    processors = sorted(scheme.processors)
    wall = {name: statistics.median(samples) if samples else 0.0
            for name, samples in walls.items()}
    metrics = {}
    for records in counters.values():
        if records:
            metrics.update({name: median_counter(records, name)
                            for name in records[0]})
    firings = metrics.get("engine.firings", 0)
    facts_out = metrics.get("engine.facts_out", 0)
    iterations = metrics.get("engine.iterations", 0)

    repeats = 3 if single else 50
    metrics["datalog.parse_s"] = median_of(
        lambda: parse_program(workload.program), repeats)
    metrics["facts.load_s"] = median_of(
        lambda: Database.from_facts({BASE_PREDICATE: edges}),
        3 if single else 9)

    def plan():
        build_strata(program)
        for rule in program.proper_rules():
            compile_plan(rule)
    metrics["engine.plan_s"] = median_of(plan, repeats)
    metrics["rewrite.scheme_s"] = median_of(
        lambda: executors.rewrite(program, processors), repeats)
    metrics["rewrite.rules_total"] = sum(
        len(scheme.program_for(p).init_rules)
        + len(scheme.program_for(p).processing_rules)
        + len(scheme.program_for(p).routes) for p in processors)
    metrics["mp.ship_bytes"] = sum(
        len(pickle.dumps(scheme.program_for(p)))
        + len(pickle.dumps({relation.name: sorted(relation) for relation
                            in scheme.local_database(p, database)}))
        for p in processors)
    metrics.update(fact_store(oracle, iterations))

    # Tracing overhead: one traced run of each parallel executor over the
    # untraced medians.  The simulator run also gives the per-processor
    # firings the traced loop must reproduce.
    sink = AggregateSink()
    sim_traced_s, sim_result = executors.sim(tracer=Tracer(sink))
    metrics["obs.sim_events"] = sum(sink.by_kind.values())
    metrics["obs.sim_trace_overhead_ratio"] = (
        sim_traced_s / wall["sim"] if sim_traced_s and wall["sim"] else 0.0)
    sim_firings = dict(sim_result.metrics.firings) if sim_result else {}
    sim_rounds = sim_result.metrics.rounds if sim_result else None
    del sim_result
    sink = AggregateSink()
    mp_traced_s, mp_result = executors.mp(tracer=Tracer(sink))
    metrics["obs.mp_events"] = sum(sink.by_kind.values())
    metrics["obs.mp_trace_overhead_ratio"] = (
        mp_traced_s / wall["mp"] if mp_traced_s and wall["mp"] else 0.0)
    del mp_result

    # The executor's floor: spawn, two probe waves, stop and pooling with
    # nothing to compute.
    floor = []
    for _ in range(3 if single else 15):
        floor_s, _result = executors.mp(
            database=Database(),
            verdict=lambda result: (
                None if len(result.relation(ANSWER_PREDICATE)) == 0
                else "facts derived from an empty database"))
        if floor_s is not None:
            floor.append(floor_s)
    metrics["mp.floor_s"] = statistics.median(floor) if floor else 0.0

    # Traced loops: at least one, more while the time lasts.  Each is one
    # more counted operation: its pooled answer must be the oracle's and
    # its per-processor firings the simulator's.
    spans = Spans()
    loops = []
    while True:
        started = time.perf_counter()
        executors.attempted += 1
        first = len(spans.rows)
        runtimes, rounds, sent = traced_loop(scheme, database, spans)
        pooled = set()
        for runtime in runtimes.values():
            pooled.update(runtime.output_relation(ANSWER_PREDICATE))
        loop_firings = {p: runtimes[p].counters.total_firings()
                        for p in processors}
        if not oracle.accepts(pooled, len(pooled)):
            executors.failures.append(
                f"traced loop: answer of {len(pooled)} facts rejected by the "
                f"oracle ({oracle.size} expected)")
        elif loop_firings != sim_firings or rounds != sim_rounds:
            executors.failures.append(
                f"traced loop: firings {loop_firings} in {rounds} rounds "
                f"differ from the simulator's {sim_firings} in {sim_rounds}")
        else:
            loops.append(loop_metrics(spans.rows[first:], runtimes, rounds))
        del runtimes, pooled
        spans.run += 1
        took = time.perf_counter() - started
        if (single or spans.run >= MAX_LOOPS
                or time.perf_counter() + took > deadline):
            break
    if spans_path:
        spans.write(spans_path)
    if loops:
        metrics.update({name: statistics.median(loop[name] for loop in loops)
                        for name in loops[0]})
    metrics.update(wire(sent, metrics.get("mp.batch_factor", 0.0)))

    metrics["engine.useful_ratio"] = facts_out / firings if firings else 0.0
    metrics["engine.firings_per_s"] = firings / wall["seq"] if wall["seq"] else 0.0
    metrics["engine.s_per_iteration"] = (
        wall["seq"] / iterations if iterations else 0.0)
    metrics["sim.redundant_firings"] = metrics.get("sim.firings", 0) - firings
    metrics["sim.overhead_ratio"] = (
        wall["sim"] / wall["seq"] if wall["seq"] else 0.0)
    speedup = wall["seq"] / wall["mp"] if wall["mp"] else 0.0
    metrics["mp.speedup"] = speedup
    metrics["mp.efficiency"] = speedup / len(processors)
    metrics["mp.facts_per_s"] = facts_out / wall["mp"] if wall["mp"] else 0.0
    metrics["mp.overhead_s"] = wall["mp"] - metrics.get(
        "mp.critical_compute_s", 0.0)
    return metrics
