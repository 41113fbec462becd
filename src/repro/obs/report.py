"""Replay a trace into timelines, histograms and a makespan breakdown.

The report layer is the read side of :mod:`repro.obs`: it consumes an
event stream (a JSONL file or an in-memory list) and reconstructs the
same per-processor/per-round counters :class:`~repro.parallel.metrics.
ParallelMetrics` accumulates during a live run — so a traced run can be
audited after the fact, and the two must agree exactly (the test suite
asserts they do).  Rendering is deliberately terminal-plain: ASCII
timelines, bar histograms, a channel heatmap and a cost-model makespan
breakdown consistent with :class:`~repro.parallel.metrics.CostModel`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # import lazily at runtime: obs must not depend on parallel
    from ..parallel.metrics import CostModel

from .events import (
    CHECKPOINT,
    LOG_TRUNCATE,
    PROBE,
    REPLAY,
    RESTORE,
    ROUND_END,
    RULE_FIRED,
    RUN_START,
    TUPLE_DROPPED,
    TUPLE_RECEIVED,
    TUPLE_SENT,
    TraceEvent,
    WORKER_DOWN,
    WORKER_RESTART,
    WORKER_SPAWN,
)
from .sinks import read_jsonl

__all__ = ["TraceReport", "load_trace"]

_BAR_CHARS = " .:-=+*#%@"


def load_trace(path: str) -> "TraceReport":
    """Build a report from a JSONL trace file."""
    return TraceReport(list(read_jsonl(path)))


def _bar(value: float, peak: float, width: int = 30) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1 if value > 0 else 0, round(width * value / peak))


def _cell_char(value: float, peak: float) -> str:
    if value <= 0:
        return "."
    index = min(len(_BAR_CHARS) - 1,
                1 + int((len(_BAR_CHARS) - 2) * value / peak))
    return _BAR_CHARS[index]


class TraceReport:
    """Aggregated view of one traced run.

    Attributes:
        scheme: scheme label from the ``run_start`` event (or ``"?"``).
        executor: ``simulator`` / ``mp`` / ``sequential``.
        processors: ordered processor tags.
        rounds: highest round number seen.
        firings: per-processor firing counts (``None`` proc → ``"seq"``).
        firings_by_round: round → per-processor firing counts.
        rule_firings: rule label → firing count.
        sent: channel ``(src, dst)`` → tuples sent.
        sent_by_round / received_by_round: round → per-processor counts.
        received / dropped: per-processor receive / duplicate counts.
        round_loads: per-round ``(work, sent, received)`` load maps from
            ``round_end`` events (the makespan inputs).
        probes: number of termination-detection control events.
        worker_downs: per-processor count of detected deaths.
        restarts: per-processor count of recovery restarts.
        replayed: per-processor count of tuples re-sent during replay
            (attributed to the replaying sender).
        checkpoints: per-processor count of checkpoints shipped.
        checkpoint_bytes: per-processor pickled checkpoint bytes.
        restores: per-processor count of restarts that resumed from a
            checkpoint instead of the base fragment.
        log_truncated: per-processor count of sent-log facts dropped
            after a peer's checkpoint watermark covered them.
    """

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        self.events = list(events)
        self.scheme = "?"
        self.executor = "?"
        self.processors: List[str] = []
        self.rounds = 0
        self.firings: Counter = Counter()
        self.firings_by_round: Dict[int, Counter] = {}
        self.rule_firings: Counter = Counter()
        self.sent: Counter = Counter()
        self.sent_by_round: Dict[int, Counter] = {}
        self.received: Counter = Counter()
        self.received_by_round: Dict[int, Counter] = {}
        self.dropped: Counter = Counter()
        self.round_loads: Dict[int, Tuple[Mapping[str, float],
                                          Mapping[str, float],
                                          Mapping[str, float]]] = {}
        self.probes = 0
        self.worker_downs: Counter = Counter()
        self.restarts: Counter = Counter()
        self.replayed: Counter = Counter()
        self.checkpoints: Counter = Counter()
        self.checkpoint_bytes: Counter = Counter()
        self.restores: Counter = Counter()
        self.log_truncated: Counter = Counter()
        seen_procs: List[str] = []
        for event in self.events:
            proc = event.proc if event.proc is not None else "seq"
            round_ = event.round if event.round is not None else 0
            self.rounds = max(self.rounds, round_)
            if event.kind == RUN_START:
                self.scheme = str(event.data.get("scheme", self.scheme))
                self.executor = str(event.data.get("executor", self.executor))
                procs = event.data.get("processors")
                if isinstance(procs, (list, tuple)):
                    seen_procs.extend(str(p) for p in procs)
            elif event.kind == WORKER_SPAWN:
                seen_procs.append(proc)
            elif event.kind == RULE_FIRED:
                self.firings[proc] += 1
                self.firings_by_round.setdefault(round_, Counter())[proc] += 1
                self.rule_firings[str(event.data.get("rule", "?"))] += 1
                seen_procs.append(proc)
            elif event.kind == TUPLE_SENT:
                # Batched emitters collapse N tuples into one counted
                # event; weighting by the count keeps the report equal
                # to the live per-tuple accounting.
                count = int(event.data.get("count", 1))  # type: ignore[call-overload]
                self.sent[(proc, str(event.data.get("dst", "?")))] += count
                self.sent_by_round.setdefault(round_, Counter())[proc] += count
            elif event.kind == TUPLE_RECEIVED:
                count = int(event.data.get("count", 1))  # type: ignore[call-overload]
                self.received[proc] += count
                self.received_by_round.setdefault(
                    round_, Counter())[proc] += count
            elif event.kind == TUPLE_DROPPED:
                self.dropped[proc] += int(event.data.get("count", 1))  # type: ignore[call-overload]
            elif event.kind == ROUND_END:
                self.round_loads[round_] = (
                    event.data.get("work", {}),    # type: ignore[arg-type]
                    event.data.get("sent", {}),    # type: ignore[arg-type]
                    event.data.get("received", {}))  # type: ignore[arg-type]
            elif event.kind == PROBE:
                self.probes += 1
            elif event.kind == WORKER_DOWN:
                self.worker_downs[proc] += 1
            elif event.kind == WORKER_RESTART:
                self.restarts[proc] += 1
            elif event.kind == REPLAY:
                self.replayed[proc] += int(event.data.get("count", 0))  # type: ignore[call-overload]
            elif event.kind == CHECKPOINT:
                self.checkpoints[proc] += 1
                self.checkpoint_bytes[proc] += int(event.data.get("nbytes", 0))  # type: ignore[call-overload]
            elif event.kind == RESTORE:
                self.restores[proc] += 1
            elif event.kind == LOG_TRUNCATE:
                self.log_truncated[proc] += int(event.data.get("count", 0))  # type: ignore[call-overload]
        # Stable processor order: first appearance wins.
        for proc in seen_procs:
            if proc not in self.processors:
                self.processors.append(proc)

    # ------------------------------------------------------------------
    # Derived tables
    # ------------------------------------------------------------------
    def total_firings(self) -> int:
        """Firings summed over all processors."""
        return sum(self.firings.values())

    def total_sent(self) -> int:
        """Tuples that crossed a remote channel."""
        return sum(self.sent.values())

    def per_round_firings(self) -> List[Tuple[int, int]]:
        """``(round, total firings)`` rows, rounds ascending."""
        return [(round_, sum(counts.values()))
                for round_, counts in sorted(self.firings_by_round.items())]

    def makespan(self, cost: Optional[CostModel] = None) -> float:
        """Cost-model makespan replayed from the ``round_end`` loads.

        Matches :meth:`repro.parallel.metrics.ParallelMetrics.makespan`
        for the same run and cost model.
        """
        rows = self.makespan_breakdown(cost)
        return rows[-1][3] if rows else 0.0

    def makespan_breakdown(self, cost: Optional[CostModel] = None
                           ) -> List[Tuple[int, str, float, float]]:
        """Per-round ``(round, critical proc, peak load, cumulative)``."""
        from ..parallel.metrics import CostModel
        cost = cost if cost is not None else CostModel()
        rows: List[Tuple[int, str, float, float]] = []
        cumulative = 0.0
        for round_ in sorted(self.round_loads):
            work, sent, received = self.round_loads[round_]
            peak, critical = 0.0, "-"
            for proc in self.processors:
                load = (float(work.get(proc, 0.0))
                        + cost.send_cost * float(sent.get(proc, 0))
                        + cost.recv_cost * float(received.get(proc, 0)))
                if load > peak:
                    peak, critical = load, proc
            cumulative += peak + cost.round_overhead
            rows.append((round_, critical, peak, cumulative))
        return rows

    def summary(self, cost: Optional[CostModel] = None) -> Dict[str, object]:
        """A flat, JSON-compatible summary (``repro trace --json``).

        Keys mirror :meth:`~repro.parallel.metrics.ParallelMetrics.
        summary` where both exist, so traced and live numbers can be
        diffed directly.  ``makespan`` is priced with ``cost`` (default
        :class:`~repro.parallel.metrics.CostModel`), as in
        :meth:`render`.
        """
        return {
            "scheme": self.scheme,
            "executor": self.executor,
            "processors": len(self.processors),
            "rounds": self.rounds,
            "events": len(self.events),
            "firings": self.total_firings(),
            "firings_by_proc": {proc: self.firings.get(proc, 0)
                                for proc in self.processors},
            "sent": self.total_sent(),
            "received": sum(self.received.values()),
            "dup_dropped": sum(self.dropped.values()),
            "channels_used": sum(1 for count in self.sent.values()
                                 if count > 0),
            "control_messages": self.probes,
            "worker_down": sum(self.worker_downs.values()),
            "restarts": sum(self.restarts.values()),
            "replayed": sum(self.replayed.values()),
            "checkpoints": sum(self.checkpoints.values()),
            "checkpoint_bytes": sum(self.checkpoint_bytes.values()),
            "restores": sum(self.restores.values()),
            "log_truncated": sum(self.log_truncated.values()),
            "makespan": self.makespan(cost),
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def timeline(self) -> str:
        """Per-processor activity timeline, one column per round.

        Cell intensity scales with the processor's firings that round;
        ``.`` marks an idle round.
        """
        if not self.processors:
            return "(no processor activity)"
        rounds = range(0, self.rounds + 1)
        peak = max((count for counts in self.firings_by_round.values()
                    for count in counts.values()), default=0)
        width = max([len(proc) for proc in self.processors] + [len("round")])
        lines = [f"{'round'.rjust(width)}  "
                 + "".join(str(r % 10) for r in rounds)]
        for proc in self.processors:
            cells = "".join(
                _cell_char(self.firings_by_round.get(r, {}).get(proc, 0),
                           peak)
                for r in rounds)
            lines.append(f"{proc.rjust(width)}  {cells}")
        return "\n".join(lines)

    def firing_histogram(self) -> str:
        """Total firings per round as an ASCII bar chart."""
        rows = self.per_round_firings()
        if not rows:
            return "(no firings)"
        peak = max(count for _, count in rows)
        return "\n".join(f"round {round_:>4}  {count:>6}  {_bar(count, peak)}"
                         for round_, count in rows)

    def comm_histogram(self) -> str:
        """Tuples sent per round as an ASCII bar chart."""
        rows = [(round_, sum(counts.values()))
                for round_, counts in sorted(self.sent_by_round.items())]
        if not rows:
            return "(no communication)"
        peak = max(count for _, count in rows)
        return "\n".join(f"round {round_:>4}  {count:>6}  {_bar(count, peak)}"
                         for round_, count in rows)

    def channel_heatmap(self) -> str:
        """Sender × receiver matrix of tuples sent."""
        if not self.sent:
            return "(no channel traffic)"
        procs = self.processors
        width = max([len(p) for p in procs] + [5])
        peak = max(self.sent.values())
        header = " " * width + " " + " ".join(p.rjust(width) for p in procs)
        lines = [header]
        for src in procs:
            cells = []
            for dst in procs:
                count = self.sent.get((src, dst), 0)
                cells.append((str(count) if count else ".").rjust(width))
            lines.append(f"{src.rjust(width)} " + " ".join(cells))
        lines.append(f"(peak channel: {peak} tuples)")
        return "\n".join(lines)

    def fault_log(self) -> str:
        """Chronological narrative of failure/recovery events.

        Lists every ``worker_down`` / ``worker_restart`` / ``replay`` /
        ``checkpoint`` / ``restore`` / ``log_truncate`` event in stream
        order, so a traced run under fault injection can be audited
        step by step.
        """
        lines: List[str] = []
        for event in self.events:
            proc = event.proc if event.proc is not None else "?"
            if event.kind == WORKER_DOWN:
                detail = ", ".join(f"{k}={v}" for k, v in
                                   sorted(event.data.items()))
                lines.append(f"  DOWN     {proc}"
                             + (f"  ({detail})" if detail else ""))
            elif event.kind == WORKER_RESTART:
                detail = ", ".join(f"{k}={v}" for k, v in
                                   sorted(event.data.items()))
                lines.append(f"  RESTART  {proc}"
                             + (f"  ({detail})" if detail else ""))
            elif event.kind == REPLAY:
                dst = event.data.get("dst", "?")
                count = event.data.get("count", "?")
                lines.append(f"  REPLAY   {proc} -> {dst}  ({count} tuples)")
            elif event.kind == CHECKPOINT:
                facts = event.data.get("facts", "?")
                nbytes = event.data.get("nbytes", "?")
                lines.append(f"  CHECKPT  {proc}  ({facts} facts, "
                             f"{nbytes} bytes)")
            elif event.kind == RESTORE:
                facts = event.data.get("facts", "?")
                lines.append(f"  RESTORE  {proc}  ({facts} facts "
                             f"from checkpoint)")
            elif event.kind == LOG_TRUNCATE:
                dst = event.data.get("dst", "?")
                count = event.data.get("count", "?")
                lines.append(f"  TRUNCATE {proc} -> {dst}  ({count} tuples)")
        if not lines:
            return "(no failures)"
        return "\n".join(lines)

    def render(self, cost: Optional[CostModel] = None) -> str:
        """The full human-readable report."""
        parts = [
            f"trace report — scheme={self.scheme} executor={self.executor} "
            f"processors={len(self.processors)} rounds={self.rounds} "
            f"events={len(self.events)}",
            "",
            "per-processor timeline (firings per round):",
            self.timeline(),
            "",
            "firings per round:",
            self.firing_histogram(),
            "",
            "tuples sent per round:",
            self.comm_histogram(),
            "",
            "channel heatmap (tuples sent, sender rows -> receiver columns):",
            self.channel_heatmap(),
        ]
        if (self.worker_downs or self.restarts or self.replayed
                or self.checkpoints or self.restores or self.log_truncated):
            parts.extend(["", "failures and recovery:", self.fault_log()])
        breakdown = self.makespan_breakdown(cost)
        if breakdown:
            parts.extend(["", "makespan breakdown (cost model):"])
            for round_, critical, peak, cumulative in breakdown:
                parts.append(f"  round {round_:>4}  peak {peak:>8.1f} "
                             f"on {critical:<8} cumulative {cumulative:>10.1f}")
            parts.append(f"  makespan: {self.makespan(cost):.1f} work units")
        top = self.rule_firings.most_common(5)
        if top:
            parts.extend(["", "hottest rules:"])
            for rule, count in top:
                parts.append(f"  {count:>7}  {rule}")
        return "\n".join(parts)
