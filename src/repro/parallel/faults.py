"""Fault injection for the parallel executors.

The paper's correctness story (Theorem 1) makes worker failure benign
in principle: the parallel least model equals the sequential one, and
Datalog's monotonicity means re-deriving a fact is idempotent — a
restarted processor that replays its inputs converges to the same
answer, with duplicates discarded by the receiving step's difference
operation.  This module supplies the *faults* against which that claim
is exercised:

* **kill faults** — multiprocessing executor only.  Terminate
  processor *p* once its cumulative firing count reaches *N*
  (``kill:p1@50``): the worker writes out what its channels could not
  take yet, so every message it put is on the wire, and delivers a
  real ``SIGKILL`` to itself at the first step boundary past the
  threshold.  Kills are one-shot: a restarted worker is not re-killed.
  The simulator has no processes to kill and rejects a plan with a
  kill; the schedule explorer (``tests/parallel/test_protocol_explorer.py``)
  kills the mp protocol's machines at every step boundary instead.
* **channel faults** — simulator only.  For each tuple crossing a
  remote channel, independently ``drop`` it (it vanishes; the paper
  assumes reliable channels, so this demonstrates *why*), ``delay`` it
  (delivered two ticks late), or ``dup``licate it (delivered twice;
  harmless by monotonicity).  Decisions come from a seeded RNG, so runs
  are reproducible.  The mp executor's channels are local socket
  pairs, which are reliable, so it rejects a plan with channel faults.

Specs are parsed from the CLI's ``--inject-fault`` strings by
:func:`parse_fault_spec` / :func:`build_fault_plan`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ReproError

__all__ = [
    "DELAY",
    "DELIVER",
    "DROP",
    "DUPLICATE",
    "ChannelFault",
    "ChannelFaultState",
    "FaultPlan",
    "KillFault",
    "build_fault_plan",
    "parse_fault_spec",
]

# Channel-fault actions / per-tuple verdicts.
DELIVER = "deliver"
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"

_CHANNEL_ACTIONS = {"drop": DROP, "delay": DELAY, "dup": DUPLICATE,
                    "duplicate": DUPLICATE}


@dataclass(frozen=True)
class KillFault:
    """Kill one processor after its ``after_firings``-th firing.

    Attributes:
        processor: name-safe processor tag (see
            :func:`repro.parallel.naming.processor_tag`).
        after_firings: cumulative firing count that triggers the kill.
    """

    processor: str
    after_firings: int


@dataclass(frozen=True)
class ChannelFault:
    """Independently disturb each tuple on matching remote channels.

    Attributes:
        action: :data:`DROP`, :data:`DELAY` or :data:`DUPLICATE`.
        probability: per-tuple chance in ``[0, 1]`` of the disturbance.
        src: restrict to tuples sent by this processor tag (``None`` =
            any sender).
        dst: restrict to tuples destined for this tag (``None`` = any).
    """

    action: str
    probability: float
    src: Optional[str] = None
    dst: Optional[str] = None

    def applies(self, src: str, dst: str) -> bool:
        """True iff this fault covers the channel ``src -> dst``."""
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


class ChannelFaultState:
    """The simulator's seeded per-tuple decision maker.

    One global state draws one reproducible stream per plan seed.
    """

    def __init__(self, faults: Sequence[ChannelFault], seed: int) -> None:
        self.faults = tuple(faults)
        self._rng = random.Random(f"{seed}::channel-faults")
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0

    def decide(self, src: str, dst: str) -> str:
        """Verdict for one tuple on ``src -> dst``.

        The first matching fault whose dice roll hits wins; with no hit
        the tuple is delivered normally.
        """
        for fault in self.faults:
            if not fault.applies(src, dst):
                continue
            if self._rng.random() < fault.probability:
                if fault.action == DROP:
                    self.dropped += 1
                elif fault.action == DELAY:
                    self.delayed += 1
                else:
                    self.duplicated += 1
                return fault.action
        return DELIVER


@dataclass(frozen=True)
class FaultPlan:
    """Everything to inject into one run.

    Attributes:
        kills: kill faults, at most one per processor tag (mp only).
        channel_faults: channel disturbances (simulator only).
        seed: RNG seed for the channel-fault stream.
    """

    kills: Tuple[KillFault, ...] = ()
    channel_faults: Tuple[ChannelFault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        tags = [kill.processor for kill in self.kills]
        if len(tags) != len(set(tags)):
            raise ReproError("at most one kill fault per processor")

    def kill_thresholds(self, tags: Mapping[Hashable, str]
                        ) -> Dict[Hashable, int]:
        """The firing threshold of every processor a kill fault names.

        Args:
            tags: the run's processors, each mapped to its tag.

        Raises:
            ConfigurationError: if a kill fault names no processor of
                the run.
        """
        by_tag = {tag: proc for proc, tag in tags.items()}
        thresholds: Dict[Hashable, int] = {}
        for kill in self.kills:
            if kill.processor not in by_tag:
                raise ConfigurationError(
                    f"kill fault names unknown processor "
                    f"{kill.processor!r}; known: {sorted(by_tag)}")
            thresholds[by_tag[kill.processor]] = kill.after_firings
        return thresholds

    def channel_state(self) -> Optional[ChannelFaultState]:
        """The simulator's channel-fault decider (``None`` if clean)."""
        if not self.channel_faults:
            return None
        return ChannelFaultState(self.channel_faults, self.seed)

    def __bool__(self) -> bool:
        return bool(self.kills or self.channel_faults)


def parse_fault_spec(text: str):
    """Parse one ``--inject-fault`` spec string.

    Grammar::

        kill:<tag>@<firings>          e.g.  kill:p1@50
        drop:<prob>[@<src>-><dst>]    e.g.  drop:0.1   drop:0.5@p0->p1
        delay:<prob>[@<src>-><dst>]   e.g.  delay:0.25
        dup:<prob>[@<src>-><dst>]     e.g.  dup:0.05@*->p2

    ``*`` (or an empty side) matches any processor.

    Returns:
        A :class:`KillFault` or :class:`ChannelFault`.

    Raises:
        ReproError: on a malformed spec.
    """
    head, sep, rest = text.partition(":")
    head = head.strip().lower()
    if not sep or not rest:
        raise ReproError(
            f"malformed fault spec {text!r}: expected kind:args, e.g. "
            "kill:p1@50 or drop:0.1")
    if head == "kill":
        tag, sep, count = rest.partition("@")
        if not sep:
            raise ReproError(
                f"malformed kill spec {text!r}: expected kill:<tag>@<firings>")
        try:
            after = int(count)
        except ValueError:
            raise ReproError(
                f"malformed kill spec {text!r}: firing count {count!r} "
                "is not an integer") from None
        if after < 0:
            raise ReproError(f"kill spec {text!r}: firing count must be >= 0")
        if not tag:
            raise ReproError(f"kill spec {text!r}: empty processor tag")
        return KillFault(processor=tag.strip(), after_firings=after)
    if head in _CHANNEL_ACTIONS:
        prob_text, _sep, channel = rest.partition("@")
        try:
            probability = float(prob_text)
        except ValueError:
            raise ReproError(
                f"malformed fault spec {text!r}: probability {prob_text!r} "
                "is not a number") from None
        if not 0.0 <= probability <= 1.0:
            raise ReproError(
                f"fault spec {text!r}: probability must be in [0, 1]")
        src = dst = None
        if channel:
            src_text, arrow, dst_text = channel.partition("->")
            if not arrow:
                raise ReproError(
                    f"malformed fault spec {text!r}: channel must be "
                    "<src>-><dst>")
            src = src_text.strip() or None
            dst = dst_text.strip() or None
            src = None if src == "*" else src
            dst = None if dst == "*" else dst
        return ChannelFault(action=_CHANNEL_ACTIONS[head],
                            probability=probability, src=src, dst=dst)
    raise ReproError(
        f"unknown fault kind {head!r} in {text!r}: expected kill, drop, "
        "delay or dup")


def build_fault_plan(specs: Sequence[str], seed: int = 0) -> FaultPlan:
    """Parse a list of spec strings into one :class:`FaultPlan`."""
    kills = []
    channel = []
    for spec in specs:
        fault = parse_fault_spec(spec)
        if isinstance(fault, KillFault):
            kills.append(fault)
        else:
            channel.append(fault)
    return FaultPlan(kills=tuple(kills), channel_faults=tuple(channel),
                     seed=seed)
