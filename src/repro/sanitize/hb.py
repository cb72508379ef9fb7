"""Happens-before race detection over simulated strands (schedsan layer 2).

A *strand* is one logical thread of control: a simulated
:class:`~repro.sim.process.Process`, or one incarnation of an RPC node's
inbox drain (:class:`~repro.net.rpc.DispatchStrand`, start to stop) —
whatever the ``step_enter`` / ``step_exit`` probes bracket a step of.
Each strand carries a vector clock (``{strand_id: count}``); clocks
advance at every resume and every message send, and merge along the
paths that actually order execution:

* **scheduling edges** — every scheduled entry (callback, future
  trigger, timeout) is stamped with the scheduler's clock when it is
  pushed; the dispatch that takes it inherits that clock, and any strand
  resumed inside the dispatch joins it. This single mechanism covers
  future triggers, lock grants, timer hand-offs and process forks
  (a process's kick-off callback carries its parent's clock).
* **message edges** — :meth:`Network.send` stamps the sender's clock by
  ``msg_id`` (riding the envelope the way ``span_id`` does, without
  widening the frozen Message), and the RPC layer joins it when the
  serving/ completing site picks the message up. This closes the gap
  the scheduling edges leave open: the greedy inbox drain handles
  messages its wake-up event did not carry.

Conflicting accesses (two accesses to the same per-site key, at least
one a write) whose clocks are *incomparable* are flagged as races: the
outcome depends on the same-timestamp tie-break, which is exactly what
``repro schedfuzz`` perturbs. Access keys are protocol-level: committed
copies (``("copy", item)``) and the session vector (``("session",)``);
lock-table and WAL traffic is recorded as ordering *notes* (context for
reports) rather than race-checked — concurrent lock requests and log
appends are the protocol's normal operation, serialized by design.

The detector additionally runs a **coroutine-atomicity check**: a strand
that reads a tracked key (recording the value token and its yield
epoch), yields, and later writes the same key while the token changed
underneath it — without re-reading — acted on a stale pre-yield read.
That is the dynamic companion of replint rule REP007.

Reports over-approximate on purpose: the protocol *tolerates* some
unordered interleavings (e.g. an operation racing a session install is
resolved by SessionMismatch + retry), so race reports are opt-in
diagnostics while the schedfuzz gate proper compares end-state
fingerprints and audit alerts, which are immune to benign races.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process

#: Sentinel: access carries no value token (no atomicity bookkeeping).
_UNSET = object()

Key = typing.Tuple[object, ...]
Clock = typing.Dict[int, int]


def clock_leq(a: Clock, b: Clock) -> bool:
    """True iff ``a`` happens-before-or-equals ``b`` (componentwise <=)."""
    return all(count <= b.get(sid, 0) for sid, count in a.items())


@dataclasses.dataclass(frozen=True)
class RaceReport:
    """One conflicting, happens-before-unordered access pair."""

    kind: str  # "write-write" | "read-write" | "atomicity"
    site: int
    key: Key
    first_where: str  # the earlier-recorded access site
    second_where: str  # the access that exposed the conflict
    time: float

    def render(self) -> str:
        return (
            f"[{self.kind}] site {self.site} key {self.key!r} @t={self.time:g}: "
            f"{self.first_where} || {self.second_where}"
        )


class _Strand:
    """Per-process clock + yield-epoch + pre-yield read bookkeeping."""

    __slots__ = ("sid", "name", "vc", "epoch", "reads")

    def __init__(self, sid: int, name: str) -> None:
        self.sid = sid
        self.name = name
        self.vc: Clock = {}
        #: Resume counter: incremented on every step, so ``epoch`` is
        #: strictly larger after any intervening yield.
        self.epoch = 0
        #: key -> (epoch, token, where) of the strand's last tokened read.
        self.reads: dict[tuple[int, Key], tuple[int, object, str]] = {}


class RaceDetector:
    """Vector-clock race + atomicity checker for one kernel run."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.races: list[RaceReport] = []
        #: Recent lock/WAL boundary notes: (time, site, key, where).
        self.notes: collections.deque = collections.deque(maxlen=256)
        self.accesses_checked = 0
        self._next_sid = 1
        #: Keyed by the process itself, not ``id(process)``: the entry
        #: pins the process, so a dead one's address can never be reused
        #: by a new process that would then inherit its clock.
        self._strands: dict["Process", _Strand] = {}
        self._current: _Strand | None = None
        #: Clock inherited by the dispatch currently running (the entry's
        #: scheduler clock); accesses outside any strand use it, gaining
        #: a lazily-allocated pseudo-strand component on first use.
        self._ambient: Clock = {}
        self._ambient_sid: int | None = None
        self._entry_vc: dict[int, Clock] = {}  # heap seq -> scheduler clock
        self._msg_vc: dict[int, Clock] = {}  # msg_id -> sender clock
        #: (site, key) -> {sid: (clock, where)} of unordered last accesses.
        self._writes: dict[tuple[int, Key], dict[int, tuple[Clock, str]]] = {}
        self._reads: dict[tuple[int, Key], dict[int, tuple[Clock, str]]] = {}
        self._tokens: dict[tuple[int, Key], object] = {}
        self._seen: set[tuple] = set()

    # -- clock context -------------------------------------------------------

    def _snap(self) -> Clock:
        """Copy of the clock governing whatever code is running now."""
        if self._current is not None:
            return dict(self._current.vc)
        return dict(self._ambient)

    def _context(self) -> tuple[int, Clock, _Strand | None]:
        """(strand id, live clock, strand) for the running context."""
        if self._current is not None:
            return self._current.sid, self._current.vc, self._current
        if self._ambient_sid is None:
            # First tracked access of a strand-less dispatch: give the
            # dispatch its own identity so a second, causally unrelated
            # dispatch at the same instant is not mistaken for it.
            self._ambient_sid = self._next_sid
            self._next_sid += 1
            self._ambient[self._ambient_sid] = (
                self._ambient.get(self._ambient_sid, 0) + 1
            )
        return self._ambient_sid, self._ambient, None

    # -- kernel seams --------------------------------------------------------

    def on_scheduled(self, seq: int) -> None:
        """Entry ``seq`` was pushed by the running context."""
        self._entry_vc[seq] = self._snap()

    def begin_dispatch(self, seq: int, fn: object, entry: object) -> None:
        """Entry ``seq`` is about to be processed."""
        self._ambient = self._entry_vc.pop(seq, {})
        self._ambient_sid = None
        self._current = None

    def end_dispatch(self) -> None:
        self._ambient = {}
        self._ambient_sid = None
        self._current = None

    # -- process seams -------------------------------------------------------

    def enter_step(self, process: "Process") -> None:
        """``process`` (or a dispatch strand) resumes inside the current
        dispatch."""
        strand = self._strands.get(process)
        if strand is None:
            strand = _Strand(self._next_sid, process.name)
            self._next_sid += 1
            self._strands[process] = strand
        vc = strand.vc
        for sid, count in self._ambient.items():
            if count > vc.get(sid, 0):
                vc[sid] = count
        vc[strand.sid] = vc.get(strand.sid, 0) + 1
        strand.epoch += 1
        self._current = strand

    def exit_step(self, process: "Process") -> None:
        self._current = None

    # -- message seams -------------------------------------------------------

    def on_send(self, msg_id: int) -> None:
        """Stamp the sender's clock on message ``msg_id`` (send event)."""
        if self._current is not None:
            strand = self._current
            strand.vc[strand.sid] = strand.vc.get(strand.sid, 0) + 1
        self._msg_vc[msg_id] = self._snap()

    def join_message(self, msg_id: int) -> None:
        """The receiving site picked up message ``msg_id``."""
        vc = self._msg_vc.pop(msg_id, None)
        if not vc:
            return
        target = self._current.vc if self._current is not None else self._ambient
        for sid, count in vc.items():
            if count > target.get(sid, 0):
                target[sid] = count

    # -- access tracking -----------------------------------------------------

    def on_access(
        self,
        site: int,
        key: Key,
        kind: str,
        where: str,
        token: object = _UNSET,
    ) -> None:
        """Record one protocol-state access and race-check it.

        ``kind`` is ``"read"``/``"write"`` (race-checked) or ``"note"``
        (ordering context only: lock table, WAL append).
        """
        if kind == "note":
            self.notes.append((self.kernel.now, site, key, where))
            return
        self.accesses_checked += 1
        sid, vc, strand = self._context()
        k = (site, key)
        if kind == "read":
            self._check_against(self._writes.get(k), sid, vc, site, key,
                                "read-write", where)
            slot = self._reads.setdefault(k, {})
            slot[sid] = (dict(vc), where)
            if strand is not None and token is not _UNSET:
                strand.reads[k] = (strand.epoch, token, where)
            return
        # write
        self._check_against(self._writes.get(k), sid, vc, site, key,
                            "write-write", where)
        self._check_against(self._reads.get(k), sid, vc, site, key,
                            "read-write", where)
        if strand is not None:
            self._check_atomicity(strand, k, where)
        if token is not _UNSET:
            self._tokens[k] = token
        slot = self._writes.setdefault(k, {})
        # FastTrack-style pruning: accesses ordered before this write
        # can never race anything this write does not also race.
        for other_sid in [s for s, (ovc, _w) in slot.items()
                          if clock_leq(ovc, vc)]:
            del slot[other_sid]
        slot[sid] = (dict(vc), where)

    def _check_against(
        self,
        slot: dict[int, tuple[Clock, str]] | None,
        sid: int,
        vc: Clock,
        site: int,
        key: Key,
        kind: str,
        where: str,
    ) -> None:
        if not slot:
            return
        for other_sid, (other_vc, other_where) in slot.items():
            if other_sid == sid or clock_leq(other_vc, vc):
                continue
            self._report(kind, site, key, other_where, where)

    def _check_atomicity(self, strand: _Strand, k: tuple[int, Key],
                         where: str) -> None:
        record = strand.reads.get(k)
        if record is None:
            return
        epoch, token, read_where = record
        if epoch >= strand.epoch:
            return  # read and write in the same resume: no yield between
        current = self._tokens.get(k, _UNSET)
        if current is _UNSET or current == token:
            return  # nothing changed underneath the strand
        del strand.reads[k]
        self._report("atomicity", k[0], k[1], read_where, where)

    def _report(self, kind: str, site: int, key: Key,
                first_where: str, second_where: str) -> None:
        dedupe = (kind, site, key, first_where, second_where)
        if dedupe in self._seen:
            return
        self._seen.add(dedupe)
        self.races.append(RaceReport(
            kind=kind, site=site, key=key, first_where=first_where,
            second_where=second_where, time=self.kernel.now,
        ))

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        kinds = collections.Counter(r.kind for r in self.races)
        return {
            "races": len(self.races),
            "by_kind": dict(kinds),
            "accesses_checked": self.accesses_checked,
        }

    def render(self) -> str:
        if not self.races:
            return "schedsan: no happens-before races detected"
        lines = [f"schedsan: {len(self.races)} race report(s)"]
        lines.extend("  " + report.render() for report in self.races)
        return "\n".join(lines)


def attach_detector(kernel: "Kernel") -> RaceDetector:
    """Create a detector and subscribe it to ``kernel``'s probe bus.

    Detector state is per kernel: the scheduling, message and
    state-access edges it threads all arrive through ``kernel.probes``,
    so two kernels in one process never see each other's traffic and
    nothing outlives the kernel (``kernel.probes.detach(detector)``
    removes it early).
    """
    detector = RaceDetector(kernel)
    kernel.probes.subscribe(
        scheduled=detector.on_scheduled,
        dispatch_begin=detector.begin_dispatch,
        dispatch_end=detector.end_dispatch,
        step_enter=detector.enter_step,
        step_exit=detector.exit_step,
        send=detector.on_send,
        join=detector.join_message,
        access=detector.on_access,
    )
    return detector
