"""Continuous profiling: host-CPU attribution and sim-time flamegraphs.

Two views over where time goes, one per time domain:

**View 1 — host CPU** (:class:`HostProfiler`). The kernel's dispatch
loop is the only place host cycles are ever spent during a simulation,
so attaching there covers everything. The profiler subscribes to the
kernel's drain-loop probes (``kernel.probes``) and reads its own host
clock (from :mod:`repro.obs.hostclock` — the sanctioned REP001 seam;
the kernel itself never imports ``time``) at *run boundaries*: a run is
a maximal stretch of consecutive events sharing one dispatch signature
(a Future's waiter-list identity, a Callback's function). The common
storms — thousands of bare timeouts, one process resumed again and
again — therefore cost two clock reads total rather than two per event,
which is what keeps the profiler cheap (its cost is part of the
reference benchmark's ``obs.trace_overhead_pct``). Charging whole runs
keeps the headline invariant exact: the per-subsystem exclusive
``cpu_s`` sum to the wall time spent inside the dispatch loop.

Each run is attributed to a *subsystem label* derived from the owning
module of the code the events dispatch into: a resumed process is
labelled by its generator's defining file, a callback by its function's
module, a bare future/timeout (no waiters) by the kernel itself. The
:func:`subsystem_of_module` prefix map turns module paths into the
stable label set (kernel/net/tm/dm/locks/wal/copier/recovery/mvcc/
audit/obs/workload/site).

An optional :class:`StackSampler` (``repro profile --sample``) rides on
``sys.setprofile`` and folds exclusive host time per Python call stack
— the drill-down view when a subsystem's share moved and the question
becomes *which function*.

**View 2 — sim-time flamegraphs** (:func:`folded_stacks`). The span
tree already records where *simulated* time goes; the fold collapses it
into root-to-leaf label paths, charging every instant of a root span's
window to exactly one path (children clipped to their parent's window,
latest-started span winning overlaps). Exports as flamegraph.pl
collapsed text (:func:`export_folded`) and speedscope JSON
(:func:`export_speedscope`).

Profiler results deliberately stay *out* of the metrics registry: they
are host-machine wall-clock quantities, and the registry snapshots must
remain deterministic for a fixed seed. They surface instead as the
``prof.*`` mapping of :meth:`HostProfiler.metrics`, the rendered
:func:`render_profile` table, and the ``profile`` section of the
recovery-timeline report. See docs/OBSERVABILITY.md §Profiling.
"""

from __future__ import annotations

import json
import sys
import typing

from repro.obs import hostclock
from repro.sim.process import Process

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.spans import Span, SpanRecorder
    from repro.sim.kernel import Kernel

# -- subsystem labels ----------------------------------------------------------

#: Module-prefix → subsystem label, longest prefix first. ``harness``
#: folds into ``workload``: both are load generation and scenario
#: driving, not protocol work.
_MODULE_LABELS: tuple[tuple[str, str], ...] = (
    ("repro.txn.data_manager", "dm"),
    ("repro.txn.locks", "locks"),
    ("repro.txn.deadlock", "locks"),
    ("repro.core.copier", "copier"),
    ("repro.sim", "kernel"),
    ("repro.net", "net"),
    ("repro.txn", "tm"),
    ("repro.baselines", "tm"),
    ("repro.storage", "dm"),
    ("repro.wal", "wal"),
    ("repro.core", "recovery"),
    ("repro.site", "site"),
    ("repro.mvcc", "mvcc"),
    ("repro.audit", "audit"),
    ("repro.obs", "obs"),
    ("repro.histories", "audit"),
    ("repro.workload", "workload"),
    ("repro.harness", "workload"),
    ("repro.system", "workload"),
)


def subsystem_of_module(module: str) -> str:
    """The subsystem label owning a dotted module path."""
    for prefix, label in _MODULE_LABELS:
        if module == prefix or module.startswith(prefix + "."):
            return label
    return "other"


def subsystem_of_path(path: str) -> str:
    """The subsystem label owning a source file path."""
    normalized = path.replace("\\", "/")
    index = normalized.rfind("/repro/")
    if index < 0:
        return "other"
    dotted = normalized[index + 1:].removesuffix(".py").replace("/", ".")
    return subsystem_of_module(dotted)


# -- view 1: host-CPU attribution ----------------------------------------------


class HostProfiler:
    """Attributes the kernel dispatch loop's host CPU to subsystems.

    Attach with :meth:`attach` (or ``build_traced_scheme(...,
    profile=True)`` / ``repro profile``): the profiler subscribes to the
    kernel's ``loop_enter`` / ``dispatch_begin`` / ``loop_exit`` probes
    and reads its host clock at *run boundaries* only. A run is a
    maximal stretch of consecutive events sharing one dispatch
    signature — the ``fn`` of a zero-delay callback, else
    ``entry._callbacks`` (the waiter-list identity of a Future; the
    class sentinel redirects a Callback to its ``fn``) — so
    a storm of bare timeouts or repeated resumes of one process costs
    two clock reads total, not two per event. Each boundary's clock
    read both closes one run and opens the next, so the charges tile
    the loop's wall time exactly: the per-subsystem ``cpu_s`` sum to
    ``dispatch_wall_s`` up to float rounding, under any combination of
    other probes. Bookkeeping is O(1) per *run*, not per event — the
    resolve caches make repeat signatures a dict hit.
    """

    def __init__(self, clock: typing.Callable[[], float] | None = None) -> None:
        #: The host clock, read at run boundaries; the injection point
        #: that keeps ``time`` imports out of SIM_TIME scope.
        self.clock = clock if clock is not None else hostclock.now
        #: Exclusive host CPU per subsystem label, seconds.
        self.cpu_s: dict[str, float] = {}
        #: Events dispatched per subsystem label.
        self.events: dict[str, int] = {}
        #: Wall time spent inside the kernel's drain loop(s) while
        #: attached, taken from the same clock reads that bound the
        #: charges — so ``sum(cpu_s.values())`` equals this up to float
        #: rounding.
        self.dispatch_wall_s = 0.0
        self._code_labels: dict[object, str] = {}
        self._target_labels: dict[object, str] = {}
        self._kernel: typing.Any = None
        # The open run: its signature, events so far, and the clock
        # reads that opened it and the enclosing loop.
        self._sig: typing.Any = None
        self._run_events = 0
        self._run_start = 0.0
        self._loop_start = 0.0

    # -- kernel wiring --------------------------------------------------------

    def attach(self, kernel: "Kernel") -> None:
        """Subscribe to ``kernel``'s drain-loop probes."""
        kernel.probes.subscribe(
            loop_enter=self._on_loop_enter,
            dispatch_begin=self._on_dispatch,
            loop_exit=self._on_loop_exit,
        )
        self._kernel = kernel

    def detach(self) -> None:
        """Unsubscribe; the kernel's bus is as it was before attach."""
        if self._kernel is not None:
            self._kernel.probes.detach(self)
            self._kernel = None

    # -- accumulation ---------------------------------------------------------

    def _on_loop_enter(self) -> None:
        self._sig = None
        self._run_events = 0
        self._loop_start = self._run_start = self.clock()

    def _on_dispatch(self, seq: int, fn: typing.Any, entry: typing.Any) -> None:
        sig = fn
        if sig is None:
            sig = entry._callbacks
            if sig is None:
                sig = entry.fn
        if sig is not self._sig:
            if self._run_events:
                now = self.clock()
                self._charge(self._sig, now - self._run_start, self._run_events)
                self._run_start = now
                self._run_events = 0
            # The first live event opens its run without a clock read,
            # so the pre-loop sliver lands in it and the charges still
            # tile the whole loop.
            self._sig = sig
        self._run_events += 1

    def _on_loop_exit(self) -> None:
        now = self.clock()
        # With no live events the loop still cost a sliver of wall
        # time; it is booked against the kernel (``sig=None``) so the
        # charges keep summing to dispatch_wall_s exactly.
        self._charge(self._sig, now - self._run_start, self._run_events)
        self._sig = None
        self.dispatch_wall_s += now - self._loop_start

    def _charge(self, sig: typing.Any, dt: float, n_events: int) -> None:
        """Credit one signature run: ``dt`` host seconds, ``n_events`` events.

        ``sig`` is the run's dispatch signature (a callable for a
        Callback, the waiter list for a Future, ``None`` for an idle
        loop).
        """
        label = self._resolve(sig)
        self.cpu_s[label] = self.cpu_s.get(label, 0.0) + dt
        self.events[label] = self.events.get(label, 0) + n_events

    def _resolve(self, sig: typing.Any) -> str:
        if callable(sig):
            target = sig  # a Callback's fn
        elif sig:
            target = sig[0]  # the first waiter on a Future
        else:
            return "kernel"  # bare timeout/future: pure heap work
        owner = getattr(target, "__self__", None)
        if isinstance(owner, Process):
            # A process resume: the CPU goes into the generator body,
            # so label by the generator's defining file (survives
            # generator exhaustion; memoized per code object).
            code = owner._generator.gi_code
            label = self._code_labels.get(code)
            if label is None:
                label = subsystem_of_path(code.co_filename)
                self._code_labels[code] = label
            return label
        key = getattr(target, "__func__", target)
        try:
            label = self._target_labels.get(key)
        except TypeError:  # unhashable callable: resolve uncached
            key = None
            label = None
        if label is None:
            if owner is not None:
                module = type(owner).__module__
            else:
                module = getattr(target, "__module__", None) or ""
            label = subsystem_of_module(module)
            if key is not None:
                self._target_labels[key] = label
        return label

    # -- results --------------------------------------------------------------

    @property
    def total_cpu_s(self) -> float:
        """Host CPU attributed across all subsystems."""
        return sum(self.cpu_s.values())

    @property
    def total_events(self) -> int:
        """Events dispatched while the profiler was attached."""
        return sum(self.events.values())

    def report(self) -> dict:
        """The attribution report, subsystems sorted by cpu_s descending."""
        total = self.total_cpu_s
        subsystems: dict[str, dict] = {}
        for label, cpu in sorted(
            self.cpu_s.items(), key=lambda item: (-item[1], item[0])
        ):
            count = self.events.get(label, 0)
            subsystems[label] = {
                "cpu_s": cpu,
                "share": cpu / total if total else 0.0,
                "events": count,
                "cpu_per_event": cpu / count if count else 0.0,
            }
        return {
            "total_cpu_s": total,
            "dispatch_wall_s": self.dispatch_wall_s,
            "total_events": self.total_events,
            "subsystems": subsystems,
        }

    def shares(self) -> dict[str, float]:
        """``{label: fraction of total cpu}``, label-sorted; {} when idle."""
        total = self.total_cpu_s
        if not total:
            return {}
        return {
            label: cpu / total for label, cpu in sorted(self.cpu_s.items())
        }

    def metrics(self) -> dict[str, object]:
        """The flat ``prof.*`` mapping the metric catalog documents.

        Deliberately *not* fed into the metrics registry: these are
        host wall-clock quantities and the registry snapshots must stay
        deterministic for a fixed seed.
        """
        report = self.report()
        subsystems = report["subsystems"]
        return {
            "prof.total_cpu_s": report["total_cpu_s"],
            "prof.dispatch_wall_s": report["dispatch_wall_s"],
            "prof.total_events": report["total_events"],
            "prof.cpu_s": {k: v["cpu_s"] for k, v in subsystems.items()},
            "prof.share": {k: v["share"] for k, v in subsystems.items()},
            "prof.events": {k: v["events"] for k, v in subsystems.items()},
            "prof.cpu_per_event": {
                k: v["cpu_per_event"] for k, v in subsystems.items()
            },
        }


def attach_profiler(system: typing.Any) -> HostProfiler:
    """Attach a host-CPU profiler to ``system``'s kernel.

    Rides on ``system.obs.profiler`` (like the auditor and the sampler)
    so reports and the CLI can find it after the run.
    """
    profiler = HostProfiler()
    profiler.attach(system.kernel)
    system.obs.profiler = profiler
    return profiler


def render_profile(report: dict) -> str:
    """Human-readable host-CPU table of :meth:`HostProfiler.report`."""
    lines = [
        "host-CPU profile: {events} events dispatched in {cpu:.4f}s "
        "(dispatch wall {wall:.4f}s)".format(
            events=report["total_events"],
            cpu=report["total_cpu_s"],
            wall=report["dispatch_wall_s"],
        ),
        f"{'subsystem':>10}  {'cpu_s':>9}  {'share':>6}  "
        f"{'events':>9}  {'us/event':>9}",
    ]
    for label, entry in report["subsystems"].items():
        lines.append(
            f"{label:>10}  {entry['cpu_s']:>9.4f}  {entry['share']:>6.1%}  "
            f"{entry['events']:>9}  {entry['cpu_per_event'] * 1e6:>9.2f}"
        )
    return "\n".join(lines)


# -- host stack sampling (--sample) --------------------------------------------


class StackSampler:
    """Folded host stacks via ``sys.setprofile``.

    A deterministic tracing profiler, not a statistical one: every
    call/return boundary charges the elapsed host time to the stack
    that was running. Expensive (it hooks every Python and C call), so
    it is opt-in per run (``repro profile --sample``) and never sits
    under the overhead gate. Stacks are relative to wherever
    :meth:`start` was called; frames opened before that simply never
    appear.
    """

    def __init__(self, clock: typing.Callable[[], float] | None = None) -> None:
        self.clock = clock if clock is not None else hostclock.now
        self._stack: list[str] = []
        self._folded: dict[tuple[str, ...], float] = {}
        self._labels: dict[object, str] = {}
        self._last = 0.0

    def start(self) -> None:
        """Install the hook; charges accrue until :meth:`stop`."""
        self._last = self.clock()
        sys.setprofile(self._hook)

    def stop(self) -> None:
        """Remove the hook."""
        sys.setprofile(None)

    def _hook(self, frame: typing.Any, event: str, arg: typing.Any) -> None:
        now = self.clock()
        stack = self._stack
        if stack:
            key = tuple(stack)
            self._folded[key] = self._folded.get(key, 0.0) + (now - self._last)
        self._last = now
        if event == "call":
            stack.append(self._code_label(frame.f_code))
        elif event == "c_call":
            stack.append(self._c_label(arg))
        elif event in ("return", "c_return", "c_exception"):
            if stack:
                stack.pop()

    def _code_label(self, code: typing.Any) -> str:
        label = self._labels.get(code)
        if label is None:
            path = code.co_filename.replace("\\", "/")
            index = path.rfind("/repro/")
            if index >= 0:
                tail = path[index + 1:].removesuffix(".py").replace("/", ".")
            else:
                tail = path.rsplit("/", 1)[-1].removesuffix(".py")
            label = f"{tail}.{code.co_name}"
            self._labels[code] = label
        return label

    def _c_label(self, fn: typing.Any) -> str:
        name = getattr(fn, "__qualname__", None) or repr(fn)
        module = getattr(fn, "__module__", None)
        return f"{module}.{name}" if module else str(name)

    def folded(self) -> dict[tuple[str, ...], float]:
        """``{stack: exclusive host seconds}`` accumulated so far."""
        return dict(self._folded)

    def top(self, n: int = 10) -> list[tuple[tuple[str, ...], float]]:
        """The ``n`` hottest stacks, by exclusive host time."""
        ranked = sorted(self._folded.items(), key=lambda item: -item[1])
        return ranked[:n]


# -- view 2: sim-time flamegraphs ----------------------------------------------


def frame_label(span: "Span") -> str:
    """The flamegraph frame name of a span.

    Per-instance suffixes collapse (``refresh:X3`` → ``refresh``,
    ``lock-wait:X1`` → ``lock-wait``) so identical work merges into one
    frame; transaction roots use their category (``user``/``control``)
    because the ``txn:`` prefix would erase exactly the distinction
    that matters.
    """
    prefix, sep, _ = span.name.partition(":")
    if not sep:
        return span.name
    if prefix == "txn":
        return span.category
    return prefix or span.name


def folded_stacks(recorder: "SpanRecorder") -> dict[tuple[str, ...], float]:
    """Collapse the span tree into exclusive sim-time per label path.

    Every instant of a root span's window is charged to exactly one
    root-to-leaf path: children are clipped to their parent's window,
    and where siblings overlap the latest-started one wins (the
    deepest stack at that instant). By construction the totals grouped
    by root label equal the root span durations — the property the
    test suite holds the fold to, whatever the tree shape (truncated
    spans, out-of-order recording, children outliving parents).
    """
    spans = recorder.spans
    by_id = {span.span_id: span for span in spans}
    children: dict[int, list["Span"]] = {}
    roots: list["Span"] = []
    for span in spans:
        parent_id = span.parent_id
        if (
            parent_id is not None
            and parent_id != span.span_id
            and parent_id in by_id
        ):
            children.setdefault(parent_id, []).append(span)
        else:
            roots.append(span)
    folded: dict[tuple[str, ...], float] = {}
    for root in roots:
        end = _end_of(root)
        if end > root.start:
            _charge_window(root, root.start, end, (), children, folded)
    return folded


def _end_of(span: "Span") -> float:
    end = span.end
    if end is None or end < span.start:
        return span.start
    return end


def _charge_window(
    span: "Span",
    lo: float,
    hi: float,
    path: tuple[str, ...],
    children: dict[int, list["Span"]],
    folded: dict[tuple[str, ...], float],
) -> None:
    path = path + (frame_label(span),)
    kids = [
        (max(lo, child.start), min(hi, _end_of(child)), child)
        for child in children.get(span.span_id, ())
    ]
    kids = [(start, end, child) for start, end, child in kids if end > start]
    if not kids:
        folded[path] = folded.get(path, 0.0) + (hi - lo)
        return
    bounds = sorted(
        {lo, hi}
        | {start for start, _end, _child in kids}
        | {end for _start, end, _child in kids}
    )
    for seg_lo, seg_hi in zip(bounds, bounds[1:]):
        covering = [
            child
            for start, end, child in kids
            if start <= seg_lo and end >= seg_hi
        ]
        if covering:
            winner = max(
                covering, key=lambda child: (child.start, child.span_id)
            )
            _charge_window(winner, seg_lo, seg_hi, path, children, folded)
        else:
            folded[path] = folded.get(path, 0.0) + (seg_hi - seg_lo)


def export_folded(
    folded: dict[tuple[str, ...], float], path: str, scale: float = 1000.0
) -> int:
    """Write a fold as flamegraph.pl collapsed text; returns line count.

    Works for both views: sim-time folds from :func:`folded_stacks` and
    host folds from :meth:`StackSampler.folded`. Values are scaled
    (default ×1000) and rounded because the collapsed format wants
    integer sample counts; zero-weight stacks are dropped.
    """
    lines = []
    for stack in sorted(folded):
        value = round(folded[stack] * scale)
        if value > 0:
            lines.append(";".join(stack) + f" {value}")
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def speedscope_document(recorder: "SpanRecorder", label: str = "repro") -> dict:
    """The span tree as a speedscope ``sampled`` profile (sim-time).

    One sample per distinct root-to-leaf path, weighted by its
    exclusive sim-time — open the file at https://www.speedscope.app
    (the "Left Heavy" view is the flamegraph).
    """
    folded = folded_stacks(recorder)
    frame_index: dict[str, int] = {}
    frames: list[dict] = []
    samples: list[list[int]] = []
    weights: list[float] = []
    for stack in sorted(folded):
        weight = folded[stack]
        if weight <= 0:
            continue
        indexed = []
        for frame in stack:
            index = frame_index.get(frame)
            if index is None:
                index = frame_index[frame] = len(frames)
                frames.append({"name": frame})
            indexed.append(index)
        samples.append(indexed)
        weights.append(weight)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": label,
        "exporter": "repro profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": label,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def export_speedscope(
    recorder: "SpanRecorder", path: str, label: str = "repro"
) -> int:
    """Write the speedscope JSON; returns the number of stacks."""
    document = speedscope_document(recorder, label=label)
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return len(document["profiles"][0]["samples"])
