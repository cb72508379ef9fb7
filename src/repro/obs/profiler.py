"""Continuous profiling: host-CPU attribution and sim-time flamegraphs.

Two views over where time goes, one per time domain:

**View 1 — host CPU** (:class:`HostProfiler`). A thin fold over stdlib
:mod:`cProfile`. The profiler subscribes to the kernel's ``loop_enter``
and ``loop_exit`` probes (``kernel.probes``) and switches one
``cProfile.Profile`` on and off there, so it profiles exactly the
probed drain loops and nothing that runs between them. The
report folds pstats ``tottime`` (exclusive host time per function) by
the :func:`subsystem_of_path` prefix map into the stable label set
(kernel/net/tm/dm/locks/wal/copier/recovery/mvcc/audit/obs/workload/
site): time is charged to the module that *spent* it, not to the
module a dispatch entered. A C builtin has no source file, so its time
goes to its callers' subsystems, each by the share cProfile recorded
for that caller; a builtin with no recorded caller was called from the
drain loop itself and is charged to ``kernel``. The per-subsystem
``cpu_s`` therefore sum to cProfile's total ``tottime``.

**View 2 — sim-time flamegraphs** (:func:`folded_stacks`). The span
tree already records where *simulated* time goes; the fold collapses it
into root-to-leaf label paths, charging every instant of a root span's
window to exactly one path (children clipped to their parent's window,
latest-started span winning overlaps). Exports as flamegraph.pl
collapsed text (:func:`export_folded`), which speedscope also opens.

Profiler results deliberately stay *out* of the metrics registry and
the recovery-timeline report: they are host-machine wall-clock
quantities, and the registry snapshots and the report must remain
deterministic for a fixed seed. They surface instead as the ``prof.*``
mapping of :meth:`HostProfiler.metrics` and as :meth:`HostProfiler.report`,
which ``repro run`` writes to its run directory's ``profile.json``. See
docs/OBSERVABILITY.md §Profiling.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.spans import Span, SpanRecorder
    from repro.sim.kernel import Kernel

# -- subsystem labels ----------------------------------------------------------

#: Module-prefix → subsystem label, longest prefix first. ``harness``
#: folds into ``workload``: both are load generation and scenario
#: driving, not protocol work. ``sanitize`` (the tie-break policy) is
#: an observer like the rest of ``obs``.
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
    ("repro.sanitize", "obs"),
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


def _dotted(path: str) -> str:
    """``.../repro/txn/locks.py`` → ``repro.txn.locks``; any other
    file → its stem."""
    normalized = path.replace("\\", "/")
    index = normalized.rfind("/repro/")
    tail = normalized[index + 1:] if index >= 0 else normalized.rsplit("/", 1)[-1]
    return tail.removesuffix(".py").replace("/", ".")


def subsystem_of_path(path: str) -> str:
    """The subsystem label owning a source file path."""
    return subsystem_of_module(_dotted(path))


# -- view 1: host-CPU attribution ----------------------------------------------

#: Functions listed per subsystem row, hottest first.
_TOP_FUNCTIONS = 3


class HostProfiler:
    """Attributes the kernel drain loops' host CPU to subsystems.

    Attach with :meth:`attach` (or ``build_traced_scheme(...,
    profile=True)``, as ``repro run`` does). ``profile`` is the underlying
    ``cProfile.Profile``: ``pstats.Stats(profiler.profile)`` is the
    per-function drill-down behind any row of :meth:`report`.
    """

    def __init__(self) -> None:
        # Imported here, not at module top: the reference benchmark
        # imports this module in every cold set-up interpreter, and
        # only its traced rep ever profiles.
        import cProfile

        self.profile = cProfile.Profile()
        #: Events dispatched inside the profiled drain loops.
        self.total_events = 0
        self._kernel: typing.Any = None
        self._events_at_enter = 0

    # -- kernel wiring --------------------------------------------------------

    def attach(self, kernel: "Kernel") -> None:
        """Subscribe to ``kernel``'s drain-loop probes."""
        kernel.probes.subscribe(
            loop_enter=self._on_loop_enter, loop_exit=self._on_loop_exit
        )
        self._kernel = kernel

    def detach(self) -> None:
        """Unsubscribe; the kernel's bus is as it was before attach."""
        if self._kernel is not None:
            self._kernel.probes.detach(self)
            self._kernel = None

    def _on_loop_enter(self) -> None:
        self._events_at_enter = self._kernel.events_processed
        self.profile.enable()

    def _on_loop_exit(self) -> None:
        self.profile.disable()
        self.total_events += self._kernel.events_processed - self._events_at_enter

    # -- results --------------------------------------------------------------

    def _fold(self) -> dict[str, dict]:
        """``{label: {"cpu_s", "calls", "functions": {name: cpu_s}}}``
        from the profile's pstats rows."""
        rows: dict[str, dict] = {}

        def charge(label: str, func: tuple, seconds: float, calls: int) -> None:
            row = rows.setdefault(label, {"cpu_s": 0.0, "calls": 0, "functions": {}})
            row["cpu_s"] += seconds
            row["calls"] += calls
            name = _function_label(func)
            row["functions"][name] = row["functions"].get(name, 0.0) + seconds

        self.profile.create_stats()
        for func, (_cc, calls, tottime, _ct, callers) in self.profile.stats.items():
            if func[0] != "~":
                charge(subsystem_of_path(func[0]), func, tottime, calls)
                continue
            # A C builtin: each caller pays what cProfile timed under
            # it; the rest had no profiled caller — the drain loop.
            for caller, (n, _cc, seconds, _ct) in callers.items():
                charge(subsystem_of_path(caller[0]), func, seconds, n)
                tottime -= seconds
                calls -= n
            if calls or tottime > 0.0:
                charge("kernel", func, tottime, calls)
        return rows

    def report(self) -> dict:
        """The attribution report, subsystems sorted by cpu_s descending."""
        rows = self._fold()
        total = sum(row["cpu_s"] for row in rows.values())
        subsystems: dict[str, dict] = {}
        for label, row in sorted(rows.items(), key=lambda item: (-item[1]["cpu_s"], item[0])):
            functions = sorted(row["functions"].items(), key=lambda item: (-item[1], item[0]))
            subsystems[label] = {
                "cpu_s": row["cpu_s"],
                "share": row["cpu_s"] / total if total else 0.0,
                "calls": row["calls"],
                "top": [[name, cpu] for name, cpu in functions[:_TOP_FUNCTIONS]],
            }
        return {
            "total_cpu_s": total,
            "total_events": self.total_events,
            "subsystems": subsystems,
        }

    def shares(self) -> dict[str, float]:
        """``{label: fraction of total cpu}``, label-sorted; {} when idle."""
        subsystems = self.report()["subsystems"]
        return {label: subsystems[label]["share"] for label in sorted(subsystems)}

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
            "prof.total_events": report["total_events"],
            "prof.cpu_s": {k: v["cpu_s"] for k, v in subsystems.items()},
            "prof.share": {k: v["share"] for k, v in subsystems.items()},
            "prof.calls": {k: v["calls"] for k, v in subsystems.items()},
        }


def _function_label(func: tuple) -> str:
    """A pstats ``(file, line, name)`` key as ``module.name``; a C
    builtin keeps cProfile's own name for it."""
    path, _line, name = func
    return name if path == "~" else f"{_dotted(path)}.{name}"


def attach_profiler(system: typing.Any) -> HostProfiler:
    """Attach a host-CPU profiler to ``system``'s kernel.

    Rides on ``system.obs.profiler`` (like the auditor and the sampler)
    so reports and the CLI can find it after the run.
    """
    profiler = HostProfiler()
    profiler.attach(system.kernel)
    system.obs.profiler = profiler
    return profiler


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

    Takes a sim-time fold from :func:`folded_stacks` (or any
    ``{stack: seconds}`` mapping). Values are scaled
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
