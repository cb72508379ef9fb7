"""One-shot events (futures) for the simulation kernel.

A :class:`Future` is created pending, later *triggered* exactly once with
either a value (:meth:`Future.succeed`) or an exception
(:meth:`Future.fail`), and then *processed* by the kernel: its callbacks run
at the virtual time the trigger was scheduled for. Every trigger and every
:class:`Timeout` is pushed through the kernel's one tier decision
(``Kernel._schedule``): due now, it joins the now-tier; later, the heap;
a negative delay is a :class:`~repro.errors.SimError`.

Processes wait on futures by yielding them, one at a time.
"""

from __future__ import annotations

import typing

from repro.errors import SimError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

_PENDING = object()

#: Shared sentinel for "no callbacks registered yet". Futures are created
#: by the hundred-thousand and most (timeouts, fire-and-forget sends)
#: never receive a callback, so the per-instance list is allocated lazily
#: on the first ``add_callback``. ``None`` still means "already processed".
_NO_CALLBACKS: tuple = ()

# Bit flags packed into the single ``_flags`` slot: one attribute store at
# construction instead of three, on objects created hundreds of thousands
# of times per run. The kernel's drain loops read ``_flags & F_CANCELLED``
# directly on every Future or Callback entry.
F_PROCESSED = 1
F_DEFUSED = 2
F_CANCELLED = 4
#: A :class:`~repro.sim.process.Process` taken over by ``Kernel.adopt``.
F_ADOPTED = 8


class Future:
    """A one-shot event that will eventually hold a value or an exception.

    Parameters
    ----------
    kernel:
        The kernel whose event loop processes this future.
    name:
        Optional label used in ``repr`` for debugging: a string, or a
        ``(format, *args)`` tuple that is ``%``-formatted only when the
        label is read — hot paths (one future per RPC, per lock request)
        name their futures without paying for the string.
    """

    __slots__ = (
        "kernel",
        "_name",
        "_value",
        "_exc",
        "_callbacks",
        "_flags",
        "_abandon_hook",
    )

    def __init__(self, kernel: "Kernel", name: str | tuple = "") -> None:
        self.kernel = kernel
        self._name = name
        self._value: object = _PENDING
        self._exc: BaseException | None = None
        self._callbacks: typing.Sequence[typing.Callable[[Future], None]] | None = _NO_CALLBACKS
        self._flags = 0
        self._abandon_hook: typing.Callable[[Future], None] | None = None

    # -- state ------------------------------------------------------------

    @property
    def name(self) -> str:
        """The debugging label (formatted on first use if given lazily)."""
        label = self._name
        if not isinstance(label, str):
            label = self._name = label[0] % label[1:]
        return label

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._callbacks is None or self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once the kernel has run this future's callbacks."""
        return (self._flags & F_PROCESSED) != 0

    @property
    def ok(self) -> bool:
        """True if the future succeeded. Only meaningful once triggered."""
        return self._exc is None

    @property
    def value(self) -> object:
        """The success value. Raises if the future failed or is pending."""
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimError(f"{self!r} has no value yet")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or None."""
        return self._exc

    def defuse(self) -> "Future":
        """Mark a potential failure of this future as intentionally ignored.

        A failed future whose exception is never observed by any callback
        raises :class:`~repro.errors.UnhandledFailure` in the kernel loop;
        defusing suppresses that check (e.g. fire-and-forget sends).
        """
        self._flags |= F_DEFUSED
        return self

    # -- triggering --------------------------------------------------------

    def succeed(self, value: object = None, delay: float = 0.0) -> "Future":
        """Trigger the future with ``value``; callbacks run after ``delay``."""
        if self._callbacks is None or self._value is not _PENDING or self._exc is not None:
            raise SimError(f"{self!r} has already been triggered")
        self.kernel._schedule(self, delay)
        self._value = value
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Future":
        """Trigger the future with exception ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        if self._callbacks is None or self._value is not _PENDING or self._exc is not None:
            raise SimError(f"{self!r} has already been triggered")
        self.kernel._schedule(self, delay)
        self._exc = exc
        self._value = None
        return self

    # -- callbacks ---------------------------------------------------------

    def add_callback(self, fn: typing.Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when this future is processed.

        If the future has already been processed the callback is scheduled
        to run immediately (at the current virtual time) rather than being
        invoked synchronously, preserving run-to-completion semantics.
        """
        if self._flags & F_PROCESSED:
            self.kernel.call_soon(fn, self)
            return
        callbacks = self._callbacks
        assert callbacks is not None
        if callbacks is _NO_CALLBACKS:
            self._callbacks = [fn]
        else:
            callbacks.append(fn)  # type: ignore[union-attr]

    def remove_callback(self, fn: typing.Callable[["Future"], None]) -> None:
        """Remove a previously added callback; no-op if absent."""
        callbacks = self._callbacks
        if callbacks and fn in callbacks:
            callbacks.remove(fn)  # type: ignore[union-attr]

    def on_abandoned(self, hook: typing.Callable[["Future"], None]) -> None:
        """Register a hook called if the last waiter detaches before trigger.

        Used by resources that hand out futures (e.g. queue getters, lock
        grants): when the waiting process is interrupted away, the resource
        must forget the future or it would absorb a later grant.
        """
        self._abandon_hook = hook

    def _notify_abandoned_if_orphan(self) -> None:
        if (
            self._abandon_hook is not None
            and not self.triggered
            and self._callbacks is not None
            and not self._callbacks
        ):
            hook, self._abandon_hook = self._abandon_hook, None
            hook(self)

    # -- kernel hook --------------------------------------------------------

    def _process(self) -> None:
        callbacks = self._callbacks
        self._callbacks = None
        self._flags |= F_PROCESSED
        if callbacks:
            for fn in callbacks:
                fn(self)
        elif self._exc is not None and not self._flags & F_DEFUSED:
            # Nobody is listening for this failure: surface it loudly.
            self.kernel.report_unhandled(self)

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        if not self.triggered:
            state = "pending"
        elif self._exc is not None:
            state = f"failed({self._exc!r})"
        else:
            state = f"ok({self._value!r})"
        return f"<{label} {state}>"


class Timeout(Future):
    """A future that succeeds automatically ``delay`` time units from now.

    Construction is a hot path (one per RPC wait, per think-time pause,
    per retry backoff), so the constructor writes the slots directly and
    schedules itself without going through :meth:`Future.succeed`'s
    already-triggered check — a fresh timeout is untriggered by
    construction.
    """

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: object = None) -> None:
        self.kernel = kernel
        self._name = ""
        self._value = value
        self._exc = None
        self._callbacks = _NO_CALLBACKS
        self._flags = 0
        self._abandon_hook = None
        self.delay = delay
        kernel._schedule(self, delay)

    def __repr__(self) -> str:
        if not self._flags & F_PROCESSED:
            state = "pending"
        else:
            state = f"ok({self._value!r})"
        return f"<Timeout({self.delay}) {state}>"
