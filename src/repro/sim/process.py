"""Simulated processes: generators that yield futures.

A process body is a generator. Each ``yield future`` suspends the process
until the future is processed; the yield expression evaluates to the
future's value, or re-raises the future's exception inside the generator so
normal ``try/except`` works::

    def worker(kernel):
        yield kernel.timeout(5)
        try:
            reply = yield rpc_call(...)
        except RpcTimeout:
            ...

A :class:`Process` is itself a :class:`~repro.sim.events.Future` that
succeeds with the generator's return value, so processes can wait on each
other by yielding them.

A process costs the kernel one event to start (so creation order, not
call depth, decides who runs first; a zero-delay entry on the now-tier,
with no handle), one per resume, and one to complete (the future's own
processing, which wakes whoever waits on it). A caller
that *is* the event in which the generator's first step is due, and that
only needs to hear the outcome once, can **adopt** the generator instead
(``Kernel.adopt``): the first step runs before the constructor returns,
the outcome is reported by one direct ``on_exit(process)`` call, and the
process is not awaitable — so neither the start nor the completion is a
kernel event. The RPC layer serves every handler that yields this way.
"""

from __future__ import annotations

import typing

from repro.errors import Interrupt, ReproError, SimError
from repro.sim.events import _NO_CALLBACKS, _PENDING, F_PROCESSED, Future

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


#: ``_callbacks`` of an adopted process: empty like ``_NO_CALLBACKS`` but a
#: distinct object, so a waiter's inline registration falls through to
#: :meth:`Process.add_callback`, which refuses.
_NOT_AWAITABLE: frozenset = frozenset()


class Process(Future):
    """A simulated thread of control driving a generator.

    With ``on_exit`` the process is *adopted* (see the module docstring):
    it takes its first step inside the constructor and calls
    ``on_exit(self)`` exactly once when the generator returns, raises or
    is interrupted to death; ``value`` / ``exception`` are readable from
    then on.
    """

    __slots__ = ("_generator", "_waiting_on", "_on_exit")

    def __init__(
        self,
        kernel: "Kernel",
        generator: typing.Generator[Future, object, object],
        name: str = "",
        on_exit: typing.Callable[["Process"], None] | None = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process body must be a generator, got {type(generator).__name__}; "
                "did you forget a 'yield'?"
            )
        # Future.__init__, written out (as Timeout does): one process per
        # transaction, per yielding RPC serve, per background task.
        self.kernel = kernel
        self._name = name or getattr(generator, "__name__", "process")
        self._value = _PENDING
        self._exc = None
        self._flags = 0
        self._abandon_hook = None
        self._generator = generator
        self._waiting_on: Future | None = None
        self._on_exit = on_exit
        if on_exit is None:
            self._callbacks = _NO_CALLBACKS
            # Kick off on a scheduled callback so creation order, not call
            # depth, determines execution order.
            kernel.schedule_callback(0.0, self._start)
        else:
            self._callbacks = _NOT_AWAITABLE
            self._step(None, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def add_callback(self, fn: typing.Callable[[Future], None]) -> None:
        if self._on_exit is not None:
            raise SimError(
                f"{self!r} is adopted: its outcome goes to on_exit, it cannot be waited on"
            )
        super().add_callback(fn)

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The process is detached from whatever future it was waiting on (the
        wait may be re-issued by the handler). Interrupting a finished
        process is an error; interrupting a process that is about to resume
        delivers the interrupt first.
        """
        if self._value is not _PENDING:
            raise SimError(f"cannot interrupt finished process {self!r}")
        self.kernel.schedule_callback(0.0, self.throw_interrupt, cause)

    def throw_interrupt(self, cause: object) -> None:
        """Deliver an interrupt *now*: what :meth:`interrupt` schedules.

        For a caller that already is the scheduled delivery (the RPC
        layer tearing down a serve that had not started when its site
        stopped). No-op on a finished process.
        """
        if self._value is not _PENDING:
            return  # finished between scheduling and delivery
        if self._waiting_on is not None:
            target = self._waiting_on
            self._waiting_on = None
            target.remove_callback(self._resume)
            target._notify_abandoned_if_orphan()
        self._step(None, Interrupt(cause))

    def _start(self) -> None:
        if self._value is _PENDING:  # else interrupted (and failed) before its first step
            self._step(None, None)

    def _resume(self, event: Future) -> None:
        if self._value is not _PENDING:
            return  # stale wakeup delivered after the process finished
        waiting = self._waiting_on
        if waiting is not None and event is not waiting:
            return  # stale wakeup after an interrupt re-targeted the wait
        self._waiting_on = None
        self._step(event._value, event._exc)

    def _step(self, value: object, exc: BaseException | None) -> None:
        """One turn: send ``value`` (or throw ``exc``) into the generator,
        then wait on the future it yields, or finish.

        An exception's traceback holds every frame it passed through, and
        a frame holds its locals: a future or process whose ``_exc`` is
        that exception closes a reference cycle, which only the cyclic
        collector would free. So when the turn ends, a protocol signal
        (:func:`_is_signal`) thrown in or raised out drops its traceback,
        and a bug raised out drops this frame's entry (it holds ``self``)
        but keeps the generator's frames for its diagnostics."""
        try:
            if exc is None:
                target = self._generator.send(value)
            else:
                try:
                    target = self._generator.throw(exc)
                finally:
                    if _is_signal(exc):
                        exc.__traceback__ = None
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as error:  # noqa: BLE001 - failure propagates via the future
            if _is_signal(error):
                error.__traceback__ = None
            else:
                error.__traceback__ = error.__traceback__.tb_next
            self._finish(None, error)
            return
        if not isinstance(target, Future):
            self._finish(
                None,
                SimError(f"process {self.name!r} yielded {target!r}, expected a Future"),
            )
            return
        self._waiting_on = target
        # Future.add_callback, inlined for the two pending cases.
        callbacks = target._callbacks
        if callbacks is _NO_CALLBACKS:
            target._callbacks = [self._resume]
        elif type(callbacks) is list:
            callbacks.append(self._resume)
        else:  # already processed, or an adopted process (which refuses)
            try:
                target.add_callback(self._resume)
            except SimError as error:
                self._waiting_on = None
                self._finish(None, error)

    def _finish(self, value: object, exc: BaseException | None) -> None:
        on_exit = self._on_exit
        if on_exit is None:
            if exc is None:
                self.succeed(value)
            else:
                self.fail(exc)
            return
        # Adopted: nobody waits on the future, so it is never scheduled;
        # it goes straight to its processed state and reports in place.
        self._value = value
        self._exc = exc
        self._callbacks = None
        self._flags |= F_PROCESSED
        on_exit(self)


def _is_signal(error: BaseException) -> bool:
    """True for a value the protocol passes around (an abort cause, an
    RPC failure, an interrupt), whose traceback is no diagnostic; a
    :class:`SimError` is kernel misuse, a bug, and keeps its frames."""
    return isinstance(error, (ReproError, Interrupt)) and not isinstance(error, SimError)
