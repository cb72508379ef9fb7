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
"""

from __future__ import annotations

import typing

from repro.errors import Interrupt, SimError
from repro.sim.events import Future

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class Process(Future):
    """A simulated thread of control driving a generator."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(
        self,
        kernel: "Kernel",
        generator: typing.Generator[Future, object, object],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process body must be a generator, got {type(generator).__name__}; "
                "did you forget a 'yield'?"
            )
        super().__init__(kernel, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Future | None = None
        # Kick off on a scheduled callback so creation order, not call
        # depth, determines execution order.
        kernel.schedule_callback(0.0, self._start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The process is detached from whatever future it was waiting on (the
        wait may be re-issued by the handler). Interrupting a finished
        process is an error; interrupting a process that is about to resume
        delivers the interrupt first.
        """
        if not self.is_alive:
            raise SimError(f"cannot interrupt finished process {self!r}")
        self.kernel.schedule_callback(0.0, self._deliver_interrupt, cause)

    def _start(self) -> None:
        if not self.is_alive:
            return  # interrupted (and failed) before its first step
        self._step(lambda: self._generator.send(None))

    def _deliver_interrupt(self, cause: object) -> None:
        if not self.is_alive:
            return  # finished between scheduling and delivery
        if self._waiting_on is not None:
            target = self._waiting_on
            self._waiting_on = None
            target.remove_callback(self._resume)
            target._notify_abandoned_if_orphan()
        self._step(lambda: self._generator.throw(Interrupt(cause)))

    def _resume(self, event: Future) -> None:
        if not self.is_alive:
            return  # stale wakeup delivered after the process finished
        if self._waiting_on is not None and event is not self._waiting_on:
            return  # stale wakeup after an interrupt re-targeted the wait
        self._waiting_on = None
        if event.ok:
            self._step(lambda: self._generator.send(event.value))
        else:
            exc = event.exception
            assert exc is not None
            self._step(lambda: self._generator.throw(exc))

    def _step(self, advance: typing.Callable[[], object]) -> None:
        probes = self.kernel.probes
        if not probes.step_enter:
            self._advance(advance)
            return
        # Bracket the resume so a race detector can attribute every
        # state access inside it to this strand (and tick its clock).
        for fn in probes.step_enter:
            fn(self)
        try:
            self._advance(advance)
        finally:
            for fn in probes.step_exit:
                fn(self)

    def _advance(self, advance: typing.Callable[[], object]) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - failure propagates via the future
            self.fail(exc)
            return
        if not isinstance(target, Future):
            self.fail(
                SimError(f"process {self.name!r} yielded {target!r}, expected a Future")
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)
