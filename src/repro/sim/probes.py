"""The probe bus: the one place observers attach to a running simulation.

One :class:`Probes` instance rides on each kernel (``kernel.probes``).
Every slot is a plain list of subscribers for one event of a closed
set; emitters walk it in place::

    for fn in self.kernel.probes.read:
        fn(self.site_id, item, version)

so an event nobody subscribed to costs an empty-list walk (or, where
the payload is an f-string label, one truthiness test in front of it).
The event table — emitter, payload, subscribers — is in
docs/OBSERVABILITY.md ("Probe events"); the rule for what may ride the
bus is DESIGN.md §5 "Probes vs wiring": only *observers*. A subscriber
the protocol is incorrect without (the WAL journal and mvcc version
chains on their copy store's mutation stream, the on-demand copier
trigger, a DM resetting on crash) stays a direct per-site call, so the
bus is empty whenever nothing is looking — which is what lets the
kernel select its bare drain loop from ``not kernel.probes``.

``tiebreak`` is the one slot whose subscriber returns a value: the
kernel asks the most recently attached policy which member of a
same-instant batch runs next.
"""

from __future__ import annotations

import typing

Subscriber = typing.Callable[..., typing.Any]

#: The closed event set. Kernel edges first, then the protocol moments
#: (each carries the emitting ``site_id`` first).
EVENTS = (
    "tiebreak", "scheduled", "loop_enter", "loop_exit",
    "dispatch_begin", "dispatch_end",
    "admit", "read", "snapshot_read", "apply", "logical_write",
    "txn_finish", "drain_done", "wal_flush", "wal_checkpoint", "gc",
    "crash", "power_on", "recovered",
)


class Probes:
    """Subscriber lists for the closed event set, one slot per event.

    A slot's list is only ever mutated in place, never rebound, so an
    emitter may hold on to it (the kernel's probed loop binds its lists
    once per run).
    """

    __slots__ = EVENTS

    if typing.TYPE_CHECKING:  # the slots are filled by name below

        def __getattr__(self, name: str) -> list[Subscriber]: ...

    def __init__(self) -> None:
        for name in EVENTS:
            setattr(self, name, [])

    def __bool__(self) -> bool:
        """True once anything is subscribed to any event."""
        return any(getattr(self, name) for name in EVENTS)

    def subscribe(self, **handlers: Subscriber) -> None:
        """Append each ``event=handler``; an unknown event is an
        :class:`AttributeError`, as is a typo at an emission site."""
        for name, handler in handlers.items():
            getattr(self, name).append(handler)

    def detach(self, owner: object) -> None:
        """Drop every subscribed bound method of ``owner``."""
        for name in EVENTS:
            slot = getattr(self, name)
            slot[:] = [
                fn for fn in slot if getattr(fn, "__self__", None) is not owner
            ]
