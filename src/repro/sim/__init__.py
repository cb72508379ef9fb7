"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of simpy, built
from scratch so the whole stack is self-contained:

* :class:`~repro.sim.kernel.Kernel` — the event loop and virtual clock:
  a FIFO *now-tier* of what is due at the current instant beside a heap
  of what is due later.
* :class:`~repro.sim.events.Future` — one-shot events carrying a value or
  an exception.
* :class:`~repro.sim.events.Timeout` — a future that fires after a delay.
* :class:`~repro.sim.process.Process` — a simulated thread of control,
  written as a Python generator that yields futures.
* :class:`~repro.sim.queue.Queue` — an unbounded FIFO connecting processes
  (a site's network inbox is not one: see :mod:`repro.net.network`).
* :class:`~repro.sim.rng.RngRegistry` — named, independently seeded random
  streams so component randomness is reproducible and decoupled.

Determinism: given a seed, every run produces the identical event order.
Ties in time are broken by scheduling sequence number; the two tiers
preserve exactly that ``(time, seq)`` order (DESIGN.md §5).
"""

from repro.sim.events import Future, Timeout
from repro.sim.kernel import Callback, Kernel
from repro.sim.process import Process
from repro.sim.queue import Queue
from repro.sim.rng import RngRegistry

__all__ = [
    "Callback",
    "Future",
    "Kernel",
    "Process",
    "Queue",
    "RngRegistry",
    "Timeout",
]
