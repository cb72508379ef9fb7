"""Global access-hook seam for the schedule-space sanitizer.

Protocol-state containers (:class:`~repro.storage.copies.CopyStore`,
:class:`~repro.txn.locks.LockManager`, the WAL, the session vector) have
no kernel reference, so they cannot test ``kernel._sanitize`` the way
the scheduler seams do. They test this module's :data:`ACTIVE` instead —
one module-attribute load and a ``None`` check on the cold branch, the
same cost model as the ``obs``/``journal`` hooks those classes already
carry.

This module imports nothing from :mod:`repro` (it is imported *by* the
storage and protocol layers), and the package ``__init__`` stays free of
harness imports for the same reason.

Exactly one detector can be active per process at a time; the traced
harness (:func:`repro.harness.runner.run_traced`) clears it in a
``finally`` so a crashed scenario cannot leak tracking into the next
run.
"""

from __future__ import annotations

import typing

#: The attached :class:`~repro.sanitize.hb.RaceDetector`, or None.
#: Hot paths only ever test this for None-ness.
ACTIVE: typing.Any = None


def set_active(detector: typing.Any) -> None:
    """Install ``detector`` as the process-wide access-hook target."""
    global ACTIVE
    ACTIVE = detector


def clear() -> None:
    """Detach whatever detector is active (idempotent)."""
    global ACTIVE
    ACTIVE = None
