"""Spooled-redo recovery (Hammer & Shipman's SDD-1 mechanism [6]).

The first of the two §1 approaches: "all update messages addressed to an
unavailable site are saved reliably in multiple spoolers, and the
recovering site processes all of its missed messages before resuming
normal operations". The spool is the §5 stale-copy table kept durable
(:class:`~repro.core.identify.StaleTracker`, as for fail-locks): every
site that applies a write records it, value and version, for the missed
sites, giving the multi-spooler redundancy. The recovering site runs the
same step 2 and delta pass as the paper's scheme, but repairs by
replaying the spooled values *before* announcing itself up, instead of
marking copies for copiers to refresh afterwards.

This is the E2 counterpoint: time-to-operational grows with the number
of updates missed (∝ outage length × write rate), where the paper's
scheme is a constant few round trips. We charge a fixed per-update
replay cost (``REPLAY_COST_PER_UPDATE``), standing in for the log I/O and re-scheduling work the
paper calls "a nontrivial problem".

Keeping only the newest spooled version per (site, item) is the standard
last-writer-wins compression of a redo log — replaying every
intermediate version would only make this baseline look worse.
"""

from __future__ import annotations

import typing

from repro.core.config import RowaaConfig
from repro.core.identify import Entry
from repro.core.recovery import RecoveryManager
from repro.core.system import RowaaSystem
from repro.storage.copies import Version

#: Sim time a recovering site spends replaying one spooled update.
REPLAY_COST_PER_UPDATE = 0.5


class SpoolerRecoveryManager(RecoveryManager):
    """Recovery that replays spooled updates *before* rejoining."""

    def _repair(self, stale: dict[str, Entry]) -> typing.Generator:  # type: ignore[override]
        """Redo: replay in version order, paying the per-update cost.
        A copy whose missed value is unknown is marked instead. Returns
        the updates replayed plus the copies newly marked."""
        marked = yield from super()._repair(
            [item for item, (_value, version) in stale.items() if version is None]
        )
        redo = sorted(
            (version, item, value)
            for item, (value, version) in stale.items()
            if version is not None
        )
        copies = self.site.copies
        for version, item, value in redo:
            yield self.kernel.timeout(REPLAY_COST_PER_UPDATE)
            if copies.get(item).version < version:
                copies.apply_write(item, value, Version(*version))
        return marked + len(redo)


class SpoolerSystem(RowaaSystem):
    """ROWAA session machinery with spooled-redo instead of copiers.

    Shares the session-number/control-transaction substrate so the E2
    comparison isolates exactly the database-recovery approach: replay
    before rejoining vs mark-and-copy after rejoining.
    """

    recovery_class = SpoolerRecoveryManager

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault(
            "rowaa_config", RowaaConfig(copier_mode="none", identify_mode="fail-locks")
        )
        super().__init__(*args, **kwargs)
