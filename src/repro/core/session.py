"""Actual session numbers ``as[k]`` (§3.1).

The actual session number is "a variable shared by the TM and DM at site
k" — here the DM holds it (:attr:`DataManager.actual_session`) and the
TM reads it through this manager. The *last used* session number is kept
in stable storage "so that the next time the site recovers, a new
session number can be assigned correctly": here as ``session`` records
of the site's redo log (:meth:`repro.wal.wal.SiteWal.log_session`),
which restart replays into the WAL's mirror; zero is reserved for
not-operational, and numbers increase monotonically over a site's
lifetime (the paper permits recycling; nothing here needs it, so a
number is never reused).
"""

from __future__ import annotations

from repro.site.site import Site
from repro.txn.data_manager import DataManager


class SessionManager:
    """Owns session-number assignment for one site (``dm`` holds
    ``as[k]``)."""

    def __init__(self, site: Site, dm: DataManager) -> None:
        self.site = site
        self.dm = dm
        # as[k] is volatile: the DM's crash hook resets it to 0.

    @property
    def current(self) -> int:
        """The actual session number ``as[k]`` (0 when not operational)."""
        value = self.dm.actual_session
        for fn in self.site.kernel.probes.access:
            fn(self.site.site_id, ("session",), "read",
               "SessionManager.current", value)
        return value

    @property
    def last_used(self) -> int:
        """The most recent session number ever used (stable)."""
        return self.site.wal.session_last

    @property
    def session_started_at(self) -> float | None:
        """Stable record of when the current/last session began.

        Used by the missing-list refinement to bound the outage window
        (see :class:`repro.core.identify.StaleTracker`).
        """
        return self.site.wal.session_started_at

    def choose_next(self) -> int:
        """Reserve the next session number (recovery step 3, §3.4).

        Forced to the log before use: even if the site crashes
        immediately after, the number is never reused.
        """
        next_number = self.last_used + 1
        self.site.wal.log_session(next_number)
        return next_number

    def activate(self, session_number: int, now: float) -> None:
        """Load ``as[k]`` with the new number (recovery step 4, §3.4)."""
        for fn in self.site.kernel.probes.access:
            fn(self.site.site_id, ("session",), "write",
               "SessionManager.activate", session_number)
        self.dm.actual_session = session_number
        self.site.wal.log_session(session_number, started_at=now)
