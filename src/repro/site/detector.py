"""Failure detection under the crash-only failure model.

The paper's type-2 control transactions require the initiator to be
*sure* the claimed sites are down, which "can be satisfied in systems
where site failures are the only possible failures" (§3.3). We model a
detector that is *sound* (never suspects a live site — it is driven by
ground truth from the cluster) but not instantaneous: each surviving site
learns of a crash ``detection_delay`` after it happens.

The delay is an experiment parameter: during the window a site still
believes the crashed site is nominally up, so its transactions attempt
writes there and abort on timeout — exactly the degraded-window behaviour
the session-number machinery is designed to bound.
"""

from __future__ import annotations

import typing


class FailureDetector:
    """One site's view of which sites are up, plus down-event callbacks."""

    def __init__(self, site_id: int, all_sites: typing.Sequence[int]) -> None:
        self.site_id = site_id
        self._all_sites = tuple(all_sites)
        self._up: set[int] = set(all_sites)
        self._down_callbacks: list[typing.Callable[[int], None]] = []
        self._up_callbacks: list[typing.Callable[[int], None]] = []
        #: Down transitions observed over this detector's lifetime
        #: (scraped by the obs layer; reset() does not clear it).
        self.down_events = 0

    def believes_up(self, site_id: int) -> bool:
        """True if this detector has not (yet) seen ``site_id`` crash."""
        return site_id in self._up

    def up_sites(self) -> set[int]:
        """The sites currently believed up."""
        return set(self._up)

    def on_down(self, callback: typing.Callable[[int], None]) -> None:
        """Register ``callback(site_id)`` for future down notifications."""
        self._down_callbacks.append(callback)

    def on_up(self, callback: typing.Callable[[int], None]) -> None:
        """Register ``callback(site_id)`` for future up transitions.

        Fires when a site this detector believed down announces its
        recovery — the moment an in-doubt 2PC participant can get an
        authoritative answer from a previously unreachable coordinator.
        """
        self._up_callbacks.append(callback)

    def mark_down(self, site_id: int) -> None:
        """Record a crash; fires callbacks once per transition."""
        if site_id not in self._up:
            return
        self._up.discard(site_id)
        self.down_events += 1
        for callback in list(self._down_callbacks):
            callback(site_id)

    def mark_up(self, site_id: int) -> None:
        """Record that a site is live again; fires callbacks per transition."""
        if site_id in self._up:
            return
        self._up.add(site_id)
        for callback in list(self._up_callbacks):
            callback(site_id)

    def reset(self, up_sites: typing.Iterable[int]) -> None:
        """Reinitialize the view (used when this site reboots)."""
        self._up = set(up_sites)
