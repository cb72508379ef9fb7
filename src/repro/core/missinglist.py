"""Missing lists (§5).

Conceptually ``ML: {item} × {site} → {0,1}`` at each site, where
``ML[X, k] = 1`` means x_k has missed updates; stored sparsely as a set
of pairs and — following the paper — in *volatile* storage only.

Write-time maintenance (§5): a committed write of X "removes (X, i), if
any, from the MLs at the sites to which it writes a copy of X
successfully, and adds (X, j) into these MLs for all j such that
x_j ∈ X and site j is not available for the transaction".

Recovery (§5): the recovering site *i* looks up the MLs at all
operational sites; entries (X, i) are removed there and x_i is marked
unreadable; entries (X, j), j ≠ i seed site i's own fresh ML.

Volatility is the mechanism's advertised economy, but it loses entries
when a tracker site crashes. Soundness is restored with two
conservative rules, checked per item X by the recovering site:

* some resident site of X is unreachable (can't rule out a missed
  update known only there), or
* a reachable resident site's ML has been valid only since *after* our
  outage began (``ml_valid_since > our previous session start``): its
  ML may have lost entries naming us.

Both rules only over-mark (extra copier work, measured by E5 against
stable fail-locks and mark-all).
"""

from __future__ import annotations

import typing

from repro.core.config import RECOVERY_PROBE_TIMEOUT
from repro.core.nominal import is_ns_item
from repro.errors import NetworkError
from repro.site.site import Site

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.recovery import RecoveryManager

CollectReply = tuple[list[str], list[tuple[str, int]], float]


class MissingListPolicy:
    """Tracker + recovery policy for the missing-list mechanism."""

    name = "missing-lists"
    needs_post_announce_pass = True

    def __init__(self, site: Site) -> None:
        self.site = site
        self._ml: set[tuple[str, int]] = set()
        self.ml_valid_since = 0.0
        self._reached: list[int] = []
        site.rpc.register("ml.collect", self._handle_collect)
        site.rpc.register("ml.clear", self._handle_clear)
        site.crash_hooks.append(self._on_crash)

    def _on_crash(self) -> None:
        self._ml.clear()  # volatile storage (§5)

    def entries(self) -> set[tuple[str, int]]:
        """Current ML at this site."""
        return set(self._ml)

    def seed(self, entries: typing.Iterable[tuple[str, int]], now: float) -> None:
        """Install a fresh ML (recovery) and stamp its validity epoch."""
        self._ml = set(entries)
        self.ml_valid_since = now

    # -- tracker half ---------------------------------------------------------

    def on_commit_write(
        self,
        item: str,
        applied_sites: tuple[int, ...],
        missed_sites: tuple[int, ...],
        value: object = None,
        version: object = None,
    ) -> None:
        for missed in missed_sites:
            self._ml.add((item, missed))
        for applied in applied_sites:
            self._ml.discard((item, applied))

    # -- RPC handler -------------------------------------------------------------

    def _handle_collect(self, recovering: int, src: int) -> CollectReply:
        """Read-only: (entries naming the recovering site, all other
        entries, ml_valid_since). Destructive removal happens via
        ``ml.clear`` only after the recovering site has applied its
        unreadable marks."""
        mine = sorted(item for item, site_id in self._ml if site_id == recovering)
        others = sorted(
            (item, site_id) for item, site_id in self._ml if site_id != recovering
        )
        return mine, others, self.ml_valid_since

    def _handle_clear(self, request: tuple[int, tuple[str, ...]], src: int) -> bool:
        recovering, items = request
        for item in items:
            self._ml.discard((item, recovering))
        return True

    # -- recovery half -----------------------------------------------------------------

    def collect_stale(self, manager: "RecoveryManager") -> typing.Generator:
        me = self.site.site_id
        down_since = manager.session.session_started_at or 0.0
        stale: set[str] = set()
        inherited: set[tuple[str, int]] = set()
        reached: dict[int, float] = {}

        for site_id in manager.operational_peers():
            try:
                mine, others, valid_since = yield manager.rpc.call(
                    site_id,
                    "ml.collect",
                    me,
                    timeout=RECOVERY_PROBE_TIMEOUT,
                )
            except NetworkError:
                continue
            reached[site_id] = valid_since
            stale.update(mine)
            inherited.update(tuple(entry) for entry in others)

        for item in self.site.copies.items():
            if is_ns_item(item):
                continue
            for resident in manager.catalog.sites_of(item):
                if resident == me:
                    continue
                if resident not in reached or reached[resident] > down_since:
                    stale.add(item)
                    break

        self.seed(inherited, manager.kernel.now)
        self._reached = list(reached)
        # Sorted: the stale list drives marking and copier scheduling
        # order, so set-hash order here would be run-to-run nondeterminism.
        return sorted(item for item in stale if self.site.copies.has(item))

    def after_marked(
        self, manager: "RecoveryManager", items: typing.Sequence[str]
    ) -> typing.Generator:
        """Drop the collected entries at peers now that marks are applied."""
        yield from ()
        me = self.site.site_id
        for site_id in self._reached:
            manager.rpc.call(site_id, "ml.clear", (me, tuple(sorted(items))))
        return None
