"""Tunable parameters of the transaction substrate."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class TxnConfig:
    """Timeouts and policies shared by TMs and DMs.

    All times are virtual (simulation) time units; think "milliseconds"
    at LAN scale.

    Attributes
    ----------
    rpc_timeout:
        How long a TM waits for any single DM reply before treating the
        target as failed. Must exceed the worst round trip between live
        sites or the detector's soundness assumption breaks.
    deadlock_interval:
        Sweep period of the global deadlock detector.
    decision_timeout:
        How long a prepared participant waits for the coordinator's
        decision before starting cooperative termination.
    indoubt_retry:
        Retry period for a participant that is *prepared and in doubt*
        (termination attempted, no decisive evidence — the classic 2PC
        blocking window). Such a participant holds X locks that stall
        every conflicting transaction, so it re-polls much faster than
        ``decision_timeout``: the coordinator answers ``tm.outcome``
        from stable storage the moment it is powered back on, long
        before its recovery procedure finishes.
    max_read_attempts:
        How many alternative copies a read strategy may try before the
        transaction gives up (stale-view redirects).
    commit_mode:
        Commit strategy for user transactions: ``"sync_2pc"`` (the
        write-all baseline: prepare round, then commit round, client
        acked after both) or ``"async_quorum"`` (pipelined prepare on
        write; the coordinator decides and acks the client once a
        majority of resident copies is durably prepared, then drains
        the applies asynchronously — see DESIGN.md "Commit modes").
        Control and copier transactions always commit synchronously.
    drain_retries:
        Extra ``dm.commit`` attempts the async drain makes per lagging
        site before giving the site up to recovery marks.
    drain_retry_delay:
        Pause between drain retry rounds.
    ro_staleness_floor:
        ``D``, the snapshot staleness floor: a fully-current site serves
        read-only transactions at the cut ``now - D``. Must upper-bound
        the one-way delivery latency of COMMIT messages — every version
        decided before ``now - D`` has then been applied at every live
        resident site, which is what makes the cut a consistent
        committed prefix without any cross-site coordination.
    mvcc_gc_period:
        Period of the per-site background version-chain GC sweep.
    """

    rpc_timeout: float = 50.0
    deadlock_interval: float = 25.0
    decision_timeout: float = 200.0
    indoubt_retry: float = 25.0
    max_read_attempts: int = 4
    commit_mode: str = "sync_2pc"
    drain_retries: int = 1
    drain_retry_delay: float = 10.0
    ro_staleness_floor: float = 2.0
    mvcc_gc_period: float = 50.0


COMMIT_MODES = ("sync_2pc", "async_quorum")
"""Valid ``TxnConfig.commit_mode`` values."""
