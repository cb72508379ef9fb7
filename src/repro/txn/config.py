"""Tunable parameters of the transaction substrate."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class TxnConfig:
    """The choices a TM/DM pair leaves to the experiment.

    All times are virtual (simulation) time units; think "milliseconds"
    at LAN scale.

    Attributes
    ----------
    rpc_timeout:
        How long a TM waits for any single DM reply before treating the
        target as failed. Must exceed the worst round trip between live
        sites or the detector's soundness assumption breaks.
    commit_mode:
        Commit strategy for user transactions: ``"sync_2pc"`` (the
        write-all baseline: prepare round, then commit round, client
        acked after both) or ``"async_quorum"`` (pipelined prepare on
        write; the coordinator decides and acks the client once a
        majority of resident copies is durably prepared, then drains
        the applies asynchronously — see DESIGN.md "Commit modes").
        Control and copier transactions always commit synchronously.
    """

    rpc_timeout: float = 50.0
    commit_mode: str = "sync_2pc"


COMMIT_MODES = ("sync_2pc", "async_quorum")
"""Valid ``TxnConfig.commit_mode`` values."""

#: How many alternative copies a read strategy may try before the
#: transaction gives up (stale-view redirects).
MAX_READ_ATTEMPTS = 4
