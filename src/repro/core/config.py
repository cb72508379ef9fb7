"""Configuration of the ROWAA protocol layer."""

from __future__ import annotations

import dataclasses
import typing

CopierMode = typing.Literal["eager", "demand", "both", "none"]
CatchupMode = typing.Literal["item_copy", "log_ship"]
IdentifyMode = typing.Literal["mark-all", "fail-locks", "missing-lists"]


@dataclasses.dataclass
class RowaaConfig:
    """The choices the recovery protocol leaves open (§3.2, §5).

    Attributes
    ----------
    copier_mode:
        ``"eager"`` — the recovery procedure enqueues a copier for every
        unreadable copy as soon as the site is operational; ``"demand"``
        — copiers are triggered by reads hitting unreadable copies;
        ``"both"`` — eager plus demand; ``"none"`` — rely on user writes
        only (legal but slow to converge; useful as an ablation).
    identify_mode:
        How recovery step 2 decides which copies are out of date:
        conservative ``"mark-all"`` (§3.4) or the §5 refinements.
    version_skip:
        Enable the §5 optimisation: a copier first compares versions and
        skips the data transfer when the local copy is already current.
    """

    copier_mode: CopierMode = "both"
    catchup_mode: CatchupMode = "item_copy"
    """How eager catch-up brings unreadable copies current:
    ``"item_copy"`` — one copier transaction per item reading a remote
    source copy (§3.2, the paper's scheme); ``"log_ship"`` — stream the
    missed redo-log suffix from one nominally-up peer in batches,
    falling back to per-item copy for anything the stream cannot cover
    (peer truncated the needed records, items not hosted at the peer)."""
    log_ship_batch: int = 16
    """Max log records (and validate items) per log-shipping page."""
    identify_mode: IdentifyMode = "mark-all"
    version_skip: bool = True


#: RPC timeout of a ``recovery.probe`` liveness question: the recovering
#: site's search for an operational peer, and the copier's, the spooler's
#: and the fail-lock / missing-list trackers' checks that a source is up.
RECOVERY_PROBE_TIMEOUT = 20.0
