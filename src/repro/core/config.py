"""Configuration of the ROWAA protocol layer."""

from __future__ import annotations

import dataclasses
import typing

CopierMode = typing.Literal["eager", "demand", "both", "none"]
CatchupMode = typing.Literal["item_copy", "log_ship"]
IdentifyMode = typing.Literal["mark-all", "fail-locks", "missing-lists"]
UnreadablePolicy = typing.Literal["redirect", "wait"]


@dataclasses.dataclass
class RowaaConfig:
    """Knobs of the recovery protocol (§3, §5).

    Attributes
    ----------
    copier_mode:
        ``"eager"`` — the recovery procedure enqueues a copier for every
        unreadable copy as soon as the site is operational; ``"demand"``
        — copiers are triggered by reads hitting unreadable copies;
        ``"both"`` — eager plus demand; ``"none"`` — rely on user writes
        only (legal but slow to converge; useful as an ablation).
    copier_retry_delay:
        Backoff before retrying a failed copier transaction.
    identify_mode:
        How recovery step 2 decides which copies are out of date:
        conservative ``"mark-all"`` (§3.4) or the §5 refinements.
    unreadable_policy:
        What a ROWAA read does when it hits an unreadable copy:
        ``"redirect"`` to another copy or ``"wait"`` for the copier and
        retry locally (§3.2 leaves this to the implementation).
    unreadable_wait:
        Retry delay for the ``"wait"`` policy.
    recovery_probe_timeout:
        RPC timeout when the recovering site probes for operational peers.
    recovery_retry_delay:
        Backoff between recovery attempts (e.g. after a type-1 abort).
    recovery_max_attempts:
        Give up (stay RECOVERING, raise) after this many type-1 attempts.
    version_skip:
        Enable the §5 optimisation: a copier first compares versions and
        skips the data transfer when the local copy is already current.
    session_modulus:
        Optional session-number recycling bound (§3.1); None disables.
    """

    copier_mode: CopierMode = "both"
    copier_retry_delay: float = 10.0
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
    unreadable_policy: UnreadablePolicy = "redirect"
    unreadable_wait: float = 5.0
    unreadable_wait_attempts: int = 10
    recovery_probe_timeout: float = 20.0
    recovery_retry_delay: float = 10.0
    recovery_max_attempts: int = 25
    version_skip: bool = True
    session_modulus: int | None = None
    type2_verify_ping: float = 8.0
    """Timeout of the in-transaction liveness re-check a type-2 performs
    before each claim (abandons the claim if the target answers)."""
    post_announce_settle: float = 3.0
    """Pause between the type-1 commit and the precise policies' delta
    collection pass: a writer serialized just before the type-1 may have
    its commit-applications (which create the fail-lock/ML entries) still
    in flight to the tracker sites. One network round suffices under
    order-preserving latency; the fully general fix is concurrency-
    controlled tracker access, which §5 itself prescribes ("Access to
    elements should be under concurrency control")."""
