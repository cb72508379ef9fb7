"""Exception hierarchy for the repro library.

Every exception raised by the library derives from :class:`ReproError` so
that callers can catch library failures without catching unrelated bugs.
Simulation-control exceptions (:class:`Interrupt`) deliberately derive from
``BaseException``-adjacent ``Exception`` but are grouped here for
discoverability.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulation kernel errors
# ---------------------------------------------------------------------------


class SimError(ReproError):
    """Base class for simulation-kernel errors."""


class UnhandledFailure(SimError):
    """A failed :class:`~repro.sim.events.Future` was never observed.

    Raised by the kernel's main loop so that programming errors inside
    simulated processes surface instead of being silently dropped.
    """


class Interrupt(Exception):
    """Thrown into a simulated process by :meth:`Process.interrupt`.

    Carries the ``cause`` supplied by the interrupter. Not a
    :class:`ReproError` because it is control flow, not a failure.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


# ---------------------------------------------------------------------------
# Network errors
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network-substrate errors."""


class RpcTimeout(NetworkError):
    """An RPC did not receive a reply within its deadline."""

    def __init__(self, dst: int, what: str = "") -> None:
        super().__init__(f"rpc to site {dst} timed out{': ' + what if what else ''}")
        self.dst = dst


# ---------------------------------------------------------------------------
# Transaction errors
# ---------------------------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction-processing errors."""


class TransactionAborted(TransactionError):
    """The transaction was aborted; ``reason`` says why."""

    def __init__(self, txn_id: str, reason: str) -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class DeadlockDetected(TransactionError):
    """The lock manager chose this transaction as a deadlock victim."""

    def __init__(self, txn_id: str) -> None:
        super().__init__(f"transaction {txn_id} chosen as deadlock victim")
        self.txn_id = txn_id


class TimestampOrderViolation(TransactionError):
    """Timestamp-ordering rejection: the operation arrived too late.

    Raised by the TO scheduler when a read or write would contradict
    the timestamp serialization order; the transaction aborts and may
    retry with a fresh (larger) timestamp.
    """

    def __init__(self, txn_id: str, item: str, detail: str) -> None:
        super().__init__(f"{txn_id}: {detail} on {item}")
        self.txn_id = txn_id
        self.item = item


class SessionMismatch(TransactionError):
    """A physical request carried a session number != the DM's ``as[k]``.

    This is the §3.1 validity check of the paper: the requester's view of
    the target site is stale, so the request must be rejected.
    """

    def __init__(self, site_id: int, expected: int, actual: int) -> None:
        super().__init__(
            f"site {site_id}: request expected session {expected}, actual is {actual}"
        )
        self.site_id = site_id
        self.expected = expected
        self.actual = actual


class NotOperational(TransactionError):
    """A user-transaction request reached a site that is not operational."""

    def __init__(self, site_id: int) -> None:
        super().__init__(f"site {site_id} is not operational")
        self.site_id = site_id


class CopyUnreadable(TransactionError):
    """A read hit a copy marked unreadable and redirection was disabled."""

    def __init__(self, item: str, site_id: int) -> None:
        super().__init__(f"copy of {item} at site {site_id} is unreadable")
        self.item = item
        self.site_id = site_id


class SnapshotUnavailable(TransactionError):
    """A snapshot read found no committed version at-or-below its cut.

    Happens when garbage collection (or a chain that never reached this
    site) leaves no floor version for the transaction's pinned cut; the
    read-only transaction aborts and may retry with a fresh snapshot.
    """

    def __init__(self, item: str, site_id: int, cut_ts: float) -> None:
        super().__init__(
            f"no version of {item} at site {site_id} at-or-below cut {cut_ts:g}"
        )
        self.item = item
        self.site_id = site_id
        self.cut_ts = cut_ts


class TotalFailure(TransactionError):
    """No readable copy of a data item exists at any operational site.

    The paper (§3.2) notes a separate protocol is needed for this case and
    does not discuss it; we surface it explicitly.
    """

    def __init__(self, item: str) -> None:
        super().__init__(f"data item {item} has totally failed")
        self.item = item


# ---------------------------------------------------------------------------
# Recovery errors
# ---------------------------------------------------------------------------


class RecoveryError(ReproError):
    """Base class for recovery-procedure errors."""


class InvalidStateTransition(RecoveryError):
    """A site lifecycle method was called in the wrong state."""
