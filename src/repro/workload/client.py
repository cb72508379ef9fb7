"""Client drivers: issue generated transactions and collect outcomes."""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import Interrupt, NotOperational, TransactionAborted
from repro.sim.process import Process, defuse_signal
from repro.workload.generator import WorkloadGenerator

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system import DatabaseSystem

#: Pause before a client retries an aborted transaction.
RETRY_DELAY = 5.0


@dataclasses.dataclass
class ClientStats:
    """Aggregated client-side outcomes (the availability metrics of E1)."""

    attempted: int = 0
    committed: int = 0
    aborted: int = 0
    refused: int = 0  # home site not operational
    latencies: list[float] = dataclasses.field(default_factory=list)
    # Read-only (beginRO) outcomes, tracked separately so experiments
    # can report RO vs RW availability and latency side by side.
    ro_attempted: int = 0
    ro_committed: int = 0
    ro_aborted: int = 0
    ro_refused: int = 0
    ro_latencies: list[float] = dataclasses.field(default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of attempts that committed."""
        if self.attempted == 0:
            return 1.0
        return self.committed / self.attempted


class ClientPool:
    """Closed-loop clients: each runs one transaction at a time.

    Each client is pinned to a home site (round-robin). A transaction
    attempt that aborts may be retried (``retries``); refusal because the
    home site is down counts against availability (the user's terminal
    is wired to that site — the paper's availability story is about
    *data*, so experiments usually pin clients to surviving sites, but
    E1 also reports the refused counts).

    Programs flagged ``read_only`` (the workload's ``ro_fraction`` knob)
    are routed through ``submit_ro`` — the lock-free snapshot path — and
    are attempted even while the home site is still RECOVERING, since
    that is exactly when snapshot reads earn their keep. Setting
    ``force_locking=True`` sends them through the ordinary locking path
    instead (the E11 baseline).
    """

    def __init__(
        self,
        system: "DatabaseSystem",
        generator: WorkloadGenerator,
        n_clients: int,
        think_time: float = 1.0,
        retries: int = 2,
        home_sites: typing.Sequence[int] | None = None,
        force_locking: bool = False,
        per_client_streams: bool = False,
    ) -> None:
        self.system = system
        self.generator = generator
        self.n_clients = n_clients
        self.think_time = think_time
        self.retries = retries
        self.force_locking = force_locking
        self.home_sites = list(home_sites) if home_sites is not None else list(
            system.cluster.site_ids
        )
        self.stats = ClientStats()
        # With per_client_streams each client draws programs from its
        # own forked generator, so *which* transactions a client runs is
        # independent of the order clients interleave — required for
        # schedule-space fuzzing (repro schedfuzz), where a perturbed
        # tie-break may reorder execution but must not change the
        # programs. The forks happen here, in construction order, so
        # they are a pure function of the generator's seed either way.
        if per_client_streams:
            self._generators = [generator.fork(i) for i in range(n_clients)]
        else:
            self._generators = [generator] * n_clients
        self._procs: list[Process] = []
        self._stopping = False

    def start(self, duration: float) -> list[Process]:
        """Launch the clients; each stops after ``duration`` virtual time."""
        deadline = self.system.kernel.now + duration
        for index in range(self.n_clients):
            home = self.home_sites[index % len(self.home_sites)]
            proc = self.system.kernel.process(
                self._client_loop(home, deadline, self._generators[index]),
                f"client{index}@{home}",
                defuse_signal,
            )
            self._procs.append(proc)
        return self._procs

    def _client_loop(
        self, home: int, deadline: float, generator: WorkloadGenerator
    ) -> typing.Generator:
        kernel = self.system.kernel
        while kernel.now < deadline:
            program = generator.next_program()
            read_only = getattr(program, "read_only", False)
            start = kernel.now
            self.stats.attempted += 1
            if read_only:
                self.stats.ro_attempted += 1
            outcome = yield from self._attempt(home, program)
            if outcome == "committed":
                self.stats.committed += 1
                self.stats.latencies.append(kernel.now - start)
                if read_only:
                    self.stats.ro_committed += 1
                    self.stats.ro_latencies.append(kernel.now - start)
            elif outcome == "refused":
                self.stats.refused += 1
                if read_only:
                    self.stats.ro_refused += 1
            else:
                self.stats.aborted += 1
                if read_only:
                    self.stats.ro_aborted += 1
            if self.think_time > 0:
                yield kernel.timeout(self.think_time)

    def _attempt(self, home: int, program) -> typing.Generator:  # noqa: C901 - state machine
        kernel = self.system.kernel
        snapshot_path = (
            getattr(program, "read_only", False) and not self.force_locking
        )
        for attempt in range(1 + self.retries):
            # The client terminal is colocated with its home site: this is
            # a local attach to check status + submit, not remote access.
            site = self.system.cluster.site(home)  # replint: disable=REP003
            if snapshot_path:
                # Snapshot reads only need the site powered on: a
                # RECOVERING home still answers them from its durable
                # stale cut (the TM refuses under TO concurrency).
                if site.is_down:
                    return "refused"
                proc = self.system.tms[home].submit_ro(program)
                try:
                    yield proc
                    return "committed"
                except NotOperational:
                    return "refused"
                except Interrupt:
                    return "refused"  # home site crashed mid-read
                except TransactionAborted:
                    if attempt < self.retries:
                        yield kernel.timeout(RETRY_DELAY)
                continue
            if not site.is_operational:
                return "refused"
            # Submit through the site so a crash interrupts the attempt
            # (instead of stranding this client on a dead RPC future).
            proc = self.system.tms[home].submit(program)
            try:
                yield proc
                return "committed"
            except NotOperational:
                return "refused"
            except Interrupt:
                return "refused"  # home site crashed mid-transaction
            except TransactionAborted:
                if attempt < self.retries:
                    yield kernel.timeout(RETRY_DELAY)
        return "aborted"
