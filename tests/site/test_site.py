"""Unit tests for site lifecycle and crash semantics."""

import pytest

from repro.errors import Interrupt, InvalidStateTransition, TransactionAborted, UnhandledFailure
from repro.net import ConstantLatency, Network
from repro.sim import Kernel
from repro.site import Site, SiteStatus


@pytest.fixture
def kernel():
    return Kernel(seed=2)


@pytest.fixture
def net(kernel):
    return Network(kernel, latency=ConstantLatency(1.0))


@pytest.fixture
def site(kernel, net):
    return Site(kernel, net, 1)


class TestLifecycle:
    def test_starts_down(self, site):
        assert site.status is SiteStatus.DOWN
        assert site.is_down
        assert not site.is_operational

    def test_power_on_enters_recovering(self, site):
        site.power_on()
        assert site.status is SiteStatus.RECOVERING
        assert not site.is_operational
        assert site.rpc.running

    def test_become_operational(self, site):
        site.power_on()
        site.become_operational()
        assert site.is_operational

    def test_power_on_twice_rejected(self, site):
        site.power_on()
        with pytest.raises(InvalidStateTransition):
            site.power_on()

    def test_become_operational_requires_recovering(self, site):
        with pytest.raises(InvalidStateTransition):
            site.become_operational()
        site.power_on()
        site.become_operational()
        with pytest.raises(InvalidStateTransition):
            site.become_operational()

    def test_crash_requires_powered(self, site):
        with pytest.raises(InvalidStateTransition):
            site.crash()

    def test_crash_records_time_and_count(self, kernel, site):
        site.power_on()
        kernel.run(until=10)
        site.crash()
        assert site.last_crash_time == 10
        assert site.crash_count == 1


class TestCrashSemantics:
    def test_crash_kills_spawned_processes(self, kernel, site):
        """Spawned and adopted alike, silently: the crash's interrupt is
        a protocol signal, not an unobserved failure."""
        site.power_on()
        progress = []

        def worker():
            yield kernel.timeout(100)
            progress.append("done")  # must never run

        procs = [site.spawn(worker(), name="worker")]
        kernel.call_soon(lambda: procs.append(site.adopt(worker(), name="adopted")))
        kernel.run(until=5)
        site.crash()
        kernel.run()
        assert progress == []
        assert [type(proc.exception) for proc in procs] == [Interrupt, Interrupt]

    def test_crash_runs_hooks(self, site):
        site.power_on()
        fired = []
        site.crash_hooks.append(lambda: fired.append("crash"))
        site.crash()
        assert fired == ["crash"]

    def test_power_on_runs_hooks(self, site):
        fired = []
        site.power_on_hooks.append(lambda: fired.append("on"))
        site.power_on()
        assert fired == ["on"]

    def test_stable_storage_survives_crash(self, site):
        site.power_on()
        site.stable.put("session", 4)
        site.copies.create("X", value=1)
        site.crash()
        assert site.stable.get("session") == 4
        assert site.copies.get("X").value == 1

    def test_spawned_process_completes_normally(self, kernel, site):
        site.power_on()
        done = []

        def quick():
            yield kernel.timeout(1)
            done.append(True)

        site.spawn(quick(), name="quick")
        kernel.run()
        assert done == [True]


class TestUnobservedFailures:
    """A background process's failure is defused only when it is a
    protocol signal; a bug nobody waits on stops the run."""

    def test_bug_in_a_background_process_stops_the_run(self, kernel, site):
        site.power_on()

        def broken():
            yield kernel.timeout(1)
            raise AssertionError("invariant")

        site.spawn(broken(), name="broken")
        with pytest.raises(UnhandledFailure) as info:
            kernel.run()
        assert isinstance(info.value.failures[0], AssertionError)

    def test_bug_in_an_adopted_process_stops_the_run(self, kernel, site):
        site.power_on()

        def broken():
            yield kernel.timeout(1)
            raise AssertionError("invariant")

        kernel.call_soon(lambda: site.adopt(broken(), name="broken"))
        with pytest.raises(UnhandledFailure):
            kernel.run()

    def test_aborted_transaction_is_silent(self, kernel, site):
        site.power_on()

        def aborts():
            yield kernel.timeout(1)
            raise TransactionAborted("T1", "deadlock")

        proc = site.spawn(aborts(), name="txn")
        kernel.run()
        assert isinstance(proc.exception, TransactionAborted)

    def test_awaited_failure_reaches_only_its_caller(self, kernel, site):
        site.power_on()
        caught = []

        def broken():
            yield kernel.timeout(1)
            raise ValueError("app bug")

        def caller():
            try:
                yield site.spawn(broken(), name="txn")
            except ValueError as exc:
                caught.append(exc)

        kernel.process(caller())
        kernel.run()
        assert [str(exc) for exc in caught] == ["app bug"]
