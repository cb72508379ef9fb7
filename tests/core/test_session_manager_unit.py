"""Direct unit tests for SessionManager (complementing the system tests)."""

import pytest

from repro.core.session import SessionManager
from repro.net import ConstantLatency, Network
from repro.sim import Kernel
from repro.site import Site
from repro.txn import DataManager, TxnConfig
from repro.histories import HistoryRecorder


@pytest.fixture
def rig():
    kernel = Kernel(seed=1)
    network = Network(kernel, latency=ConstantLatency(1.0))
    site = Site(kernel, network, 1)
    dm = DataManager(kernel, site, HistoryRecorder(), TxnConfig())
    return kernel, site, dm


class TestSessionManager:
    def test_initial_state(self, rig):
        _kernel, site, dm = rig
        session = SessionManager(site, dm)
        assert session.current == 0
        assert session.last_used == 0
        assert session.session_started_at is None

    def test_choose_next_persists_before_use(self, rig):
        _kernel, site, dm = rig
        session = SessionManager(site, dm)
        assert session.choose_next() == 1
        # The reservation is stable even though as[k] was never loaded:
        assert session.last_used == 1
        assert session.current == 0

    def test_activate_sets_dm_and_timestamp(self, rig):
        kernel, site, dm = rig
        session = SessionManager(site, dm)
        number = session.choose_next()
        session.activate(number, now=12.5)
        assert dm.actual_session == number
        assert session.session_started_at == 12.5

    def test_crash_resets_current_not_last_used(self, rig):
        _kernel, site, dm = rig
        site.power_on()
        session = SessionManager(site, dm)
        session.activate(session.choose_next(), now=1.0)
        site.crash()
        assert session.current == 0
        assert session.last_used == 1

    def test_no_modulus_never_wraps(self, rig):
        _kernel, site, dm = rig
        session = SessionManager(site, dm)
        values = [session.choose_next() for _ in range(50)]
        assert values == list(range(1, 51))
