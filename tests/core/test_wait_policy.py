"""A read at a recovered site never waits on its unreadable copy (§3.2)."""

import pytest

from repro.core import RowaaConfig
from repro.errors import TransactionAborted
from repro.storage import Catalog
from tests.core.conftest import build_system, read_program, write_program


class TestWaitPolicy:
    def test_wait_exhaustion_with_no_alternative_aborts(self):
        """Copiers disabled AND the only other copy's site is down: the
        read redirects, finds no readable copy, and aborts rather than
        hangs."""
        catalog = Catalog([1, 2, 3])
        catalog.add_item("X", [1, 3])
        config = RowaaConfig(copier_mode="none")
        kernel, system = build_system(
            items={"X": 0}, catalog=catalog, rowaa_config=config, seed=112
        )
        system.crash(3)
        kernel.run(until=kernel.now + 40)
        kernel.run(system.submit(1, write_program("X", 5)))
        kernel.run(system.power_on(3))
        system.crash(1)  # the current copy's host goes away
        kernel.run(until=kernel.now + 40)
        assert system.cluster.site(3).copies.get("X").unreadable
        with pytest.raises(TransactionAborted):
            kernel.run(system.submit(3, read_program("X")))
