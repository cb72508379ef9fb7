"""Tests for the totally-failed item resolution (DESIGN.md §6.4).

The paper defers this case ("a separate protocol is needed", §3.2); the
implemented rule: when every resident site of the item is nominally up
and no readable copy exists, the highest version among the stable
(unreadable) copies is provably the latest committed one — resurrect it.
"""

from repro.core import RowaaConfig
from tests.core.conftest import build_system, read_program, write_program


def all_marked_scenario(seed=61):
    """Drive every copy of X unreadable: write while 3 is down; recover 3
    but crash 1 and 2 before its copiers can run; then recover them too
    (mark-all marks everything) — no readable copy of X remains."""
    config = RowaaConfig(copier_mode="eager")
    kernel, system = build_system(
        rowaa_config=config, seed=seed, detection_delay=2.0
    )
    kernel.run(system.submit(1, write_program("X", 77)))
    # Mark X unreadable at every site directly (the compressed version of
    # the crash cascade — reachable, as the soak showed, but slow to set
    # up deterministically).
    for site_id in (1, 2, 3):
        system.cluster.site(site_id).copies.mark_unreadable("X")
    return kernel, system


class TestResurrection:
    def test_version_vote_revives_item(self):
        kernel, system = all_marked_scenario()
        # Kick copiers via the retry hook (as a recovery would).
        for site_id in (1, 2, 3):
            system.copiers[site_id].retry_unreadable()
        kernel.run(until=kernel.now + 300)
        system.stop()
        kernel.run(until=kernel.now + 10)
        # All copies readable again, at the latest committed value.
        for site_id in (1, 2, 3):
            copy = system.cluster.site(site_id).copies.get("X")
            assert not copy.unreadable
            assert copy.value == 77
        resurrections = sum(
            system.copiers[s].stats.resurrections for s in (1, 2, 3)
        )
        assert resurrections >= 1

    def test_reads_work_after_resurrection(self):
        kernel, system = all_marked_scenario(seed=62)
        for site_id in (1, 2, 3):
            system.copiers[site_id].retry_unreadable()
        kernel.run(until=kernel.now + 300)
        assert kernel.run(
            system.submit_with_retry(2, read_program("X"), attempts=5)
        ) == 77

    def test_no_resurrection_while_a_resident_is_down(self):
        """With a resident site nominally down, a newer version might
        live there: the copier must keep waiting, not guess."""
        config = RowaaConfig(copier_mode="eager")
        kernel, system = build_system(rowaa_config=config, seed=63,
                                      detection_delay=2.0)
        kernel.run(system.submit(1, write_program("X", 5)))
        system.crash(3)
        kernel.run(until=kernel.now + 20)  # type-2 excludes site 3
        for site_id in (1, 2):
            system.cluster.site(site_id).copies.mark_unreadable("X")
            system.copiers[site_id].retry_unreadable()
        kernel.run(until=kernel.now + 120)
        # Still unreadable: resurrection refused (site 3 nominally down).
        assert system.cluster.site(1).copies.get("X").unreadable
        assert (
            system.copiers[1].stats.resurrections
            + system.copiers[2].stats.resurrections
        ) == 0
        # Site 3 comes back: now the vote can proceed.
        kernel.run(system.power_on(3))
        kernel.run(until=kernel.now + 300)
        system.stop()
        kernel.run(until=kernel.now + 10)
        for site_id in (1, 2, 3):
            assert not system.cluster.site(site_id).copies.get("X").unreadable
            assert system.copy_value(site_id, "X") == 5

    def test_resurrected_value_is_max_version(self):
        """The vote picks the newest version even if the local copy is
        the stale one."""
        kernel, system = all_marked_scenario(seed=64)
        # Make site 2's copy artificially older (simulate a missed write).
        from repro.storage.copies import Version

        site2 = system.cluster.site(2)
        site2.copies.apply_write("X", 1, Version(0.5, 1, 1))
        site2.copies.mark_unreadable("X")
        system.copiers[2].retry_unreadable()
        kernel.run(until=kernel.now + 300)
        system.stop()
        kernel.run(until=kernel.now + 10)
        assert system.copy_value(2, "X") == 77  # not the stale 1
