"""Model-based soundness test for the §5 stale-tracking refinements.

A random schedule of writes, crashes, recoveries and collections is run
against the *real* system; a simple reference model tracks the ground
truth ("which copies actually missed a committed update"). Soundness:
whenever a site recovers, the set of items it marks unreadable must be
a SUPERSET of the ground-truth stale set (over-marking is allowed,
under-marking is a consistency bug).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import RowaaConfig, RowaaSystem
from repro.net import ConstantLatency
from repro.sim import Kernel
from repro.txn import TxnConfig

N_SITES = 3
ITEMS = [f"X{i}" for i in range(4)]


def actions():
    write = st.tuples(st.just("write"), st.sampled_from(ITEMS))
    crash = st.tuples(st.just("crash"), st.sampled_from(range(1, N_SITES + 1)))
    recover = st.tuples(st.just("recover"), st.sampled_from(range(1, N_SITES + 1)))
    return st.lists(st.one_of(write, crash, recover), min_size=3, max_size=12)


def _write_program(item, value):
    def program(ctx):
        yield from ctx.write(item, value)

    return program


@given(plan=actions(), policy=st.sampled_from(["fail-locks", "missing-lists"]))
@settings(max_examples=40, deadline=None)
def test_identification_is_sound(plan, policy):
    kernel = Kernel(seed=11)
    system = RowaaSystem(
        kernel,
        n_sites=N_SITES,
        items={item: 0 for item in ITEMS},
        latency=ConstantLatency(1.0),
        detection_delay=3.0,
        config=TxnConfig(rpc_timeout=20.0),
        rowaa_config=RowaaConfig(identify_mode=policy, copier_mode="eager"),
    )
    system.boot()

    # Ground truth: latest committed version index per item, and what
    # each site's copy last saw.
    latest = {item: 0 for item in ITEMS}
    site_has = {site: {item: 0 for item in ITEMS} for site in range(1, N_SITES + 1)}
    counter = 0

    for action, arg in plan:
        if action == "write":
            if len(system.cluster.operational_sites()) == 0:
                continue
            writer = system.cluster.operational_sites()[0]
            counter += 1
            try:
                kernel.run(
                    system.submit_with_retry(
                        writer, _write_program(arg, counter), attempts=6,
                    )
                )
            except Exception:
                continue  # couldn't commit (e.g. total failure): no truth change
            latest[arg] = counter
            for site in range(1, N_SITES + 1):
                if system.cluster.site(site).is_operational:
                    site_has[site][arg] = counter
            # Background copiers may also refresh copies; sync model from
            # actual committed copy state (versions are ground truth).
            kernel.run(until=kernel.now + 5)
        elif action == "crash":
            site = system.cluster.site(arg)
            if not site.is_down and len(system.cluster.operational_sites()) > 1:
                system.crash(arg)
                kernel.run(until=kernel.now + 10)
        else:  # recover
            if system.cluster.site(arg).is_down:
                record = kernel.run(system.power_on(arg))
                assert record.succeeded
                # SOUNDNESS: every actually-stale item must be marked.
                actually_stale = {
                    item
                    for item in ITEMS
                    if _copy_counter(system, arg, item) < latest[item]
                }
                marked = set(system.cluster.site(arg).copies.unreadable_items())
                missing = actually_stale - marked
                assert not missing, (
                    f"policy {policy} failed to mark stale copies {missing} "
                    f"at site {arg}"
                )
                kernel.run(until=kernel.now + 80)  # copiers drain

    system.stop()
    kernel.run(until=kernel.now + 400)


def _copy_counter(system, site_id, item):
    value = system.copy_value(site_id, item)
    return value if isinstance(value, int) else 0
