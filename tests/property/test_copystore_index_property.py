"""Property test: ``CopyStore`` keeps its unreadable set equal to a scan.

The store answers "how many copies are unreadable?" from ``_unreadable``
instead of reading every copy's mark. A random sequence of every mutator
— the live ones and the restore path's ``reset`` / ``install`` — must
leave the set, the count and the ordered item list equal to what the
scan over all copies gives, after every single step.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.storage import CopyStore, Version

ITEMS = [f"X{index}" for index in range(6)] + ["NS[1]"]

items = st.sampled_from(ITEMS)
mutations = st.one_of(
    st.tuples(st.just("create"), items),
    st.tuples(st.just("apply_write"), items),
    st.tuples(st.just("mark_unreadable"), items),
    st.tuples(st.just("clear_unreadable"), items),
    st.tuples(st.just("mark_all_unreadable"), st.none()),
    st.tuples(st.just("reset"), st.none()),
    st.tuples(st.just("install_readable"), items),
    st.tuples(st.just("install_unreadable"), items),
)


def apply(store: CopyStore, op: str, item, step: int) -> None:
    version = Version(float(step), step)
    if op == "create":
        if not store.has(item):
            store.create(item, 0)
    elif op == "mark_all_unreadable":
        store.mark_all_unreadable()
    elif op == "reset":
        store.reset()
    elif op == "install_readable":
        store.install(item, step, version, unreadable=False)
    elif op == "install_unreadable":
        store.install(item, step, version, unreadable=True)
    elif store.has(item):
        if op == "apply_write":
            store.apply_write(item, step, version)
        else:
            getattr(store, op)(item)


def check_index_equals_scan(store: CopyStore) -> None:
    scanned = [name for name in store.items() if store.get(name).unreadable]
    assert store._unreadable == set(scanned)
    assert store.unreadable_count() == len(scanned)
    assert store.unreadable_items() == scanned  # creation order, as the scan gave
    for name in ITEMS:
        assert store.is_unreadable(name) == (name in scanned)


@given(ops=st.lists(mutations, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_unreadable_set_equals_scan_after_every_mutator(ops):
    store = CopyStore(1)
    store.subscribers.append(lambda *record: None)  # notify a subscriber too
    for step, (op, item) in enumerate(ops, start=1):
        apply(store, op, item, step)
        check_index_equals_scan(store)
