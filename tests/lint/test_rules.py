"""Directed true-positive / clean-code tests for every replint rule.

Each rule gets at least one test that plants the violation and asserts
it is caught, and one that runs the rule over idiomatic clean code and
asserts silence — so a rule can neither rot into a no-op nor start
flagging the sanctioned patterns.
"""


def rules_of(result):
    return [f.rule for f in result.findings]


class TestRep001Nondeterminism:
    def test_module_level_random_flagged(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            import random

            def jitter():
                return random.random()
            """,
            rules=["REP001"],
        )
        assert rules_of(result) == ["REP001"]

    def test_from_random_import_flagged(self, lint):
        result = lint(
            "repro/workload/x.py",
            "from random import choice\n",
            rules=["REP001"],
        )
        assert rules_of(result) == ["REP001"]

    def test_seeded_random_class_allowed(self, lint):
        result = lint(
            "repro/workload/x.py",
            """
            from random import Random

            def make_stream(seed):
                return Random(seed)
            """,
            rules=["REP001"],
        )
        assert result.findings == []

    def test_wall_clock_in_sim_time_flagged(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            rules=["REP001"],
        )
        assert rules_of(result) == ["REP001"]

    def test_from_time_import_flagged_at_import_and_call(self, lint):
        result = lint(
            "repro/wal/x.py",
            """
            from time import monotonic

            def stamp():
                return monotonic()
            """,
            rules=["REP001"],
        )
        assert rules_of(result) == ["REP001", "REP001"]

    def test_wall_clock_outside_sim_time_allowed(self, lint):
        # The harness legitimately measures wall time (e.g. run duration).
        result = lint(
            "repro/harness/x.py",
            """
            import time

            def wall():
                return time.perf_counter()
            """,
            rules=["REP001"],
        )
        assert result.findings == []

    def test_uuid4_flagged_everywhere(self, lint):
        result = lint(
            "repro/harness/x.py",
            """
            import uuid

            def run_id():
                return uuid.uuid4()
            """,
            rules=["REP001"],
        )
        assert rules_of(result) == ["REP001"]

    def test_os_urandom_flagged(self, lint):
        result = lint(
            "repro/core/x.py",
            "import os\ntoken = os.urandom(8)\n",
            rules=["REP001"],
        )
        assert rules_of(result) == ["REP001"]

    def test_datetime_now_in_sim_time_flagged(self, lint):
        result = lint(
            "repro/site/x.py",
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
            rules=["REP001"],
        )
        assert rules_of(result) == ["REP001"]

    def test_rng_registry_module_is_exempt(self, lint):
        # The registry is the sanctioned wrapper around random.Random.
        result = lint(
            "repro/sim/rng.py",
            "import random\n_seeded = random.Random(0)\n",
            rules=["REP001"],
        )
        assert result.findings == []


class TestRep003CrossSiteReachThrough:
    def test_cluster_site_call_flagged(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            def peek(self, cluster, site_id):
                peer = cluster.site(site_id)
                return peer.copies.get("X0")
            """,
            rules=["REP003"],
        )
        assert rules_of(result) == ["REP003"]

    def test_sites_map_access_flagged(self, lint):
        result = lint(
            "repro/txn/x.py",
            """
            def snoop(self):
                return self.system.cluster.sites
            """,
            rules=["REP003"],
        )
        assert rules_of(result) == ["REP003"]

    def test_rpc_and_status_reads_allowed(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            def probe(self, cluster, net, site_id):
                up = cluster.detector(self.site_id).believes_up(site_id)
                if up:
                    yield net.call(site_id, "ping", {})
                return cluster.site_ids
            """,
            rules=["REP003"],
        )
        assert result.findings == []

    def test_system_driver_module_is_exempt(self, lint):
        result = lint(
            "repro/core/system.py",
            """
            def crash(self, site_id):
                self.cluster.site(site_id).crash()
            """,
            rules=["REP003"],
        )
        assert result.findings == []

    def test_out_of_scope_layer_ignored(self, lint):
        # The site/cluster layer itself owns the map by definition.
        result = lint(
            "repro/site/x.py",
            "def all_sites(cluster):\n    return cluster.sites\n",
            rules=["REP003"],
        )
        assert result.findings == []


class TestRep004DurabilityBypass:
    def test_bare_open_flagged(self, lint):
        result = lint(
            "repro/wal/x.py",
            """
            def persist(path, data):
                with open(path, "w") as fh:
                    fh.write(data)
            """,
            rules=["REP004"],
        )
        assert rules_of(result) == ["REP004"]

    def test_os_mutators_and_shutil_flagged(self, lint):
        result = lint(
            "repro/storage/x.py",
            """
            import os
            import shutil

            def wipe(path):
                os.remove(path)
                shutil.rmtree(path)
            """,
            rules=["REP004"],
        )
        assert rules_of(result) == ["REP004", "REP004"]

    def test_write_text_flagged(self, lint):
        result = lint(
            "repro/core/x.py",
            "def dump(path, data):\n    path.write_text(data)\n",
            rules=["REP004"],
        )
        assert rules_of(result) == ["REP004"]

    def test_os_path_and_environ_allowed(self, lint):
        result = lint(
            "repro/wal/x.py",
            """
            import os

            def name(base, suffix):
                flag = os.environ.get("REPRO_DEBUG")
                return os.path.join(base, suffix), flag
            """,
            rules=["REP004"],
        )
        assert result.findings == []

    def test_harness_artifact_writes_allowed(self, lint):
        # The harness sits outside the simulated machines.
        result = lint(
            "repro/harness/x.py",
            "def dump(path, data):\n    path.write_text(data)\n",
            rules=["REP004"],
        )
        assert result.findings == []

    def test_stable_write_outside_its_writers_flagged(self, lint):
        # One writer per durable record: the redo log and the TM's
        # commit record. Holds outside the simulated layers too.
        result = lint(
            "repro/audit/x.py",
            """
            def forge(site, stable):
                site.stable.put("tm.commit.T1", (1, 1))
                stable.delete("wal.meta")
            """,
            rules=["REP004"],
        )
        assert rules_of(result) == ["REP004", "REP004"]

    def test_stable_write_by_its_writers_allowed(self, lint):
        source = """
            def record(site, stable, decisions):
                site.stable.put("tm.commit.T1", (1, 1))
                stable.delete("wal.seg.0")
                decisions.put("T1", "committed")
            """
        for path in ("repro/wal/x.py", "repro/txn/manager.py"):
            assert lint(path, source, rules=["REP004"]).findings == []


class TestRep005FloatEquality:
    def test_float_literal_equality_flagged(self, lint):
        result = lint(
            "repro/core/x.py",
            "def decide(t):\n    return t == 1.5\n",
            rules=["REP005"],
        )
        assert rules_of(result) == ["REP005"]

    def test_division_and_float_call_flagged(self, lint):
        result = lint(
            "repro/txn/x.py",
            """
            def check(a, b, c, raw):
                if a / b != c:
                    return False
                return float(raw) == c
            """,
            rules=["REP005"],
        )
        assert rules_of(result) == ["REP005", "REP005"]

    def test_ordering_and_int_comparisons_allowed(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            def decide(t, deadline, count):
                if t <= deadline + 0.5:
                    return True
                return count == 3
            """,
            rules=["REP005"],
        )
        assert result.findings == []

    def test_out_of_scope_layer_ignored(self, lint):
        result = lint(
            "repro/harness/x.py",
            "def close_enough(x):\n    return x == 0.1\n",
            rules=["REP005"],
        )
        assert result.findings == []


class TestRep007StaleYield:
    def test_stale_session_read_across_yield_flagged(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            def recover(site, kernel):
                session = site.sessions.current
                yield kernel.timeout(5.0)
                site.sessions.activate(session + 1, kernel.now)
            """,
            rules=["REP007"],
        )
        assert rules_of(result) == ["REP007"]
        assert "activate(session)" in result.findings[0].message

    def test_revalidated_read_after_yield_clean(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            def recover(site, kernel):
                session = site.sessions.current
                yield kernel.timeout(5.0)
                session = site.sessions.current
                site.sessions.activate(session + 1, kernel.now)
            """,
            rules=["REP007"],
        )
        assert result.findings == []

    def test_stale_store_to_state_attribute_flagged(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            def adopt(site, peer, kernel):
                seen = peer.actual_session
                yield kernel.timeout(1.0)
                site.actual_session = seen
            """,
            rules=["REP007"],
        )
        assert rules_of(result) == ["REP007"]
        assert "store to .actual_session" in result.findings[0].message

    def test_use_before_any_yield_clean(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            def bump(site, kernel):
                session = site.sessions.current
                site.sessions.activate(session + 1, kernel.now)
                yield kernel.timeout(5.0)
            """,
            rules=["REP007"],
        )
        assert result.findings == []

    def test_non_generator_function_ignored(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            def bump(site, kernel):
                session = site.sessions.current
                site.sessions.activate(session + 1, kernel.now)
            """,
            rules=["REP007"],
        )
        assert result.findings == []

    def test_out_of_scope_layer_ignored(self, lint):
        result = lint(
            "repro/harness/x.py",
            """
            def drive(site, kernel):
                session = site.sessions.current
                yield kernel.timeout(5.0)
                site.sessions.activate(session + 1, kernel.now)
            """,
            rules=["REP007"],
        )
        assert result.findings == []

    def test_inline_suppression(self, lint):
        result = lint(
            "repro/core/x.py",
            """
            def recover(site, kernel):
                session = site.sessions.current
                yield kernel.timeout(5.0)
                site.sessions.activate(session + 1, kernel.now)  # replint: disable=REP007  # session pinned by lock
            """,
            rules=["REP007"],
        )
        assert result.findings == []
        assert result.suppressed == 1
