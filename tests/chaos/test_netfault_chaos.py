"""Chaos gates for dynamic topology: the netfault event matrix.

Four robustness guarantees, mirroring the fault-injection chaos
harness in :mod:`tests.chaos.test_chaos_matrix`:

1. **Byte identity of the empty plan.**  With every event rate zero the
   netfault subsystem is invisible: the run directory is byte-identical
   to the pre-netfault golden digest, whether network faults are
   disabled (``None``) or configured at rate zero.
2. **Worker identity.**  Under an active event plan, worker counts
   {1, 2, 4} produce canonically byte-identical stores.
3. **Resume identity.**  A campaign interrupted mid-outage and resumed
   in a fresh process is byte-identical to an uninterrupted run.
4. **Determinism.**  Same seed + same event config reproduce the same
   event schedule, the same journal, and the same dataset bytes.
"""

from __future__ import annotations

import pytest

from repro import build_world
from repro.measure.campaign import resume_campaign, run_campaign_checkpointed
from repro.netfaults import NetworkFaultConfig, NetworkFaultPlan

from tests.chaos.test_chaos_matrix import (
    GOLDEN,
    MATRIX,
    RETRY,
    file_map,
    run_digest,
)

SEED = 11
SCALE = 0.01
DAYS = 2

#: The event matrix: one regime per event family plus a kitchen sink.
#: Rates are set high enough that every regime realizes events at this
#: seed and scale (asserted below).
NETFAULT_MATRIX = {
    "link-failure": NetworkFaultConfig(
        link_failure_rate=0.8, max_events_per_day=4
    ),
    "peering-flap": NetworkFaultConfig(
        peering_flap_rate=0.9,
        max_events_per_day=4,
        min_duration_slots=4,
        max_duration_slots=12,
    ),
    "regional-outage": NetworkFaultConfig(
        regional_outage_rate=1.0,
        max_events_per_day=2,
        min_duration_slots=8,
        max_duration_slots=24,
    ),
    "everything": NetworkFaultConfig(
        link_failure_rate=0.4,
        peering_flap_rate=0.9,
        regional_outage_rate=0.3,
        max_events_per_day=5,
        min_duration_slots=4,
        max_duration_slots=12,
    ),
}


@pytest.fixture(scope="module")
def world():
    return build_world(seed=SEED, scale=SCALE)


class TestEmptyPlanByteIdentity:
    def test_zero_rate_netfaults_keep_the_golden_digest(self, world, tmp_path):
        """An all-zero event config takes the exact static-world path."""
        run_dir = tmp_path / "zero"
        run_campaign_checkpointed(
            world, run_dir, days=DAYS, netfaults=NetworkFaultConfig()
        )
        assert run_digest(run_dir) == GOLDEN

    def test_none_netfaults_keep_the_golden_digest(self, world, tmp_path):
        run_dir = tmp_path / "none"
        run_campaign_checkpointed(world, run_dir, days=DAYS, netfaults=None)
        assert run_digest(run_dir) == GOLDEN


#: Whole-run-directory digests of serial runs under active event plans,
#: pinned before traceroutes were assembled as columnar blocks.
#: ``regional-outage`` drops traces mid-batch and splits every unit into
#: several epoch segments, so its trace shards exercise the segment
#: merge and the (epoch, outage id) provenance columns;
#: ``harness+everything`` additionally runs the fault-injecting engine
#: (``MATRIX["everything"]``) on top of the event plan, truncating and
#: dropping traces that already carry provenance.
EVENT_GOLDEN = {
    "regional-outage": (
        "299e229249be83ba84a95b4458ebf4108a42fec1594c808a98c2f4ca4535e3c5"
    ),
    "harness+everything": (
        "dfd181ee55a2b1212181725f64af1ba4665ef206f84796a3ede54fe2b4dbcf96"
    ),
}


class TestEventPlanGolden:
    @pytest.mark.parametrize("regime", sorted(EVENT_GOLDEN))
    def test_event_run_is_byte_identical_to_its_golden_digest(
        self, regime, world, tmp_path
    ):
        harness, _, events = regime.rpartition("+")
        options = {"netfaults": NETFAULT_MATRIX[events]}
        if harness:
            options.update(faults=MATRIX[events], retry=RETRY)
        run_dir = tmp_path / "run"
        run_campaign_checkpointed(world, run_dir, days=DAYS, **options)
        assert run_digest(run_dir) == EVENT_GOLDEN[regime]


#: Whole-run digest of a serial three-day ``link-failure`` run, pinned
#: while requests were still filtered one at a time.  Its journal counts
#: the requests each event dropped and rerouted, so the digest pins
#: those per-event effects as well.
REROUTE_GOLDEN = "dc6c063478085f8aa665237d1181d6010210d864ccef9e3fc39274829277164e"


class TestRerouteGolden:
    def test_reroute_run_is_byte_identical_to_its_golden_digest(
        self, world, tmp_path
    ):
        run_dir = tmp_path / "run"
        store = run_campaign_checkpointed(
            world, run_dir, days=3, netfaults=NETFAULT_MATRIX["link-failure"]
        )
        events = [
            event
            for entry in store.unit_entries()
            for event in entry.get("netfaults", [])
        ]
        assert any(not event.endswith(" rerouted=0") for event in events)
        assert run_digest(run_dir) == REROUTE_GOLDEN


@pytest.mark.parametrize("regime", sorted(NETFAULT_MATRIX))
class TestNetfaultMatrix:
    def test_regime_realizes_events(self, regime, world):
        plan = NetworkFaultPlan(
            SEED, NETFAULT_MATRIX[regime], world.topology, world.catalog
        )
        assert any(plan.timeline(day).events for day in range(DAYS))

    def test_store_verifies_and_coverage_reconciles(
        self, regime, world, tmp_path
    ):
        store = run_campaign_checkpointed(
            world,
            tmp_path / regime,
            days=DAYS,
            netfaults=NETFAULT_MATRIX[regime],
        )
        assert store.verify() == []
        coverage = store.coverage()
        assert coverage.pending == 0
        assert coverage.skipped == 0
        assert coverage.completed + coverage.partial == coverage.planned

    def test_workers_are_byte_identical_to_serial(
        self, regime, world, tmp_path
    ):
        from repro.exec import canonical_store_digest, staging_root

        digests = {}
        for workers in (1, 2, 4):
            run_dir = tmp_path / f"w{workers}"
            store = run_campaign_checkpointed(
                world,
                run_dir,
                days=DAYS,
                netfaults=NETFAULT_MATRIX[regime],
                workers=workers,
            )
            assert store.verify() == []
            assert not staging_root(run_dir).exists()
            digests[workers] = canonical_store_digest(run_dir)
        assert digests[2] == digests[1], regime
        assert digests[4] == digests[1], regime


class TestResumeMidOutage:
    def test_interrupt_then_resume_is_byte_identical(
        self, world, tmp_path
    ):
        config = NETFAULT_MATRIX["everything"]
        full_dir = tmp_path / "full"
        run_campaign_checkpointed(world, full_dir, days=DAYS, netfaults=config)

        resumed_dir = tmp_path / "resumed"
        # Interrupt after one unit: day 0's events are mid-flight.
        store = run_campaign_checkpointed(
            world, resumed_dir, days=DAYS, netfaults=config, max_units=1
        )
        assert len(store.completed_units()) == 1

        # Resume with a freshly built world, as a new process would.
        fresh = build_world(seed=SEED, scale=SCALE)
        resume_campaign(fresh, resumed_dir, netfaults=config)

        full_files = file_map(full_dir)
        resumed_files = file_map(resumed_dir)
        assert sorted(full_files) == sorted(resumed_files)
        for name, payload in full_files.items():
            assert resumed_files[name] == payload, f"{name} differs"


class TestNetfaultDeterminism:
    def test_same_seed_and_config_reproduce_identical_runs(
        self, world, tmp_path
    ):
        maps = []
        for name in ("first", "second"):
            run_dir = tmp_path / name
            run_campaign_checkpointed(
                world,
                run_dir,
                days=DAYS,
                netfaults=NETFAULT_MATRIX["everything"],
            )
            maps.append(file_map(run_dir))
        assert maps[0] == maps[1]

    def test_event_schedule_is_journaled_deterministically(
        self, world, tmp_path
    ):
        journals = []
        for name in ("first", "second"):
            store = run_campaign_checkpointed(
                world,
                tmp_path / name,
                days=DAYS,
                netfaults=NETFAULT_MATRIX["regional-outage"],
            )
            journals.append(
                [
                    (entry["unit"], entry.get("netfaults"))
                    for entry in store.unit_entries()
                ]
            )
        assert journals[0] == journals[1]
        assert any(events for _, events in journals[0])
