"""Multi-AP sessions: one stage list, 1-AP bit-identity, failover, repair.

The load-bearing contract: the topology axis is purely *additive*.  A
config without a topology block (or with ``num_aps == 1``) must stream
bit-identically to the pre-topology system — including on a multi-AP
*superset* trace, whose AP-0 sub-trace carries exactly the channels a
single-AP recording would (that identity is what lets one shared trace
serve the 1-AP and 2-AP arms of a failover sweep).  On top of that, the
2-AP pipeline must actually earn its keep: under deep AP-0 blockage its
SSIM must hold up at least as well as the single AP's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import BeamTrackingStrategy, MulticastStreamer, SystemConfig
from repro.errors import ConfigurationError
from repro.obs import OBS, observed
from repro.phy.topology import TopologyConfig
from repro.transport.cohort import FrameCohort
from repro.types import AdaptationPolicy, Position

from tests.faults.conftest import fingerprint

RES = dict(height=144, width=256)

#: Fault mixes for the identity properties: clean, blocked, and mixed.
FAULT_MIXES = (
    {},
    {"blockage_rate_hz": 5.0, "blockage_depth_db": 20.0, "seed": 21},
    {"blockage_rate_hz": 3.0, "erasure_rate_hz": 4.0, "seed": 22},
)

#: The bench's failover scenario: frequent deep blockage bursts.
BLOCKAGE = dict(
    seed=11, blockage_rate_hz=6.0, blockage_duration_s=0.25,
    blockage_depth_db=25.0,
)


def _trace(scenario, num_users, seed, num_aps=1, duration_s=0.3):
    positions = scenario.place_arc(num_users, 3.0, 60, seed=seed)
    return scenario.static_trace(
        positions, duration_s=duration_s, seed=seed + 1, num_aps=num_aps
    )


def _run(scenario, tiny_dnn, hr_probe, trace, seed=0, frames=4, **overrides):
    config = SystemConfig(**RES, **overrides)
    streamer = MulticastStreamer(
        config, tiny_dnn, [hr_probe], scenario.channel_model, seed=seed
    )
    return streamer.session(trace).run(frames)


class TestStageSelection:
    def test_one_stage_list_at_every_ap_count(
        self, scenario, tiny_dnn, hr_probe
    ):
        trace = _trace(scenario, 2, seed=3, num_aps=2)
        stage_types = []
        for topology in (None, TopologyConfig(num_aps=1),
                         TopologyConfig(num_aps=2)):
            config = SystemConfig(**RES, topology=topology)
            streamer = MulticastStreamer(
                config, tiny_dnn, [hr_probe], scenario.channel_model, seed=0
            )
            session = streamer.session(trace)
            stage_types.append([type(stage) for stage in session.stages])
        assert stage_types[0] == stage_types[1] == stage_types[2]

    def test_one_ap_does_no_association_work(
        self, scenario, tiny_dnn, hr_probe
    ):
        """At one AP, AP 0 serves everyone: no association policy is ever
        built, so no RSS matrix is computed, and nothing is repaired."""
        trace = _trace(scenario, 3, seed=3, num_aps=2)
        config = SystemConfig(**RES, topology=TopologyConfig(num_aps=1))
        streamer = MulticastStreamer(
            config, tiny_dnn, [hr_probe], scenario.channel_model, seed=0
        )
        session = streamer.session(trace)
        with observed("counters"):
            session.run(4)
            counters = OBS.counters()
        assert session.stages[0].association is None
        assert session.state.ap_users == [[0, 1, 2]]
        assert session.state.repair_plans == [{}]
        assert not any(
            name.startswith(("core.repair", "transport.association"))
            for name in counters
        )

    @pytest.mark.parametrize("num_aps", (1, 2))
    def test_receptions_built_once_per_frame(
        self, scenario, tiny_dnn, hr_probe, monkeypatch, num_aps
    ):
        """Per-AP passes share one receiver state and build no per-user
        views of it; the frame's result builds them once, on first read."""
        built = []
        receptions = FrameCohort.receptions

        def counting(cohort):
            built.append(cohort.frame_index)
            return receptions(cohort)

        monkeypatch.setattr(FrameCohort, "receptions", counting)

        class Reader:
            name = "reader"

            def run(self, ctx, session):
                assert ctx.result.receptions is ctx.result.receptions

        trace = _trace(scenario, 3, seed=9, num_aps=2)
        config = SystemConfig(**RES, topology=TopologyConfig(num_aps=num_aps))
        streamer = MulticastStreamer(
            config, tiny_dnn, [hr_probe], scenario.channel_model, seed=0
        )
        session = streamer.session(trace)
        session.stages.append(Reader())
        session.run(4)
        assert built == [0, 1, 2, 3]

    def test_insufficient_trace_rejected(self, scenario, tiny_dnn, hr_probe):
        """A 2-AP config on a 1-AP trace is a recording mistake, not
        something to paper over."""
        trace = _trace(scenario, 2, seed=3, num_aps=1)
        config = SystemConfig(**RES, topology=TopologyConfig(num_aps=2))
        streamer = MulticastStreamer(
            config, tiny_dnn, [hr_probe], scenario.channel_model, seed=0
        )
        with pytest.raises(ConfigurationError):
            streamer.session(trace)

    def test_topology_dict_coerced(self):
        config = SystemConfig(**RES, topology={"num_aps": 2})
        assert config.num_aps == 2


class TestSingleApIdentity:
    """No-topology, 1-AP-topology and superset-trace runs are one system."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_users=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=999),
        faults=st.sampled_from(FAULT_MIXES),
    )
    @example(num_users=2, seed=0, faults=FAULT_MIXES[1])
    def test_superset_trace_identity(
        self, scenario, tiny_dnn, hr_probe, num_users, seed, faults
    ):
        """A 1-AP config streams the AP-0 sub-trace of a 2-AP superset
        recording bit-identically to a plain 1-AP recording."""
        single = _trace(scenario, num_users, seed)
        superset = _trace(scenario, num_users, seed, num_aps=2)
        reference = fingerprint(_run(
            scenario, tiny_dnn, hr_probe, single,
            seed=seed, faults=dict(faults),
        ))
        on_superset = fingerprint(_run(
            scenario, tiny_dnn, hr_probe, superset,
            seed=seed, faults=dict(faults),
        ))
        assert on_superset == reference

    def test_explicit_single_ap_topology_identity(
        self, scenario, tiny_dnn, hr_probe
    ):
        """``topology=TopologyConfig(num_aps=1)`` is indistinguishable from
        no topology block at all."""
        trace = _trace(scenario, 2, seed=7)
        without = fingerprint(
            _run(scenario, tiny_dnn, hr_probe, trace, seed=7)
        )
        with_block = fingerprint(_run(
            scenario, tiny_dnn, hr_probe, trace, seed=7,
            topology=TopologyConfig(num_aps=1),
        ))
        assert with_block == without


class TestMultiApSession:
    def _two_ap_outcome(self, scenario, tiny_dnn, hr_probe, seed=0,
                        frames=6, **overrides):
        trace = _trace(scenario, 3, seed=9, num_aps=2, duration_s=0.4)
        return _run(
            scenario, tiny_dnn, hr_probe, trace, seed=seed, frames=frames,
            topology=TopologyConfig(num_aps=2), **overrides,
        )

    def test_two_ap_session_runs_and_scores(
        self, scenario, tiny_dnn, hr_probe
    ):
        outcome = self._two_ap_outcome(scenario, tiny_dnn, hr_probe)
        assert {(s.frame_index, s.user_id) for s in outcome.stats} == {
            (f, u) for f in range(6) for u in range(3)
        }
        assert all(0.0 <= s.ssim <= 1.0 for s in outcome.stats)

    def test_two_ap_session_deterministic(self, scenario, tiny_dnn, hr_probe):
        first = fingerprint(self._two_ap_outcome(
            scenario, tiny_dnn, hr_probe, faults=dict(BLOCKAGE),
        ))
        second = fingerprint(self._two_ap_outcome(
            scenario, tiny_dnn, hr_probe, faults=dict(BLOCKAGE),
        ))
        assert first == second

    def test_precode_repair_session_matches_the_parent_commit(
        self, scenario, tiny_dnn, hr_probe, lr_probe
    ):
        """The precode's rows did not change when the dense coefficient
        format did, so a precode session — 2 APs, blockage, cross-AP
        repair — must reproduce the outcome recorded at commit 4c5e9b2
        (symbol lists, scalar ``gf_rank``, five-pass SSIM) as is: symbol
        batches, the stacked rank elimination and the cached SSIM reference
        half change no outcome."""
        positions = scenario.place_arc(4, 3.0, 60, seed=71)
        trace = scenario.static_trace(
            positions, duration_s=0.4, seed=72, num_aps=2
        )
        config = SystemConfig(
            **RES, fountain_codec="precode",
            topology=TopologyConfig(num_aps=2), faults=dict(BLOCKAGE),
        )
        streamer = MulticastStreamer(
            config, tiny_dnn, [hr_probe, lr_probe], scenario.channel_model,
            seed=73,
        )
        with observed("counters"):
            outcome = streamer.session(trace).run(12)
            counters = OBS.counters()
        assert outcome.fingerprint() == (
            "f88619760bda156724792da6f32e742f13126893e97ecbf6a7ff2ef23cfb9b6c"
        )
        assert counters["core.repair.packets"] == 890
        assert counters["fountain.symbols_encoded"] == 24226

    def test_frame_context_carries_topology_state(
        self, scenario, tiny_dnn, hr_probe
    ):
        """The per-AP planning products are visible to downstream stages."""
        seen = []

        class Spy:
            name = "spy"

            def run(self, ctx, session):
                seen.append((
                    ctx.ap_users, ctx.ap_allocations, ctx.ap_assignments,
                    ctx.repair_plans,
                ))

        trace = _trace(scenario, 3, seed=9, num_aps=2, duration_s=0.4)
        config = SystemConfig(**RES, topology=TopologyConfig(num_aps=2))
        streamer = MulticastStreamer(
            config, tiny_dnn, [hr_probe], scenario.channel_model, seed=0
        )
        session = streamer.session(trace)
        session.stages.append(Spy())
        session.run(2)
        assert len(seen) == 2
        for ap_users, ap_allocations, ap_assignments, repair_plans in seen:
            assert len(ap_users) == 2
            assert sorted(u for users in ap_users for u in users) == [0, 1, 2]
            assert len(ap_allocations) == len(ap_assignments) == 2
            assert len(repair_plans) == 2
            for ap, plans in enumerate(repair_plans):
                assert not set(plans) & set(ap_users[ap])

    def test_association_gauges_count_each_aps_users(
        self, scenario, tiny_dnn, hr_probe
    ):
        """The association publishes, per AP, how many users it serves."""
        trace = _trace(scenario, 3, seed=9, num_aps=2, duration_s=0.4)
        config = SystemConfig(**RES, topology=TopologyConfig(num_aps=2))
        streamer = MulticastStreamer(
            config, tiny_dnn, [hr_probe], scenario.channel_model, seed=0
        )
        session = streamer.session(trace)
        with observed("counters"):
            session.run(2)
            gauges = OBS.gauges()
        counts = [gauges[f"transport.association.ap.{ap}.users"] for ap in (0, 1)]
        assert counts == [len(users) for users in session.state.ap_users]
        assert sum(counts) == 3

    def test_cross_ap_repair_delivers_symbols_under_blockage(
        self, scenario, tiny_dnn, hr_probe
    ):
        """Deep AP-0 blockage leaves decode deficits the secondary AP's
        repair symbols actually fill."""
        with observed("counters"):
            self._two_ap_outcome(
                scenario, tiny_dnn, hr_probe, faults=dict(BLOCKAGE),
            )
            counters = OBS.counters()
        assert counters.get("core.repair.users", 0) > 0
        assert counters.get("core.repair.delivered", 0) > 0

    def test_tallies_include_cross_ap_repair(
        self, scenario, tiny_dnn, hr_probe
    ):
        """``user_state(u)`` is the sum of that user's per-frame receptions,
        repair packets from the secondary AP included."""
        totals = {}

        class Sum:
            name = "sum"

            def run(self, ctx, session):
                for user, reception in ctx.result.receptions.items():
                    got, lost = totals.get(user, (0, 0))
                    totals[user] = (
                        got + reception.packets_received,
                        lost + reception.packets_lost,
                    )

        trace = _trace(scenario, 3, seed=9, num_aps=2, duration_s=0.4)
        config = SystemConfig(
            **RES, topology=TopologyConfig(num_aps=2), faults=dict(BLOCKAGE)
        )
        with observed("counters"):
            streamer = MulticastStreamer(
                config, tiny_dnn, [hr_probe], scenario.channel_model, seed=0
            )
            session = streamer.session(trace)
            session.stages.append(Sum())
            session.run(6)
            repaired = OBS.counters().get("core.repair.packets", 0)
        assert repaired > 0
        for user, (got, lost) in totals.items():
            tally = streamer.transmitter.user_state(user)
            assert (tally.frames, tally.packets_received, tally.packets_lost) == (
                6, got, lost,
            )

    def test_two_ap_holds_ssim_under_blockage(
        self, scenario, tiny_dnn, hr_probe
    ):
        """The failover claim, in miniature: with deep AP-0 blockage the
        2-AP pipeline's mean SSIM must not fall below the 1-AP pipeline's
        on the same superset trace (deterministic seeds: this is the
        bench_multi_ap acceptance flag as a unit test)."""
        trace = _trace(scenario, 3, seed=9, num_aps=2, duration_s=0.4)
        single = _run(
            scenario, tiny_dnn, hr_probe, trace, seed=0, frames=8,
            faults=dict(BLOCKAGE),
        )
        double = _run(
            scenario, tiny_dnn, hr_probe, trace, seed=0, frames=8,
            topology=TopologyConfig(num_aps=2), faults=dict(BLOCKAGE),
        )
        def mean_ssim(outcome):
            return float(np.mean([s.ssim for s in outcome.stats]))

        assert mean_ssim(double) >= mean_ssim(single) - 1e-9


class TestStrategiesAtTwoAps:
    """The session's adaptation strategy runs at every AP count, on each
    AP's own allocation and channels."""

    def _frames(self, scenario, tiny_dnn, hr_probe, **overrides):
        """Per frame, the (ap_users, ap_allocations) the stages saw."""
        seen = []

        class Spy:
            name = "spy"

            def run(self, ctx, session):
                seen.append((ctx.ap_users, list(ctx.ap_allocations)))

        # Two users near each AP, so both APs serve from the first plan on.
        positions = [
            Position(3.0, 5.0), Position(3.5, 7.0),
            Position(16.5, 5.5), Position(17.0, 7.0),
        ]
        trace = scenario.static_trace(
            positions, duration_s=0.4, seed=5, num_aps=2
        )
        config = SystemConfig(
            **RES, topology=TopologyConfig(num_aps=2),
            adaptation=AdaptationPolicy.NO_UPDATE, faults=dict(BLOCKAGE),
            **overrides,
        )
        streamer = MulticastStreamer(
            config, tiny_dnn, [hr_probe], scenario.channel_model, seed=0
        )
        session = streamer.session(trace)
        session.stages.append(Spy())
        session.run(10)  # beacons at frames 3, 6 and 9
        return seen, trace, streamer

    def test_frozen_keeps_every_allocation_and_the_association(
        self, scenario, tiny_dnn, hr_probe
    ):
        seen, _, _ = self._frames(
            scenario, tiny_dnn, hr_probe, no_update_beam_tracking=False
        )
        users, allocations = seen[0]
        assert all(users) and None not in allocations
        for later_users, later_allocations in seen[1:]:
            assert later_users == users
            assert all(
                a is b for a, b in zip(later_allocations, allocations)
            )

    def test_beam_tracking_retracks_each_ap_on_its_own_channels(
        self, scenario, tiny_dnn, hr_probe
    ):
        seen, trace, streamer = self._frames(scenario, tiny_dnn, hr_probe)
        users, initial = seen[0]
        assert all(users) and None not in initial
        tracked_users, tracked = seen[3]
        assert tracked_users == users
        estimated = trace.at_time(3 / 30).estimated_state
        for ap, (before, after) in enumerate(zip(initial, tracked)):
            expected = BeamTrackingStrategy.retrack_beams(
                streamer.codebook, streamer.channel_model, before,
                estimated.for_ap(ap),
            )
            assert after is not before
            assert after.time_s is before.time_s
            assert [g.user_ids for g in after.groups] == [
                g.user_ids for g in before.groups
            ]
            for got, want in zip(after.groups, expected.groups):
                np.testing.assert_array_equal(got.plan.beam, want.plan.beam)
