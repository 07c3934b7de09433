"""Tests for the per-frame packet transmitter."""

import numpy as np
import pytest

from repro.beamforming import GroupBeamPlanner, SectorCodebook
from repro.errors import TransportError
from repro.fountain import block, raptor
from repro.fountain.block import FrameBlockEncoder
from repro.scheduling.coding_groups import UnitAssignment
from repro.scheduling.groups import GroupEnumerator
from repro.transport import FrameTransmitter, LinkModel
from repro.types import BeamformingScheme, Position


@pytest.fixture(scope="module")
def world(request):
    """A 2-user channel, enumerated groups and a frame encoder."""
    scenario = request.getfixturevalue("scenario")
    hr_probe = request.getfixturevalue("hr_probe")
    rng = np.random.default_rng(21)
    users = {0: Position(3.0, 6.5), 1: Position(3.5, 5.5)}
    state = scenario.channel_model.snapshot(users, rng)
    codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
    planner = GroupBeamPlanner(
        scenario.array, codebook, scenario.channel_model.budget,
        BeamformingScheme.OPTIMIZED_MULTICAST,
    )
    enum = GroupEnumerator(planner, rate_scale=56.25, min_rate_mbps=0.0)
    groups = enum.enumerate(state, [0, 1])
    return scenario, state, groups, hr_probe


def _encoder(hr_probe, frame_index=0):
    return FrameBlockEncoder(frame_index, hr_probe.layered)


def _assignments(encoder, group_index, layers=(0,), units_per_layer=3):
    from repro.video.jigsaw import SUBLAYER_COUNTS

    unit_bytes = encoder.unit_nbytes()
    out = []
    for layer in layers:
        for sub in range(min(units_per_layer, SUBLAYER_COUNTS[layer])):
            out.append(UnitAssignment(group_index, layer, sub, unit_bytes))
    return out


def _transmitter(scenario, **kwargs):
    return FrameTransmitter(
        link=LinkModel(scenario.channel_model, associated_user=0), **kwargs
    )


class TestPacedTransmission:
    def test_good_link_delivers_scheduled_units(self, world):
        scenario, state, groups, probe = world
        group = max(groups, key=lambda g: len(g.user_ids))
        encoder = _encoder(probe)
        assignments = _assignments(encoder, group.index, layers=(0,), units_per_layer=3)
        result = _transmitter(scenario).transmit(
            encoder, assignments, groups, state, 1 / 30, np.random.default_rng(1)
        )
        for user in group.user_ids:
            masks = result.receptions[user].decoder.sublayer_masks()
            assert masks[0].all()

    def test_airtime_within_budget(self, world):
        scenario, state, groups, probe = world
        encoder = _encoder(probe)
        assignments = _assignments(encoder, 0, layers=(0, 1, 2, 3),
                                   units_per_layer=4)
        result = _transmitter(scenario).transmit(
            encoder, assignments, groups, state, 1 / 30, np.random.default_rng(2)
        )
        assert result.airtime_s <= 1 / 30 + 1e-9

    def test_deadline_cuts_high_layers_first(self, world):
        """With a tiny budget, layer-0 units ship before layer-3 units."""
        scenario, state, groups, probe = world
        encoder = _encoder(probe)
        assignments = (
            _assignments(encoder, 0, layers=(0,), units_per_layer=3)
            + _assignments(encoder, 0, layers=(3,), units_per_layer=40)
        )
        result = _transmitter(scenario, max_feedback_rounds=0).transmit(
            encoder, assignments, groups, state, 1 / 600,
            np.random.default_rng(3),
        )
        user = groups[0].user_ids[0]
        masks = result.receptions[user].decoder.sublayer_masks()
        assert masks[0].sum() >= masks[3].sum()

    def test_rate_limit_slows_transmission(self, world):
        scenario, state, groups, probe = world
        encoder_a = _encoder(probe)
        encoder_b = _encoder(probe)
        assignments = _assignments(encoder_a, 0, layers=(0, 1), units_per_layer=3)
        assignments_b = _assignments(encoder_b, 0, layers=(0, 1), units_per_layer=3)
        fast = _transmitter(scenario, max_feedback_rounds=0).transmit(
            encoder_a, assignments, groups, state, 1 / 30,
            np.random.default_rng(4),
        )
        slow = _transmitter(scenario, max_feedback_rounds=0).transmit(
            encoder_b, assignments_b, groups, state, 1 / 30,
            np.random.default_rng(4),
            rate_limits_bytes_per_s={0: groups[0].rate_bytes_per_s / 4},
        )
        assert slow.airtime_s > fast.airtime_s

    def test_bad_budget_rejected(self, world):
        scenario, state, groups, probe = world
        encoder = _encoder(probe)
        with pytest.raises(TransportError):
            _transmitter(scenario).transmit(
                encoder, [], groups, state, 0.0, np.random.default_rng(5)
            )


class TestFeedbackRetransmission:
    def test_feedback_recovers_from_losses(self, world):
        """Force a lossy MCS and check makeup rounds recover units that the
        initial pass lost."""
        scenario, state, groups, probe = world
        encoder_a = _encoder(probe)
        encoder_b = _encoder(probe, frame_index=0)
        group = groups[0]
        assignments = _assignments(encoder_a, group.index, layers=(0, 1),
                                   units_per_layer=3)
        assignments_b = _assignments(encoder_b, group.index, layers=(0, 1),
                                     units_per_layer=3)

        # Degrade the channel so the selected MCS is marginal.
        weak_state = type(state)(
            channels={u: h * 10 ** (-4 / 20) for u, h in state.channels.items()},
            positions=state.positions,
        )
        without = _transmitter(scenario, max_feedback_rounds=0).transmit(
            encoder_a, assignments, groups, weak_state, 1 / 30,
            np.random.default_rng(6),
        )
        with_fb = _transmitter(scenario, max_feedback_rounds=3).transmit(
            encoder_b, assignments_b, groups, weak_state, 1 / 30,
            np.random.default_rng(6),
        )
        decoded_without = sum(
            len(r.decoder.decoded_units()) for r in without.receptions.values()
        )
        decoded_with = sum(
            len(r.decoder.decoded_units()) for r in with_fb.receptions.values()
        )
        assert decoded_with >= decoded_without

    def test_no_feedback_when_everything_arrived(self, world):
        scenario, state, groups, probe = world
        encoder = _encoder(probe)
        assignments = _assignments(encoder, 0, layers=(0,), units_per_layer=1)
        result = _transmitter(scenario, max_feedback_rounds=3).transmit(
            encoder, assignments, groups, state, 1 / 30, np.random.default_rng(7)
        )
        assert result.feedback_rounds_used <= 1


class TestSourceCodingModes:
    def test_plain_mode_duplicates_across_groups(self, world):
        """Without source coding, two overlapping groups send identical
        segments, so the shared user decodes no more than one group's worth."""
        scenario, state, groups, probe = world
        multi = [g for g in groups if len(g.user_ids) == 2]
        if not multi:
            pytest.skip("no 2-user group at this seed")
        group = multi[0]
        shared_user = group.user_ids[0]
        single = next(
            g for g in groups if g.user_ids == (shared_user,)
        )
        unit_bytes = probe.codec.structure.sublayer_nbytes

        def run(source_coding):
            encoder = _encoder(probe)
            half = [
                UnitAssignment(single.index, 1, 0, 0.6 * unit_bytes),
                UnitAssignment(group.index, 1, 0, 0.6 * unit_bytes),
            ]
            tx = _transmitter(
                scenario, source_coding=source_coding, max_feedback_rounds=0
            )
            result = tx.transmit(
                encoder, half, groups, state, 1 / 30, np.random.default_rng(8)
            )
            unit = encoder.units[3]  # layer 1, sublayer 0
            return result.receptions[shared_user].decoder.unit_decoder(unit)

        assert run(source_coding=True).is_decoded
        assert not run(source_coding=False).is_decoded

    def test_plain_mode_retransmits_missing_segments(self, world):
        scenario, state, groups, probe = world
        encoder = _encoder(probe)
        assignments = _assignments(encoder, 0, layers=(0,), units_per_layer=3)
        weak_state = type(state)(
            channels={u: h * 10 ** (-3 / 20) for u, h in state.channels.items()},
            positions=state.positions,
        )
        result = _transmitter(
            scenario, source_coding=False, max_feedback_rounds=3
        ).transmit(
            encoder, assignments, groups, weak_state, 1 / 30,
            np.random.default_rng(9),
        )
        assert result.packets_sent > 0


class TestUserStateLifecycle:
    def test_tallies_accumulate_across_frames(self, world):
        scenario, state, groups, probe = world
        group = max(groups, key=lambda g: len(g.user_ids))
        tx = _transmitter(scenario)
        for frame in range(2):
            encoder = _encoder(probe, frame_index=frame)
            tx.transmit(
                encoder, _assignments(encoder, group.index), groups, state,
                1 / 30, np.random.default_rng(30 + frame),
            )
        assert tx.tracked_users() == [0, 1]
        for user in (0, 1):
            tally = tx.user_state(user)
            assert tally.frames == 2
            if user in group.user_ids:
                assert tally.packets_received + tally.packets_lost > 0

    def test_evict_user_drops_state(self, world):
        """Regression: a departed receiver's per-user state must not leak
        for the lifetime of the transmitter."""
        scenario, state, groups, probe = world
        tx = _transmitter(scenario)
        encoder = _encoder(probe)
        tx.transmit(
            encoder, _assignments(encoder, 0), groups, state, 1 / 30,
            np.random.default_rng(32),
        )
        assert tx.user_state(1) is not None
        tx.evict_user(1)
        assert tx.user_state(1) is None
        assert tx.tracked_users() == [0]
        tx.evict_user(99)  # unknown user is a no-op
        assert tx.tracked_users() == [0]

    def test_rejoin_restarts_tally_from_scratch(self, world):
        scenario, state, groups, probe = world
        tx = _transmitter(scenario)
        for frame in range(3):
            encoder = _encoder(probe, frame_index=frame)
            tx.transmit(
                encoder, _assignments(encoder, 0), groups, state, 1 / 30,
                np.random.default_rng(40 + frame),
            )
            if frame == 0:
                tx.evict_user(1)
        assert tx.user_state(0).frames == 3
        assert tx.user_state(1).frames == 2

    def test_active_users_restricts_receptions_and_tallies(self, world):
        scenario, state, groups, probe = world
        tx = _transmitter(scenario)
        encoder = _encoder(probe)
        result = tx.transmit(
            encoder, _assignments(encoder, 0), groups, state, 1 / 30,
            np.random.default_rng(33), active_users=[0],
        )
        assert set(result.receptions) == {0}
        assert tx.tracked_users() == [0]


class TestBurstMode:
    def test_no_rate_control_uses_queue(self, world):
        scenario, state, groups, probe = world
        encoder = _encoder(probe)
        assignments = _assignments(encoder, 0, layers=(0, 1, 2, 3),
                                   units_per_layer=10)
        result = _transmitter(
            scenario, rate_control=False, max_feedback_rounds=0
        ).transmit(
            encoder, assignments, groups, state, 1 / 30, np.random.default_rng(10)
        )
        assert result.packets_sent > 0
        assert result.packets_dropped_at_queue >= 0


class TestWholeFrameForms:
    """Counts, not times: what a frame used to do once per repair row, per
    unit or per receiver pattern, it now does once per pass or per frame."""

    def test_one_derivation_per_pass_one_elimination_per_frame(
        self, scenario, hr_probe, monkeypatch
    ):
        calls = {"rows": 0, "ranks": 0}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(raptor, "coefficient_rows", "rows")
        counted(block, "gf_ranks", "ranks")

        # Four receivers, links 6 dB under plan, every unit sent to two groups:
        # the second group continues the stream past K (repair rows in the
        # first pass) and losses leave deficits for the feedback rounds.
        positions = scenario.place_arc(4, 3.0, 90, seed=8)
        state = scenario.channel_model.snapshot(
            dict(enumerate(positions)), np.random.default_rng(8)
        )
        codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
        planner = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.OPTIMIZED_MULTICAST,
        )
        groups = GroupEnumerator(
            planner, rate_scale=56.25, min_rate_mbps=0.0, max_group_size=2
        ).enumerate(state, [0, 1, 2, 3])
        pairs = [g for g in groups if len(g.user_ids) == 2]
        first = pairs[0]
        second = next(g for g in pairs if not set(g.user_ids) & set(first.user_ids))
        encoder = _encoder(hr_probe)
        assignments = [
            UnitAssignment(group.index, 1, sub, encoder.unit_nbytes())
            for sub in range(4)
            for group in (first, second)
        ]
        weak_state = type(state)(
            channels={u: h * 10 ** (-6 / 20) for u, h in state.channels.items()},
            positions=state.positions,
        )
        result = _transmitter(scenario, max_feedback_rounds=2).transmit(
            encoder, assignments, groups, weak_state, 1 / 30,
            np.random.default_rng(9),
        )
        assert result.feedback_rounds_used == 2
        assert calls == {"rows": 1 + result.feedback_rounds_used, "ranks": 0}

        calls.update(rows=0, ranks=0)
        matrices = result.cohort.decoded_matrices()
        assert calls == {"rows": 1, "ranks": 1}
        result.cohort.decoded_matrices()  # every unit's verdict is cached
        assert calls == {"rows": 1, "ranks": 1}
        # The one elimination decided receivers no count could settle, and
        # as their real decoders would.
        via_rank = 0
        for unit, unit_state in result.cohort._units.items():
            via_rank += int(
                (unit_state.decoded_users() & ~unit_state.sys_mask.all(axis=0)).sum()
            )
        assert via_rank > 0
        for row, reception in enumerate(result.cohort.receptions().values()):
            masks = reception.decoder.sublayer_masks()
            for matrix, mask in zip(matrices, masks):
                assert matrix[row].tolist() == mask.tolist()
