"""Bit-identity of the cohort receiver model against real decoders.

Production keeps per-receiver state in numpy cohort arrays and answers
"is this unit decodable?" from received id sets.  The reference below,
:class:`DecoderReceivers`, holds one real :class:`FrameBlockDecoder` per
receiver instead.  Patching ``FrameTransmitter.open_frame``, which the
1-AP and the multi-AP transmitters both call, runs each case twice: once
on the reference alone, once on :class:`CheckedCohort` — the production
cohort, with every decodability verdict, tally, ``min_distinct`` and
``plain_missing`` answer checked against the reference as it is given.
Both runs must produce *bit-identical* ``TransmissionResult`` and
``OutcomeStats``, across codecs, AP counts, observability modes, user
counts, RNG seeds and fault mixes (including churn evict/rejoin).
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.beamforming import GroupBeamPlanner, SectorCodebook
from repro.core import MulticastStreamer, SystemConfig
from repro.faults import FaultController, FaultEvent, FaultKind, FaultSchedule
from repro.fountain.block import (
    FOUNTAIN_CODECS,
    CodingUnitId,
    FrameBlockDecoder,
    FrameBlockEncoder,
)
from repro.fountain.precode import PrecodeDecoder
from repro.fountain.raptor import COEFFICIENT_CACHE
from repro.obs import OBS, observed
from repro.phy.topology import TopologyConfig
from repro.scheduling.coding_groups import UnitAssignment
from repro.scheduling.groups import GroupEnumerator
from repro.transport import FrameCohort, FrameTransmitter, LinkModel
from repro.types import NUM_LAYERS, BeamformingScheme
from repro.video.jigsaw import SUBLAYER_COUNTS

from tests.faults.conftest import fingerprint

RES = dict(height=144, width=256)

# Small fault mixes exercising every feedback-loop branch the cohort path
# vectorizes: silent receivers (feedback loss), masked erasures, attenuated
# links, and receiver churn.
FAULT_MIXES = (
    {},
    {"erasure_rate_hz": 8.0, "seed": 11},
    {"feedback_loss_rate_hz": 6.0, "seed": 12},
    {"blockage_rate_hz": 4.0, "blockage_depth_db": 15.0, "seed": 13},
    {"churn_rate_hz": 3.0, "seed": 14},
    {
        "erasure_rate_hz": 5.0,
        "feedback_loss_rate_hz": 5.0,
        "churn_rate_hz": 2.0,
        "seed": 15,
    },
)


#: The CLI's ``blockage_failover`` preset: deep AP-0 bursts, so the 2-AP
#: arms actually hand over and repair across APs.
BLOCKAGE_FAILOVER = {
    "seed": 11,
    "blockage_rate_hz": 6.0,
    "blockage_duration_s": 0.3,
    "blockage_depth_db": 25.0,
}


class DecoderReceivers:
    """The reference receiver model: one real :class:`FrameBlockDecoder` each.

    Answers every call the transmitter passes and the pipeline stages make
    of a :class:`FrameCohort`, but by feeding each delivered symbol to the
    receiver's decoders and asking them.
    """

    def __init__(self, users, encoder):
        self.users = list(users)
        self.index = {u: i for i, u in enumerate(self.users)}
        self.k = encoder.symbols_per_unit()
        self.decoders = [
            FrameBlockDecoder(
                encoder.frame_index, encoder.structure, encoder.symbol_size,
                codec=encoder.codec,
            )
            for _ in self.users
        ]
        self.packets_received = np.zeros(len(self.users), dtype=np.int64)
        self.packets_lost = np.zeros(len(self.users), dtype=np.int64)
        self.delivered_payload_bytes = np.zeros(len(self.users))

    def member_rows(self, user_ids):
        rows = [self.index[u] for u in user_ids if u in self.index]
        return np.asarray(rows, dtype=np.intp)

    def record(self, unit, symbols, member_rows, delivered):
        """Per packet, per member: ingest on delivery, tally either way."""
        for symbol, outcomes in zip(symbols, delivered):
            for row, got in zip(member_rows, outcomes):
                if got:
                    self.decoders[row].ingest(symbol)
                    self.packets_received[row] += 1
                    self.delivered_payload_bytes[row] += len(symbol.payload)
                else:
                    self.packets_lost[row] += 1

    def min_distinct(self, unit, member_rows):
        return min(
            self.decoders[row].unit_decoder(unit).received_count
            for row in member_rows
        )

    def plain_missing(self, unit, member_rows):
        missing = set()
        for row in member_rows:
            decoder = self.decoders[row].unit_decoder(unit)
            if not decoder.is_decoded:
                missing |= set(range(self.k)) - decoder.received_ids()
        return sorted(missing)

    def decoded_matrices(self):
        masks = [decoder.sublayer_masks() for decoder in self.decoders]
        return [
            np.array([mask[layer] for mask in masks], dtype=bool).reshape(
                len(self.users), count
            )
            for layer, count in enumerate(SUBLAYER_COUNTS)
        ]

    def bytes_per_layer_matrix(self):
        return np.array(
            [decoder.bytes_received_per_layer() for decoder in self.decoders]
        ).reshape(len(self.users), NUM_LAYERS)

    def receptions(self):
        return {
            user: SimpleNamespace(
                decoder=self.decoders[row],
                packets_received=int(self.packets_received[row]),
                packets_lost=int(self.packets_lost[row]),
                delivered_payload_bytes=float(self.delivered_payload_bytes[row]),
            )
            for row, user in enumerate(self.users)
        }


class CheckedCohort(FrameCohort):
    """The production cohort, every answer checked as it is given against
    :class:`DecoderReceivers` fed the same deliveries."""

    def __init__(self, users, encoder):
        super().__init__(users, encoder)
        self.reference = DecoderReceivers(users, encoder)

    def _ask(self, question, *args):
        # The reference's decoders must leave no trace in the OBS counters.
        with observed("off", reset=False):
            return getattr(self.reference, question)(*args)

    def record(self, unit, symbols, member_rows, delivered):
        super().record(unit, symbols, member_rows, delivered)
        self._ask("record", unit, symbols, member_rows, delivered)

    def min_distinct(self, unit, member_rows):
        # A decoded unit's decoder stops counting; the cohort does not.
        # Both agree up to K, which is all a deficit reads.
        got = super().min_distinct(unit, member_rows)
        real = self._ask("min_distinct", unit, member_rows)
        assert min(got, self.k) == min(real, self.k)
        return got

    def plain_missing(self, unit, member_rows):
        got = super().plain_missing(unit, member_rows)
        assert got == self._ask("plain_missing", unit, member_rows)
        return got

    def decoded_matrices(self):
        got = super().decoded_matrices()
        for mine, real in zip(got, self._ask("decoded_matrices")):
            np.testing.assert_array_equal(mine, real)
        return got

    def bytes_per_layer_matrix(self):
        got = super().bytes_per_layer_matrix()
        np.testing.assert_array_equal(got, self._ask("bytes_per_layer_matrix"))
        return got

    def receptions(self):
        for tally in ("packets_received", "packets_lost", "delivered_payload_bytes"):
            np.testing.assert_array_equal(
                getattr(self, tally), getattr(self.reference, tally)
            )
        return super().receptions()


def _receivers(model):
    """While active, every transmitter records into a ``model`` instance."""
    return mock.patch.object(
        FrameTransmitter, "open_frame",
        lambda self, encoder, users: model(users, encoder),
    )


def _transmit_world(scenario, num_users, seed):
    """Channel snapshot plus capped candidate groups for ``num_users``."""
    positions = scenario.place_arc(num_users, 3.0, 90, seed=seed)
    state = scenario.channel_model.snapshot(
        {i: p for i, p in enumerate(positions)}, np.random.default_rng(seed)
    )
    codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
    planner = GroupBeamPlanner(
        scenario.array, codebook, scenario.channel_model.budget,
        BeamformingScheme.OPTIMIZED_MULTICAST,
    )
    enum = GroupEnumerator(
        planner, rate_scale=56.25, min_rate_mbps=0.0, max_group_size=2
    )
    return state, enum.enumerate(state, sorted(state.channels))


def _assignments(encoder, groups):
    """Spread layer-0/1 units round-robin over all candidate groups."""
    unit_bytes = encoder.unit_nbytes()
    out = []
    turn = 0
    for layer in (0, 1):
        for sub in range(min(3, SUBLAYER_COUNTS[layer])):
            group = groups[turn % len(groups)]
            out.append(UnitAssignment(group.index, layer, sub, unit_bytes))
            turn += 1
    return out


def _result_digest(result):
    """Bit-exact digest of a TransmissionResult, path-agnostic."""
    per_user = []
    for user in sorted(result.receptions):
        reception = result.receptions[user]
        per_user.append(
            (
                user,
                reception.packets_received,
                reception.packets_lost,
                float(reception.delivered_payload_bytes).hex(),
                tuple(
                    mask.tobytes()
                    for mask in reception.decoder.sublayer_masks()
                ),
            )
        )
    return (
        float(result.airtime_s).hex(),
        result.packets_sent,
        result.packets_dropped_at_queue,
        result.feedback_rounds_used,
        tuple(per_user),
    )


def _assert_oracle_matches_decoders(cohort):
    """Every receiver's oracle verdicts equal its replayed real decoders'."""
    matrices = cohort.decoded_matrices()
    for row, reception in enumerate(cohort.receptions().values()):
        masks = reception.decoder.sublayer_masks()
        for matrix, mask in zip(matrices, masks):
            assert matrix[row].tolist() == mask.tolist()


class TestTransmitterEquivalence:
    """Real decoders and the cohort agree bit-for-bit at equal seeds."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_users=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
        rate_control=st.booleans(),
        source_coding=st.booleans(),
        fountain_codec=st.sampled_from(FOUNTAIN_CODECS),
    )
    @example(num_users=64, seed=0, rate_control=True, source_coding=True,
             fountain_codec="dense")
    @example(num_users=1, seed=7, rate_control=False, source_coding=True,
             fountain_codec="precode")
    @example(num_users=8, seed=3, rate_control=True, source_coding=False,
             fountain_codec="dense")
    def test_transmit_bit_identical(
        self, scenario, hr_probe, num_users, seed, rate_control,
        source_coding, fountain_codec,
    ):
        state, groups = _transmit_world(scenario, num_users, seed)

        def run():
            transmitter = FrameTransmitter(
                link=LinkModel(scenario.channel_model, associated_user=0),
                rate_control=rate_control,
                source_coding=source_coding,
            )
            encoder = FrameBlockEncoder(
                0, hr_probe.layered, codec=fountain_codec
            )
            return transmitter.transmit(
                encoder,
                _assignments(encoder, groups),
                groups,
                state,
                1 / 30,
                np.random.default_rng(seed),
            )

        with _receivers(DecoderReceivers):
            reference = run()
        with _receivers(CheckedCohort):
            optimized = run()
        assert isinstance(reference.cohort, DecoderReceivers)
        assert isinstance(optimized.cohort, CheckedCohort)
        assert _result_digest(optimized) == _result_digest(reference)


class TestRankDeficientPatterns:
    """``distinct >= K`` is necessary, not sufficient: the oracle must say
    no exactly where a real decoder fails on a rank-deficient id set."""

    @staticmethod
    def _deficient_ids(codec, encoder, unit):
        """K distinct ids of ``unit`` that do not decode."""
        k = encoder.symbols_per_unit()
        if codec == "dense":
            # One systematic hole, plugged by a repair row blind to it.
            sid = k
            while COEFFICIENT_CACHE.row(unit.block_id, k, sid)[0] != 0:
                sid += 1
            return list(range(1, k)) + [sid]
        rng = np.random.default_rng(0)
        for _ in range(2000):
            ids = rng.choice(2 * k, size=k, replace=False).tolist()
            decoder = PrecodeDecoder(
                unit.block_id, encoder.unit_nbytes(), encoder.symbol_size
            )
            for i in ids:
                decoder.add_symbol(encoder.symbol_at(unit, i))
            if not decoder.is_decoded:
                return ids
        raise AssertionError("no rank-deficient precode pattern found")

    @pytest.mark.parametrize("fountain_codec", FOUNTAIN_CODECS)
    def test_deficient_then_repaired(self, hr_probe, fountain_codec):
        encoder = FrameBlockEncoder(
            0, hr_probe.layered, codec=fountain_codec
        )
        unit = CodingUnitId(0, 1, 2)
        k = encoder.symbols_per_unit()
        ids = self._deficient_ids(fountain_codec, encoder, unit)
        cohort = FrameCohort([7, 8], encoder)
        rows = cohort.member_rows([7, 8])
        # User 7 gets the deficient set, user 8 every symbol but the last.
        delivered = np.ones((k, 2), dtype=bool)
        delivered[-1, 1] = False
        cohort.record(
            unit, [encoder.symbol_at(unit, i) for i in ids], rows, delivered
        )
        assert cohort.min_distinct(unit, rows[:1]) == k
        assert not cohort.decoded_matrices()[1][:, 2].any()
        _assert_oracle_matches_decoders(cohort)
        # Three more fresh symbols lift both to full rank.
        extra = [encoder.symbol_at(unit, 2 * k + i) for i in range(3)]
        cohort.record(unit, extra, rows, np.ones((3, 2), dtype=bool))
        assert cohort.decoded_matrices()[1][:, 2].all()
        _assert_oracle_matches_decoders(cohort)


class TestFeedbackReads:
    """Per-member delivery patterns far more uneven than a session's: every
    feedback and outcome read the checked cohort answers must match."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_users=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        source_coding=st.booleans(),
        fountain_codec=st.sampled_from(FOUNTAIN_CODECS),
    )
    @example(num_users=3, seed=1, source_coding=True, fountain_codec="dense")
    @example(num_users=3, seed=2, source_coding=False, fountain_codec="dense")
    def test_reads_match_decoders(
        self, hr_probe, num_users, seed, source_coding, fountain_codec
    ):
        rng = np.random.default_rng(seed)
        encoder = FrameBlockEncoder(0, hr_probe.layered, codec=fountain_codec)
        k = encoder.symbols_per_unit()
        users = list(range(10, 10 + num_users))
        cohort = CheckedCohort(users, encoder)
        everyone = cohort.member_rows(users)
        unit = CodingUnitId(0, 0, 1)
        for _ in range(4):  # a pass, then makeup rounds
            picked = rng.choice(users, size=rng.integers(1, num_users + 1),
                                replace=False)
            members = cohort.member_rows(sorted(picked.tolist()))
            count = int(rng.integers(1, k + 1))
            symbols = (
                encoder.next_symbols(unit, count) if source_coding
                else encoder.symbols_at(unit, rng.integers(0, k, size=count))
            )
            delivered = rng.random((count, members.size)) < rng.random()
            cohort.record(unit, symbols, members, delivered)
            for rows in [everyone] + [everyone[i:i + 1] for i in range(num_users)]:
                cohort.min_distinct(unit, rows)
                cohort.plain_missing(unit, rows)
        cohort.decoded_matrices()
        cohort.bytes_per_layer_matrix()
        cohort.receptions()


class TestSessionEquivalence:
    """End-to-end outcomes agree bit-for-bit across the receiver models."""

    def _outcomes(self, scenario, tiny_dnn, hr_probe, num_users, seed,
                  faults, frames=4, events=None, codec="dense", num_aps=1,
                  obs="off", audit=None):
        """(fingerprint, per-user packet totals, OBS counters) of a run on
        real decoders and a run on the checked cohort; each arm asserts
        which receiver model ran and hands every cohort to ``audit``."""
        positions = scenario.place_arc(num_users, 3.0, 60, seed=seed)
        trace = scenario.static_trace(
            positions, duration_s=0.3, seed=seed + 1, num_aps=num_aps
        )
        overrides = {}
        if num_aps > 1:
            faults = {**BLOCKAGE_FAILOVER, **faults}
            overrides["topology"] = TopologyConfig(num_aps=num_aps)
        results = []
        for receiver_model in (DecoderReceivers, CheckedCohort):
            totals = {}

            class Audit:
                name = "audit"

                def run(self, ctx, session):
                    assert type(ctx.result.cohort) is receiver_model
                    if audit is not None and receiver_model is CheckedCohort:
                        audit(ctx.result.cohort)
                    for user, reception in ctx.result.receptions.items():
                        got, lost = totals.get(user, (0, 0))
                        totals[user] = (
                            got + reception.packets_received,
                            lost + reception.packets_lost,
                        )

            with observed(obs), _receivers(receiver_model):
                config = SystemConfig(
                    **RES, faults=dict(faults), fountain_codec=codec,
                    **overrides,
                )
                streamer = MulticastStreamer(
                    config, tiny_dnn, [hr_probe], scenario.channel_model,
                    seed=seed,
                )
                controller = (
                    FaultController(FaultSchedule(events=list(events)))
                    if events is not None
                    else None
                )
                session = streamer.session(trace, faults=controller)
                session.stages.append(Audit())
                outcome = session.run(frames)
                results.append((fingerprint(outcome), totals, OBS.counters()))
        return results

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_users=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=999),
        faults=st.sampled_from(FAULT_MIXES),
        fountain_codec=st.sampled_from(FOUNTAIN_CODECS),
        num_aps=st.sampled_from((1, 2)),
        obs=st.sampled_from(("off", "counters")),
    )
    @example(num_users=4, seed=0, faults=FAULT_MIXES[5],
             fountain_codec="dense",
             num_aps=1, obs="off")
    @example(num_users=4, seed=0, faults=FAULT_MIXES[5],
             fountain_codec="precode",
             num_aps=2, obs="counters")
    @example(num_users=3, seed=1, faults=FAULT_MIXES[1],
             fountain_codec="precode",
             num_aps=1, obs="off")
    @example(num_users=3, seed=2, faults=FAULT_MIXES[2],
             fountain_codec="dense",
             num_aps=2, obs="off")
    def test_outcome_stats_bit_identical(
        self, scenario, tiny_dnn, hr_probe, num_users, seed, faults,
        fountain_codec, num_aps, obs,
    ):
        reference, optimized = self._outcomes(
            scenario, tiny_dnn, hr_probe, num_users, seed, faults,
            codec=fountain_codec, num_aps=num_aps, obs=obs,
        )
        assert optimized[:2] == reference[:2]

    @pytest.mark.parametrize("fountain_codec", FOUNTAIN_CODECS)
    @pytest.mark.parametrize("num_aps", (1, 2))
    def test_oracle_matches_decoders_in_a_lossy_session(
        self, scenario, tiny_dnn, hr_probe, fountain_codec, num_aps
    ):
        """Erasure bursts punch systematic holes, so units are settled by
        the rank oracle; every verdict must be what real decoders, replayed
        from the recorded events, conclude."""
        via_rank = []

        def audit(cohort):
            _assert_oracle_matches_decoders(cohort)
            for state in cohort._units.values():
                settled = state.decoded_users() & ~state.sys_mask.all(axis=0)
                via_rank.append(int(settled.sum()))

        self._outcomes(
            scenario, tiny_dnn, hr_probe, 3, 9, FAULT_MIXES[1], frames=6,
            codec=fountain_codec, num_aps=num_aps, audit=audit,
        )
        assert sum(via_rank) > 0

    @pytest.mark.parametrize("fountain_codec", FOUNTAIN_CODECS)
    @pytest.mark.parametrize("num_aps", (1, 2))
    def test_observability_describes_the_path_that_runs(
        self, scenario, tiny_dnn, hr_probe, fountain_codec, num_aps
    ):
        """Turning counters on changes neither the outcome nor the receiver
        model, and the per-user delivery counters are the cohort's totals
        (cross-AP repair packets included)."""
        runs = {
            obs: self._outcomes(
                scenario, tiny_dnn, hr_probe, 3, 9, FAULT_MIXES[1],
                frames=6, codec=fountain_codec, num_aps=num_aps, obs=obs,
            )[1]
            for obs in ("off", "counters")
        }
        assert runs["counters"][0] == runs["off"][0]
        _, totals, counters = runs["counters"]
        assert totals == runs["off"][1]
        for user, (got, lost) in totals.items():
            assert counters[f"transport.user.{user}.delivered"] == got
            assert counters[f"transport.user.{user}.lost"] == lost
        assert counters["fountain.symbols_received"] == sum(
            got for got, _ in totals.values()
        )
        assert counters["fountain.blocks_decoded"] > 0
        assert counters["decode.fountain.calls"] == 6
        if num_aps > 1:
            assert counters["core.repair.packets"] > 0

    def test_churn_evict_rejoin_bit_identical(
        self, scenario, tiny_dnn, hr_probe
    ):
        """Deterministic leave/rejoin: the cohort of each frame holds
        exactly the members real decoders do, across the eviction and the
        re-admission with a reset bandwidth history."""
        events = [
            FaultEvent(FaultKind.LEAVE, 0.05, user=1),
            FaultEvent(FaultKind.JOIN, 0.15, user=1),
        ]
        reference, optimized = self._outcomes(
            scenario, tiny_dnn, hr_probe, num_users=3, seed=5, faults={},
            frames=8, events=events,
        )
        assert optimized[:2] == reference[:2]


class TestThousandUserSmoke:
    """The cohort arrays hold up at three orders of magnitude."""

    def test_transmit_1000_users(self, scenario, hr_probe):
        state, groups = _transmit_world(scenario, 1000, seed=3)
        transmitter = FrameTransmitter(
            link=LinkModel(scenario.channel_model, associated_user=0)
        )
        encoder = FrameBlockEncoder(0, hr_probe.layered)
        result = transmitter.transmit(
            encoder,
            _assignments(encoder, groups),
            groups,
            state,
            1 / 30,
            np.random.default_rng(3),
        )
        assert len(result.receptions) == 1000
        assert result.packets_sent > 0
        # Spot-check a handful of rows materialize coherent decoders.
        for user in (0, 499, 999):
            masks = result.receptions[user].decoder.sublayer_masks()
            assert len(masks) == len(SUBLAYER_COUNTS)
