"""Scenario construction: rooms, placements, and CSI trace generation.

An :class:`EmulationScenario` bundles the physical world (room, AP, phased
array, ray-traced channel) with the ACO-style CSI estimator, and records the
three kinds of traces the evaluation uses:

* static placements (arc at fixed distance, or random within a range),
* moving receivers (random-walk users constrained to a high- or low-RSS
  annulus around the AP, Sec 4.3.4), and
* moving environment (static users, walking blockers crossing the LoS).

Every trace records one block per AP and beacon: all receivers' channels
are synthesised as one ``(U, Nt)`` array (:meth:`ChannelModel.synthesise`)
and estimated in one draw (:class:`CsiEstimator`), bit for bit what a loop
over receivers would record.  Static receivers are traced once per AP;
moving ones are traced again every beacon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..errors import EmulationError
from ..phy.antenna import PhasedArray
from ..phy.channel import ChannelModel, ChannelState
from ..phy.csi import CsiEstimator, CsiSnapshot, CsiTrace
from ..phy.mobility import BEACON_INTERVAL_S, EnvironmentMotionModel, RandomWalkModel
from ..phy.propagation import HUMAN_BLOCKAGE_DB
from ..phy.raytracer import (
    RayTracer,
    Room,
    place_users_arc,
    place_users_random_range,
)
from ..phy.topology import Topology
from ..types import Position, validate_seed


@dataclass
class EmulationScenario:
    """A reusable physical world for experiments.

    Args:
        room: Room geometry (default 20 m x 12 m, the meeting-room scale the
            paper scanned).
        ap_position: AP placement (default against one wall, centred).
        num_elements: AP array size.
        phase_bits: Phase-shifter resolution.
        csi_error_std: Relative ACO CSI estimation error.
        seed: Base seed for channel shadowing and placement draws.
    """

    room: Room = field(default_factory=Room)
    ap_position: Position = Position(0.3, 6.0)
    num_elements: int = 32
    phase_bits: int = 2
    csi_error_std: float = 0.1
    self_blockage_prob: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        self.array = PhasedArray(self.num_elements, self.phase_bits)
        self.tracer = RayTracer(self.room, self.ap_position)
        self.channel_model = ChannelModel(self.tracer, self.array)
        self.estimator = CsiEstimator(self.csi_error_std)
        self._rng = validate_seed(self.seed)
        self._ap_models: Dict[int, List[ChannelModel]] = {}

    # ------------------------------------------------------------- topologies

    def topology(self, num_aps: int) -> Topology:
        """The wall-midpoint topology for ``num_aps`` APs (AP 0 = legacy AP)."""
        return Topology.for_room(self.room, num_aps, first_ap=self.ap_position)

    def ap_channel_models(self, num_aps: int) -> List[ChannelModel]:
        """Per-AP channel models, AP 0 first (entry 0 is the legacy model).

        Extra APs share the same array geometry and link budget; only the
        tracer (AP position + boresight) differs.  Models are cached per
        AP count so repeated trace generation reuses the same tracers.
        """
        if num_aps not in self._ap_models:
            topo = self.topology(num_aps)
            models = [self.channel_model]
            for ap in topo.aps[1:]:
                tracer = RayTracer(self.room, ap.position, ap.boresight_rad)
                models.append(ChannelModel(tracer, self.array))
            self._ap_models[num_aps] = models
        return self._ap_models[num_aps]

    # ------------------------------------------------------------ placements

    def place_arc(
        self, num_users: int, distance_m: float, mas_deg: float, seed: int
    ) -> List[Position]:
        """Users on an arc (testbed layout, Fig 4a)."""
        rng = validate_seed(seed)
        return place_users_arc(
            self.ap_position, self.room, num_users, distance_m,
            float(np.deg2rad(mas_deg)), rng,
        )

    def place_random_range(
        self,
        num_users: int,
        min_distance_m: float,
        max_distance_m: float,
        mas_deg: float,
        seed: int,
    ) -> List[Position]:
        """Users at random distances in a range (emulation layout, Fig 4b)."""
        rng = validate_seed(seed)
        return place_users_random_range(
            self.ap_position, self.room, num_users,
            min_distance_m, max_distance_m, float(np.deg2rad(mas_deg)), rng,
        )

    # ---------------------------------------------------------------- traces

    def static_trace(
        self,
        positions: Sequence[Position],
        duration_s: float = 1.0,
        seed: int = 0,
        num_aps: int = 1,
    ) -> CsiTrace:
        """CSI trace for stationary users (fading still varies per beacon).

        With ``num_aps > 1`` each snapshot also carries per-AP channel dicts
        (:attr:`ChannelState.ap_channels`).  Each AP draws its shadowing and
        CSI-estimation noise from its own seeded stream — AP 0 keeps the
        exact single-AP stream (``validate_seed(seed)``), extra APs use
        ``default_rng([seed, ap])`` — so the AP 0 sub-trace of an N-AP
        trace is bit-identical to a 1-AP trace at the same seed: one
        superset trace serves 1-AP and N-AP arms under identical channel
        conditions.
        """
        if num_aps > 1 and (not isinstance(seed, (int, np.integer)) or seed < 0):
            raise EmulationError(
                f"multi-AP traces need a non-negative int seed, got {seed!r}"
            )
        receivers = dict(enumerate(positions))
        models = self.ap_channel_models(max(1, num_aps))
        rngs = [validate_seed(seed)] + [
            np.random.default_rng([seed, ap]) for ap in range(1, len(models))
        ]
        # Nobody moves: each receiver's paths are traced once per AP, and
        # only shadowing and estimation noise are drawn again every tick,
        # one block per AP.
        ap_terms = [model.terms(positions) for model in models]
        trace = CsiTrace(beacon_interval_s=BEACON_INTERVAL_S)
        ticks = max(1, int(round(duration_s / BEACON_INTERVAL_S)))
        # The recording is two arrays, true and estimated, and every channel
        # a row of one: one allocation each, handed back whole when the
        # trace is dropped (a block per tick left the allocator holding a
        # 1,000-receiver trace's 14 MB after its session ended).
        shape = (ticks, len(models), len(positions), self.array.num_elements)
        true, est = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        multi = len(models) > 1
        for tick in range(ticks):
            now = tick * BEACON_INTERVAL_S
            for ap, (model, ap_rng, terms) in enumerate(zip(models, rngs, ap_terms)):
                true[tick, ap] = model.synthesise(terms, ap_rng)
                est[tick, ap] = self.estimator.estimate_block(true[tick, ap], ap_rng)
            ap_true = [dict(zip(receivers, block)) for block in true[tick]]
            ap_est = [dict(zip(receivers, block)) for block in est[tick]]
            trace.append(
                CsiSnapshot(
                    now,
                    ChannelState(
                        ap_true[0], dict(receivers), now,
                        ap_channels=ap_true if multi else None,
                    ),
                    ChannelState(
                        ap_est[0], dict(receivers), now,
                        ap_channels=ap_est if multi else None,
                    ),
                )
            )
        return trace

    def mobile_receiver_trace(
        self,
        num_users: int,
        moving_users: Sequence[int],
        duration_s: float,
        rss_regime: str = "high",
        seed: int = 0,
    ) -> CsiTrace:
        """Moving-receiver trace (Sec 4.3.4, first trace type).

        Moving users random-walk inside an annulus around the AP chosen so
        their RSS stays mostly above (``"high"``) or below (``"low"``) the
        MCS 8 sensitivity split; static users sit at mid-range.
        """
        if rss_regime not in ("high", "low"):
            raise EmulationError(f"rss_regime must be 'high' or 'low', got {rss_regime!r}")
        radius_range = (2.0, 6.0) if rss_regime == "high" else (9.0, 16.0)
        # People carrying receivers wander within a small area (the paper's
        # walkers stay inside one meeting room minute-scale); bounding the
        # excursion keeps the t=0 beam partially relevant for No Update.
        max_excursion_m = 1.5
        rng = validate_seed(seed)
        positions: Dict[int, Position] = {}
        walkers: Dict[int, RandomWalkModel] = {}
        for user in range(num_users):
            angle = rng.uniform(-np.pi / 3, np.pi / 3)
            radius = rng.uniform(*radius_range)
            start = self.room.clamp(
                self.ap_position.x + radius * np.cos(angle),
                self.ap_position.y + radius * np.sin(angle),
            )
            positions[user] = start
            if user in moving_users:
                walkers[user] = RandomWalkModel(
                    room=self.room,
                    start=start,
                    speed_mps=0.8,
                    seed=int(rng.integers(0, 2**31)),
                )
        trace = CsiTrace(beacon_interval_s=BEACON_INTERVAL_S)
        previous_state = None
        # A walking holder intermittently blocks their own receiver's LoS
        # (body shadowing) — the deep-fade events that make mobile mmWave
        # traces hard.  Reflection paths survive, so close-range (high-RSS)
        # users degrade to a mid MCS while far users lose the link.
        blocked_ticks = {user: 0 for user in walkers}
        trace_starts = {user: positions[user] for user in walkers}
        for tick in range(max(1, int(round(duration_s / BEACON_INTERVAL_S)))):
            now = tick * BEACON_INTERVAL_S
            extra_loss: Dict[int, float] = {}
            for user, walker in walkers.items():
                walker.step(BEACON_INTERVAL_S)
                moved = self._clamp_annulus(walker.position, radius_range)
                start = trace_starts[user]
                offset = moved.as_array() - start.as_array()
                excursion = float(np.linalg.norm(offset))
                if excursion > max_excursion_m:
                    scaled = start.as_array() + offset * (max_excursion_m / excursion)
                    moved = self.room.clamp(float(scaled[0]), float(scaled[1]))
                positions[user] = moved
                if blocked_ticks[user] > 0:
                    blocked_ticks[user] -= 1
                elif rng.random() < self.self_blockage_prob:
                    blocked_ticks[user] = int(rng.integers(3, 9))
                if blocked_ticks[user] > 0:
                    extra_loss[user] = HUMAN_BLOCKAGE_DB
            state = self.channel_model.snapshot(
                dict(positions), rng, time_s=now, los_extra_loss_db=extra_loss
            )
            # Beam training lags the channel by one beacon: what the AP
            # believes at time t is an estimate of the channel at t - 100 ms.
            # Under motion this staleness is the dominant impairment.
            basis = previous_state if previous_state is not None else state
            trace.append(
                CsiSnapshot(now, state, self.estimator.estimate_state(basis, rng))
            )
            previous_state = state
        return trace

    def moving_environment_trace(
        self,
        num_users: int,
        distance_m: float,
        mas_deg: float,
        duration_s: float,
        num_blockers: int = 2,
        seed: int = 0,
    ) -> CsiTrace:
        """Moving-environment trace (static users, walking blockers)."""
        rng = validate_seed(seed)
        positions = {
            i: p
            for i, p in enumerate(
                self.place_arc(num_users, distance_m, mas_deg, seed=seed)
            )
        }
        environment = EnvironmentMotionModel(
            room=self.room,
            ap_position=self.ap_position,
            num_blockers=num_blockers,
            seed=int(rng.integers(0, 2**31)),
        )
        trace = CsiTrace(beacon_interval_s=BEACON_INTERVAL_S)
        previous_state = None
        for tick in range(max(1, int(round(duration_s / BEACON_INTERVAL_S)))):
            now = tick * BEACON_INTERVAL_S
            environment.step(BEACON_INTERVAL_S)
            extra = environment.los_extra_loss_db(positions)
            state = self.channel_model.snapshot(
                dict(positions), rng, time_s=now, los_extra_loss_db=extra
            )
            basis = previous_state if previous_state is not None else state
            trace.append(
                CsiSnapshot(now, state, self.estimator.estimate_state(basis, rng))
            )
            previous_state = state
        return trace

    # ----------------------------------------------------------------- utils

    def _clamp_annulus(
        self, position: Position, radius_range: tuple
    ) -> Position:
        """Pull a walker back inside its RSS-regime annulus around the AP."""
        delta = position.as_array() - self.ap_position.as_array()
        radius = float(np.linalg.norm(delta))
        if radius < 1e-6:
            return self.room.clamp(self.ap_position.x + radius_range[0], self.ap_position.y)
        clamped = float(np.clip(radius, *radius_range))
        if clamped == radius:
            return position
        scaled = self.ap_position.as_array() + delta * (clamped / radius)
        return self.room.clamp(float(scaled[0]), float(scaled[1]))
