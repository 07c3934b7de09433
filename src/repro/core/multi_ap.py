"""Multi-AP session stages: association, per-AP planning, cross-AP repair.

With ``SystemConfig.topology.num_aps > 1`` the session swaps three stages
of the default pipeline for the AP-aware ones defined here (the
frame encoder, feedback and scoring stages are reused unchanged):

``MultiApPlanner`` — at each beacon boundary, re-associates every user to
its strongest AP (hysteresis-damped, optionally under seeded measurement
noise), then runs the existing single-AP planner once per AP over that
AP's estimated channels and associated users.  Each user is served by
exactly one *primary* AP; the best non-serving AP is recorded as the
user's repair *secondary*, with a singleton beam plan from one
:meth:`GroupBeamPlanner.plan_groups` call per secondary AP.

``MultiApCodingGroupMapper`` — maps each AP's allocation onto coding
units independently (Problem 4 per AP).

``MultiApTransmitter`` — runs one transmitter pass per AP into one shared
receiver state (APs transmit concurrently on separated beams, so frame
airtime is the *max* over APs, not the sum), then spends each secondary
AP's leftover deadline on **cross-AP coded repair**: fresh fountain
symbols for its backup users' still-undecoded scheduled units, drawn from
the same per-unit symbol streams and recorded into the same state, so
symbols from both APs combine at the receiver exactly as
arXiv:1711.06154's network-coded multi-link streaming predicts.  Per-AP
blockage (``FaultEvent.ap``) attenuates only the tagged AP's links, which
is what turns a blocked LoS into a handover plus repair — failover as an
emergent scenario.

Sessions without a topology never construct any of this; the single-AP
pipeline is untouched and bit-identical to previous versions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..beamforming import BeamPlan
from ..errors import ConfigurationError
from ..fountain.block import CodingUnitId, FrameBlockEncoder as BlockEncoder
from ..obs import OBS
from ..scheduling import AllocationResult, assign_coding_groups
from ..scheduling.groups import CandidateGroup
from ..transport.association import ApAssociationPolicy
from ..transport.cohort import FrameCohort
from ..transport.transmitter import (
    GROUP_SWITCH_OVERHEAD_S,
    HEADER_BYTES,
    TransmissionResult,
)
from .pipeline import (
    FrameContext,
    FrameEncoder,
    FeedbackUpdater,
    PipelineStage,
    Scorer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..phy.channel import ChannelState
    from ..scheduling.coding_groups import UnitAssignment
    from .pipeline import StreamSession

__all__ = [
    "MultiApPlanner",
    "MultiApCodingGroupMapper",
    "MultiApTransmitter",
    "multi_ap_stages",
]


class MultiApPlanner:
    """Associate users to APs, then plan each AP with the existing planner.

    Owns the session-lifetime :class:`ApAssociationPolicy` (handover
    hysteresis needs memory across beacons).  Beacon loss degrades the
    same way as the single-AP planner's bounded-retry path: allocations
    and association carry over frame by frame until the retry budget is
    spent, after which the stale plan is simply kept until the next
    beacon gets through (multi-AP sessions always replan from fresh CSI;
    the per-strategy fallbacks of the single-AP pipeline do not apply).
    """

    name = "plan"

    def __init__(self) -> None:
        self.policy: Optional[ApAssociationPolicy] = None
        self._ap_allocations: List[Optional[AllocationResult]] = []
        self._ap_users: List[List[int]] = []
        self._repair_plans: Dict[int, Tuple[int, BeamPlan]] = {}

    def _ensure_policy(self, session: "StreamSession") -> ApAssociationPolicy:
        if self.policy is None:
            topology = session.config.topology
            assert topology is not None
            self.policy = ApAssociationPolicy(
                n_aps=topology.num_aps,
                budget=session.streamer.channel_model.budget,
                hysteresis_db=topology.hysteresis_db,
                noise_db=topology.handover_noise_db,
                seed=topology.handover_seed,
            )
        return self.policy

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        state = session.state
        config = session.config
        beacon_due = (
            ctx.now - state.last_plan_time >= config.beacon_interval_s - 1e-9
        )
        membership_changed = (
            state.allocation is not None
            and state.planned_users is not None
            and tuple(ctx.users) != state.planned_users
        )
        must_plan = state.allocation is None or membership_changed
        if not must_plan and beacon_due:
            if session.faults is not None and session.faults.beacon_lost():
                state.beacon_retries += 1
                OBS.count("fault.beacon.lost")
                if state.beacon_retries > config.faults.max_beacon_retries:
                    OBS.count("fault.beacon.timeouts")
                    # Give up on this beacon: keep the stale plan and
                    # association, rearm for the next boundary.
                    state.last_plan_time = ctx.now
                    state.beacon_retries = 0
            else:
                must_plan = True
        if must_plan:
            self._replan(ctx, session)
            if membership_changed:
                OBS.count("fault.churn.replans")
        ctx.allocation = state.allocation
        ctx.ap_allocations = list(self._ap_allocations)
        ctx.ap_users = [list(users) for users in self._ap_users]
        ctx.association = dict(self.policy.serving) if self.policy else None
        ctx.repair_plans = dict(self._repair_plans)

    def _replan(self, ctx: FrameContext, session: "StreamSession") -> None:
        state = session.state
        config = session.config
        topology = config.topology
        assert topology is not None
        policy = self._ensure_policy(session)
        snapshot = session.trace.at_time(ctx.now)
        estimated = snapshot.estimated_state
        state.last_estimated_state = estimated
        policy.update(estimated, ctx.users, faults=session.faults)

        n_aps = topology.num_aps
        present = set(ctx.users)
        self._ap_allocations = []
        self._ap_users = []
        for ap in range(n_aps):
            users_ap = [u for u in policy.users_of(ap) if u in present]
            self._ap_users.append(users_ap)
            if users_ap:
                contexts = {u: ctx.feature_contexts[u] for u in users_ap}
                allocation = session.streamer._plan(
                    estimated.for_ap(ap), users_ap, contexts
                )
            else:
                allocation = None
            self._ap_allocations.append(allocation)
            if OBS.mode:
                OBS.set_gauge(f"core.multi_ap.ap.{ap}.users", len(users_ap))

        self._repair_plans = {}
        if topology.cross_ap_repair and config.source_coding:
            # Singleton repair beams per (secondary AP, backup user), one
            # plan_groups call per AP.
            by_secondary: Dict[int, List[int]] = {}
            for user in sorted(present):
                secondary = policy.secondary(user)
                if secondary is not None:
                    by_secondary.setdefault(secondary, []).append(user)
            for ap in sorted(by_secondary):
                users_ap = by_secondary[ap]
                plans = session.streamer.planner.plan_groups(
                    estimated.for_ap(ap), [[u] for u in users_ap]
                )
                for user, plan in zip(users_ap, plans):
                    if plan.mcs is not None:
                        self._repair_plans[user] = (ap, plan)

        # The primary allocation (first AP actually serving someone) keeps
        # the single-AP bookkeeping fields meaningful.
        state.allocation = next(
            (a for a in self._ap_allocations if a is not None), None
        )
        if state.allocation is None:
            raise ConfigurationError(
                "association produced no servable AP for any user"
            )
        state.last_plan_time = ctx.now
        state.planned_users = tuple(ctx.users)
        state.beacon_retries = 0


class MultiApCodingGroupMapper:
    """Map every AP's time allocation onto coding units independently."""

    name = "map"

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        assert ctx.ap_allocations is not None
        nbytes = session.streamer.codec.structure.sublayer_nbytes
        ap_assignments: List[Optional[Sequence["UnitAssignment"]]] = [
            assign_coding_groups(a.bytes_allocated, a.groups, nbytes)
            if a is not None
            else None
            for a in ctx.ap_allocations
        ]
        ctx.ap_assignments = ap_assignments
        ctx.assignments = next(
            (x for x in ap_assignments if x is not None), None
        )


class MultiApTransmitter:
    """One transmitter pass per AP, then cross-AP coded repair.

    APs run on separated boresights/beams, so their passes are concurrent:
    the frame's airtime is the maximum per-AP clock.  Each pass reuses the
    single-AP :class:`FrameTransmitter` verbatim over that AP's channel
    view and AP-scoped fault view.  Users are partitioned by primary AP,
    so the passes and the repair all record into one receiver state for
    the frame, closed once after repair.
    """

    name = "transmit"

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        streamer = session.streamer
        config = session.config
        assert ctx.encoder is not None
        assert ctx.ap_allocations is not None and ctx.ap_assignments is not None
        assert ctx.ap_users is not None
        true_state = session.trace.at_time(ctx.now).true_state
        n_aps = config.num_aps
        if true_state.n_aps < n_aps:
            raise ConfigurationError(
                f"config asks for {n_aps} APs but the trace carries channels "
                f"for {true_state.n_aps}; record it with num_aps={n_aps}"
            )
        ctx.true_state = true_state
        budget_s = config.frame_budget_s

        transmitter = streamer.transmitter
        receivers = transmitter.open_frame(ctx.encoder, ctx.users)
        ap_airtime = [0.0] * n_aps
        packets_sent = 0
        packets_dropped = 0
        rounds = 0
        rate_limits: Dict[int, float] = {}
        for ap in range(n_aps):
            allocation = ctx.ap_allocations[ap]
            assignments = ctx.ap_assignments[ap]
            users_ap = ctx.ap_users[ap]
            if allocation is None or assignments is None or not users_ap:
                continue
            limits = streamer._rate_limits(allocation, session.cohort_bw)
            rate_limits.update(limits)
            faults_ap = (
                session.faults.for_ap(ap) if session.faults is not None else None
            )
            result = transmitter.transmit(
                ctx.encoder,
                assignments,
                allocation.groups,
                true_state.for_ap(ap),
                budget_s,
                streamer.rng,
                rate_limits_bytes_per_s=limits,
                active_users=users_ap,
                faults=faults_ap,
                receivers=receivers,
            )
            ap_airtime[ap] = result.airtime_s
            packets_sent += result.packets_sent
            packets_dropped += result.packets_dropped_at_queue
            rounds = max(rounds, result.feedback_rounds_used)
        ctx.rate_limits = rate_limits

        packets_sent += self._cross_ap_repair(
            ctx, session, receivers, true_state, ap_airtime, budget_s
        )
        transmitter.close_frame(receivers)

        airtime = max(ap_airtime) if ap_airtime else 0.0
        ctx.result = TransmissionResult.of(
            receivers, min(airtime, budget_s), packets_sent, packets_dropped,
            rounds,
        )
        ctx.deadline_met = airtime <= budget_s + 1e-9

    def _cross_ap_repair(
        self,
        ctx: FrameContext,
        session: "StreamSession",
        receivers: FrameCohort,
        true_state: "ChannelState",
        ap_airtime: List[float],
        budget_s: float,
    ) -> int:
        """Secondary APs top up their backup users' undecoded units.

        For every user with a viable repair plan, its secondary AP walks
        the units the user's *primary* AP scheduled this frame, computes
        the fountain deficit ``K - received``, and paces that many fresh
        symbols at the user until the AP's leftover deadline runs out
        (one scalar loss draw per packet sent, in send order).  Returns
        the number of repair packets put on the air; per-AP clocks in
        ``ap_airtime`` are advanced in place.
        """
        assert ctx.encoder is not None and ctx.repair_plans is not None
        if not ctx.repair_plans:
            return 0
        streamer = session.streamer
        config = session.config
        encoder = ctx.encoder
        k = encoder.symbols_per_unit()
        packet_bytes = encoder.symbol_size + HEADER_BYTES
        serving = ctx.association or {}
        sent = 0
        for user in sorted(ctx.repair_plans):
            ap, plan = ctx.repair_plans[user]
            row = receivers.member_rows([user])
            if row.size == 0 or plan.mcs is None:
                continue
            units = self._scheduled_units(ctx, serving.get(user), encoder)
            if not units:
                continue
            remaining = budget_s - ap_airtime[ap]
            if remaining <= GROUP_SWITCH_OVERHEAD_S:
                continue
            faults_ap = (
                session.faults.for_ap(ap) if session.faults is not None else None
            )
            link = streamer.transmitter.link
            if faults_ap is not None:
                link = faults_ap.wrap_link(link)
            prob = link.delivery_probability(
                user, plan.beam, true_state.for_ap(ap), plan.mcs
            )
            if faults_ap is not None:
                scale = faults_ap.erasure_scale()
                if scale < 1.0:
                    prob *= scale
            rate = CandidateGroup(
                index=0, plan=plan, rate_scale=config.rate_scale
            ).rate_bytes_per_s
            symbol_airtime = packet_bytes / max(rate, 1e-6)
            clock = GROUP_SWITCH_OVERHEAD_S
            for unit in units:
                deficit = k - receivers.min_distinct(unit, row)
                if deficit <= 0:
                    continue
                symbols = encoder.next_symbols(unit, deficit)
                n_send = 0
                while n_send < deficit and clock + symbol_airtime <= remaining:
                    clock += symbol_airtime
                    n_send += 1
                delivered = streamer.rng.random(n_send) < prob
                receivers.record(
                    unit, symbols[:n_send], row, delivered[:, None]
                )
                sent += n_send
                if OBS.mode:
                    OBS.count(
                        "core.multi_ap.repair.delivered", int(delivered.sum())
                    )
                if clock + symbol_airtime > remaining:
                    break
            if clock > GROUP_SWITCH_OVERHEAD_S:
                ap_airtime[ap] += clock
                if OBS.mode:
                    OBS.count("core.multi_ap.repair.users")
        if sent and OBS.mode:
            OBS.count("core.multi_ap.repair.packets", sent)
        return sent

    @staticmethod
    def _scheduled_units(
        ctx: FrameContext, primary_ap: Optional[int], encoder: BlockEncoder
    ) -> List[CodingUnitId]:
        """Units the user's primary AP scheduled this frame, in plan order.

        Repair only tops up what was actually allocated airtime — an
        unscheduled enhancement sublayer was a planning decision, not a
        loss, and repairing it would hand secondary APs a bandwidth
        subsidy the 1-AP arm never had.
        """
        if primary_ap is None or ctx.ap_assignments is None:
            return []
        assignments = ctx.ap_assignments[primary_ap]
        if assignments is None:
            return []
        units: List[CodingUnitId] = []
        seen: Set[CodingUnitId] = set()
        for assignment in assignments:
            unit = CodingUnitId(
                encoder.frame_index, assignment.layer, assignment.sublayer
            )
            if unit not in seen:
                seen.add(unit)
                units.append(unit)
        return units


def multi_ap_stages() -> List[PipelineStage]:
    """The multi-AP per-frame loop (encoder/feedback/scorer reused)."""
    return [
        MultiApPlanner(),
        FrameEncoder(),
        MultiApCodingGroupMapper(),
        MultiApTransmitter(),
        FeedbackUpdater(),
        Scorer(),
    ]
