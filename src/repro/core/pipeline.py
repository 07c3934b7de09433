"""The staged per-frame session pipeline (system workflow of Fig 3).

The end-to-end per-frame control loop is an ordered list of small stages,
each implementing the :class:`PipelineStage` protocol and reading/writing
one shared :class:`FrameContext`:

``Planner`` -> ``FrameEncoder`` -> ``CodingGroupMapper`` -> ``Transmitter``
-> ``FeedbackUpdater`` -> ``Scorer``

Every session runs this one list, at any AP count.  The plan, map and
transmit stages loop over the topology's APs; a session without a topology
is a one-AP session in which AP 0 serves every user.  Cross-AP repair, the
one algorithm specific to several APs, lives in :mod:`repro.core.repair`
and is called by the planner and the transmit stage.

:class:`StreamSession` owns the loop-carried state (bandwidth estimators,
the per-AP allocations, the last plan time), walks the stages for every
frame, and emits the observability spans at stage boundaries.  Adaptation
policy — what happens at beacon boundaries — is delegated to a
:mod:`repro.core.policy` strategy, so new policies plug in without touching
the loop.  Custom stage lists and strategies can be injected per session,
which is how ablations, new baselines and future transports get their seams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..faults import FaultController
from ..faults.config import MAX_BEACON_RETRIES, STALE_DECAY
from ..fountain.block import FrameBlockEncoder
from ..obs import OBS
from ..quality.curves import FrameFeatureContext
from ..scheduling import AllocationResult, assign_coding_groups
from ..transport import (
    CohortBandwidthEstimator,
    CohortBandwidthView,
    TransmissionResult,
)
from ..transport.association import ApAssociationPolicy
from ..types import OutcomeStats
from ..video.jigsaw import SUBLAYER_COUNTS
from .repair import cross_ap_repair, plan_repair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..beamforming import BeamPlan
    from ..phy.channel import ChannelState
    from ..phy.csi import CsiTrace
    from ..scheduling.coding_groups import UnitAssignment
    from ..video.dataset import FrameQualityProbe
    from .config import SystemConfig
    from .policy import AdaptationStrategy
    from .streamer import MulticastStreamer


class StreamOutcome(OutcomeStats):
    """Everything a streaming session produced.

    Attributes:
        stats: One :class:`FrameStats` per (frame, user).
        mean_ssim: Mean SSIM over all frames and users.
        mean_psnr_db: Mean PSNR over all frames and users.
    """


@dataclass
class SessionState:
    """Loop-carried planning state of one streaming session.

    Attributes:
        bw_estimators: Per-user views over the session's cohort bandwidth
            estimator.
        ap_users: Users each AP serves, indexed by AP id.
        ap_allocations: The allocation each AP is streaming (``None`` for
            an AP that serves no one).
        repair_plans: Per AP, the singleton repair beam of each user it
            backs up as secondary AP (all empty at one AP).
        last_plan_time: When the allocations were last (re)planned.
        planned_users: Membership the current allocations were planned
            for; a churn-induced mismatch forces a replan.
        beacon_retries: Consecutive frames the planner has retried a lost
            beacon update (bounded by ``MAX_BEACON_RETRIES``).
        last_estimated_state: Freshest successfully received CSI estimate,
            for strategies degrading gracefully under beacon loss.
        feedback_staleness: Frames since the last feedback report arrived,
            per user currently inside a feedback outage.
    """

    bw_estimators: Dict[int, CohortBandwidthView]
    ap_users: List[List[int]] = field(default_factory=list)
    ap_allocations: List[Optional[AllocationResult]] = field(
        default_factory=list
    )
    repair_plans: List[Dict[int, "BeamPlan"]] = field(default_factory=list)
    last_plan_time: float = -np.inf
    planned_users: Optional[Tuple[int, ...]] = None
    beacon_retries: int = 0
    last_estimated_state: Optional["ChannelState"] = None
    feedback_staleness: Dict[int, int] = field(default_factory=dict)


@dataclass
class FrameContext:
    """Everything one frame accumulates on its way through the stages.

    Stages communicate exclusively through this object: each stage fills in
    the fields downstream stages consume, so a stage can be swapped out
    without the others noticing.  The ``ap_*`` and ``repair_plans`` lists
    hold one entry per AP of the topology (one entry without a topology).
    """

    frame_index: int
    now: float
    users: List[int]
    probe: "FrameQualityProbe"
    feature_contexts: Dict[int, FrameFeatureContext]
    ap_users: List[List[int]] = field(default_factory=list)
    ap_allocations: List[Optional[AllocationResult]] = field(
        default_factory=list
    )
    ap_assignments: List[Sequence["UnitAssignment"]] = field(
        default_factory=list
    )
    repair_plans: List[Dict[int, "BeamPlan"]] = field(default_factory=list)
    encoder: Optional[FrameBlockEncoder] = None
    true_state: Optional["ChannelState"] = None
    result: Optional["TransmissionResult"] = None
    deadline_met: bool = True
    span: Optional[object] = None


class PipelineStage(Protocol):
    """One step of the per-frame loop."""

    name: str

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        """Advance ``ctx``; loop-carried effects go through ``session``."""
        ...


class Planner:
    """Plan every AP at t=0, then defer beacon-boundary decisions to the
    strategy.

    A session without a topology is a one-AP session: AP 0 serves every
    user, with no association work and no repair.  With more APs the
    planner owns the session-lifetime :class:`ApAssociationPolicy`
    (handover hysteresis needs memory across beacons); a replan
    re-associates every user to its strongest AP, plans each AP over its
    own estimated channels and users, and plans the cross-AP repair beams.

    Under fault injection two extra paths open up: receiver churn forces an
    immediate replan for the new membership, and lost beacons are retried
    frame by frame (the allocations carry over) until either a beacon gets
    through or the bounded retry budget is exhausted — at which point the
    strategy's ``on_beacon_lost`` fallback runs on the stale estimate.
    """

    name = "plan"

    def __init__(self) -> None:
        self.association: Optional[ApAssociationPolicy] = None

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        state = session.state
        planned = state.planned_users
        if planned is None or tuple(ctx.users) != planned:
            self._replan(ctx, session, self._estimate(ctx, session))
            if planned is not None:
                OBS.count("fault.churn.replans")
        elif (
            ctx.now - state.last_plan_time
            >= session.config.beacon_interval_s - 1e-9
        ):
            if session.faults is not None and session.faults.beacon_lost():
                self._beacon_lost(ctx, session)
            else:
                self._on_beacon(ctx, session, self._estimate(ctx, session))
        ctx.ap_users = state.ap_users
        ctx.ap_allocations = state.ap_allocations
        ctx.repair_plans = state.repair_plans

    @staticmethod
    def _estimate(ctx: FrameContext, session: "StreamSession") -> "ChannelState":
        """This beacon's CSI estimate, kept for beacon-loss fallbacks."""
        estimated = session.trace.at_time(ctx.now).estimated_state
        session.state.last_estimated_state = estimated
        return estimated

    def _replan(
        self,
        ctx: FrameContext,
        session: "StreamSession",
        estimated: "ChannelState",
    ) -> None:
        """Associate (more than one AP), then plan every AP afresh."""
        state = session.state
        state.ap_users = self._associate(ctx, session, estimated)
        state.ap_allocations = [
            session.streamer._plan(
                estimated.for_ap(ap),
                users,
                {u: ctx.feature_contexts[u] for u in users},
            )
            if users
            else None
            for ap, users in enumerate(state.ap_users)
        ]
        state.repair_plans = (
            [{}]
            if self.association is None
            else plan_repair(session, self.association, estimated)
        )
        state.last_plan_time = ctx.now
        state.planned_users = tuple(ctx.users)
        state.beacon_retries = 0

    def _associate(
        self,
        ctx: FrameContext,
        session: "StreamSession",
        estimated: "ChannelState",
    ) -> List[List[int]]:
        """Each AP's users: everyone on AP 0 at one AP, else every user
        re-associated to its strongest AP."""
        topology = session.config.topology
        if topology is None or topology.num_aps == 1:
            return [list(ctx.users)]
        if self.association is None:
            self.association = ApAssociationPolicy(
                n_aps=topology.num_aps,
                budget=session.streamer.channel_model.budget,
            )
        self.association.update(estimated, ctx.users, faults=session.faults)
        ap_users = [
            self.association.users_of(ap) for ap in range(topology.num_aps)
        ]
        if OBS.mode:
            for ap, users in enumerate(ap_users):
                OBS.set_gauge(f"transport.association.ap.{ap}.users", len(users))
        return ap_users

    def _on_beacon(
        self,
        ctx: FrameContext,
        session: "StreamSession",
        estimated: "ChannelState",
    ) -> None:
        """Let the strategy adapt each AP's allocation against that AP's
        channels; a ``None`` answer asks for a fresh plan instead."""
        state = session.state
        adapted: List[Optional[AllocationResult]] = []
        for ap, allocation in enumerate(state.ap_allocations):
            if allocation is not None:
                allocation = session.strategy.on_beacon(
                    session, allocation, estimated.for_ap(ap)
                )
                if allocation is None:
                    self._replan(ctx, session, estimated)
                    return
            adapted.append(allocation)
        state.ap_allocations = adapted
        state.last_plan_time = ctx.now
        state.beacon_retries = 0

    @staticmethod
    def _beacon_lost(ctx: FrameContext, session: "StreamSession") -> None:
        """Bounded retry, then the strategy's graceful-degradation path.

        While retrying, ``last_plan_time`` is left alone so the update
        stays due and is re-attempted next frame; on timeout each AP's
        allocation goes through the strategy's fallback and the session
        gives up until the next beacon boundary.  The association is kept.
        """
        state = session.state
        state.beacon_retries += 1
        OBS.count("fault.beacon.lost")
        if state.beacon_retries > MAX_BEACON_RETRIES:
            OBS.count("fault.beacon.timeouts")
            stale = state.last_estimated_state
            state.ap_allocations = [
                session.strategy.on_beacon_lost(
                    session,
                    allocation,
                    None if stale is None else stale.for_ap(ap),
                )
                if allocation is not None
                else None
                for ap, allocation in enumerate(state.ap_allocations)
            ]
            state.last_plan_time = ctx.now
            state.beacon_retries = 0


class FrameEncoder:
    """Fountain-encode the frame's layered sublayers."""

    name = "encode"

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        ctx.encoder = FrameBlockEncoder(
            ctx.frame_index,
            ctx.probe.layered,
            session.streamer.symbol_size,
            codec=session.streamer.fountain_codec,
        )


class CodingGroupMapper:
    """Map each AP's time allocation onto coding units (Problem 4 per AP)."""

    name = "map"

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        nbytes = session.streamer.codec.structure.sublayer_nbytes
        ctx.ap_assignments = [
            assign_coding_groups(a.bytes_allocated, a.groups, nbytes)
            if a is not None
            else []
            for a in ctx.ap_allocations
        ]


class Transmitter:
    """Paced transmission with feedback rounds over the true channels.

    One transmitter pass per AP, each over that AP's channel view and
    AP-scoped fault view, all recording into one receiver state opened for
    the frame's users; then cross-AP repair
    (:func:`repro.core.repair.cross_ap_repair`, a no-op at one AP), and
    the frame is closed once.  APs transmit concurrently on separated
    beams, so the frame's airtime is the maximum per-AP clock.  Every pass
    stops at the frame budget, so ``deadline_met`` is True by construction.
    """

    name = "transmit"

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        streamer = session.streamer
        assert ctx.encoder is not None
        budget_s = session.config.frame_budget_s
        true_state = session.trace.at_time(ctx.now).true_state
        ctx.true_state = true_state
        transmitter = streamer.transmitter
        receivers = transmitter.open_frame(ctx.encoder, ctx.users)
        ap_airtime = [0.0] * len(ctx.ap_allocations)
        packets_sent = packets_dropped = rounds = 0
        for ap, allocation in enumerate(ctx.ap_allocations):
            if allocation is None:
                continue
            assignments = ctx.ap_assignments[ap]
            limits = streamer._rate_limits(
                allocation,
                session.cohort_bw,
                dict.fromkeys(a.group_index for a in assignments),
            )
            result = transmitter.transmit(
                ctx.encoder,
                assignments,
                allocation.groups,
                true_state.for_ap(ap),
                budget_s,
                streamer.rng,
                rate_limits_bytes_per_s=limits,
                active_users=ctx.ap_users[ap],
                faults=session.faults,
                ap=ap,
                receivers=receivers,
            )
            ap_airtime[ap] = result.airtime_s
            packets_sent += result.packets_sent
            packets_dropped += result.packets_dropped_at_queue
            rounds = max(rounds, result.feedback_rounds_used)
        packets_sent += cross_ap_repair(
            ctx, session, receivers, true_state, ap_airtime, budget_s
        )
        transmitter.close_frame(receivers)
        airtime = max(ap_airtime)
        ctx.result = TransmissionResult(
            receivers, min(airtime, budget_s), packets_sent, packets_dropped,
            rounds,
        )
        ctx.deadline_met = airtime <= budget_s + 1e-9


class FeedbackUpdater:
    """Fold each receiver's delivery fraction into its bandwidth estimate.

    Graceful degradation under injected feedback loss: a user whose report
    never arrives keeps its last-known-good estimate, exponentially decayed
    (``STALE_DECAY`` per silent frame), so a long outage steers the pacing
    rate conservatively instead of pinning it at the last healthy
    measurement.
    """

    name = "feedback"

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        assert ctx.result is not None
        reporting = self._reporting_users(ctx, session)
        if not reporting:
            return
        cohort = ctx.result.cohort
        estimator = session.cohort_bw
        # One batched noise draw, in the stream order of per-user draws.
        rows = cohort.member_rows(reporting)
        received = cohort.packets_received[rows]
        total = received + cohort.packets_lost[rows]
        fractions = np.where(total > 0, received / np.maximum(total, 1), 1.0)
        estimator.observe_fraction_rows(
            estimator.rows(reporting),
            np.clip(fractions, 0.0, 1.0),
            session.streamer.rng,
        )

    @staticmethod
    def _reporting_users(
        ctx: FrameContext, session: "StreamSession"
    ) -> List[int]:
        """Users whose report arrived; the silent ones decay and are counted."""
        faults = session.faults
        if faults is None:
            return list(ctx.users)
        staleness = session.state.feedback_staleness
        reporting = []
        for user in ctx.users:
            if faults.feedback_lost(user):
                staleness[user] = staleness.get(user, 0) + 1
                session.state.bw_estimators[user].decay(STALE_DECAY)
                OBS.count("fault.feedback_loss.reports_lost")
                OBS.set_gauge(
                    f"fault.feedback_loss.user.{user}.staleness",
                    staleness[user],
                )
            else:
                reporting.append(user)
                if staleness.pop(user, None):
                    OBS.count("fault.feedback_loss.recoveries")
        return reporting


def distinct_rows(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(matrix, axis=0, return_inverse=True)`` for a boolean matrix.

    Rows are packed big-endian into bytes and compared as opaque byte
    strings, which orders them exactly as the row-wise lexicographic sort
    does, without sorting structured rows column by column.
    """
    packed = np.packbits(matrix, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return matrix[first], inverse


class Scorer:
    """Decode at every receiver and score SSIM/PSNR against the reference."""

    name = "score"

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        """Score from cohort arrays: quality is measured once per distinct
        decode pattern and broadcast to every receiver sharing it, and the
        frame's stats land as one columnar block."""
        assert ctx.result is not None
        cohort = ctx.result.cohort
        rows = cohort.member_rows(ctx.users)
        matrices = cohort.decoded_matrices()
        signatures = np.concatenate(
            [matrix[rows] for matrix in matrices], axis=1
        )
        unique, inverse = distinct_rows(signatures)
        bounds = np.cumsum([0] + list(SUBLAYER_COUNTS))
        quality = np.empty(unique.shape[0])
        quality_db = np.empty(unique.shape[0])
        for p, signature in enumerate(unique):
            masks = [
                signature[bounds[layer]:bounds[layer + 1]]
                for layer in range(len(SUBLAYER_COUNTS))
            ]
            quality[p], quality_db[p] = ctx.probe.measure_masks(masks)
        layer_bytes = cohort.bytes_per_layer_matrix()[rows]
        session.outcome.append_block(
            ctx.frame_index,
            list(ctx.users),
            quality[inverse],
            quality_db[inverse],
            layer_bytes,
            ctx.deadline_met,
        )


class StreamSession:
    """Drives one streaming session's frames through the stage pipeline.

    Args:
        streamer: The component bundle (planner, codec, transmitter, rng)
            the stages draw from.
        trace: Recorded CSI trace to stream over.
        stages: Stage list override (default: ``Planner`` ->
            ``FrameEncoder`` -> ``CodingGroupMapper`` -> ``Transmitter`` ->
            ``FeedbackUpdater`` -> ``Scorer``, at every AP count).
        strategy: Adaptation strategy override (default: derived from the
            streamer's config via :func:`repro.core.policy.strategy_for`).
        faults: Fault controller override.  When ``None`` and the config's
            ``faults`` block has any nonzero rate, a controller is generated
            from that block at :meth:`run` time (session duration is only
            known then); when ``None`` with faults disabled, every fault
            hook stays dormant and the session is bit-identical to the
            pre-fault pipeline.
    """

    def __init__(
        self,
        streamer: "MulticastStreamer",
        trace: "CsiTrace",
        stages: Optional[Sequence[PipelineStage]] = None,
        strategy: Optional["AdaptationStrategy"] = None,
        faults: Optional[FaultController] = None,
    ) -> None:
        from .policy import strategy_for

        self.streamer = streamer
        self.config: "SystemConfig" = streamer.config
        self.trace = trace
        self.users: List[int] = trace.user_ids()
        # One array-backed estimator for the whole cohort; per-user access
        # (joins/resets, strategies) goes through scalar views over its rows.
        self.cohort_bw = CohortBandwidthEstimator(self.users)
        self.state = SessionState(
            bw_estimators={u: self.cohort_bw.view(u) for u in self.users}
        )
        self.strategy = (
            strategy if strategy is not None else strategy_for(streamer.config)
        )
        if trace.n_aps < self.config.num_aps:
            raise ConfigurationError(
                f"config asks for {self.config.num_aps} APs but the "
                f"trace carries channels for {trace.n_aps}; record it "
                f"with num_aps={self.config.num_aps}"
            )
        self.stages: List[PipelineStage] = (
            list(stages)
            if stages is not None
            else [
                Planner(),
                FrameEncoder(),
                CodingGroupMapper(),
                Transmitter(),
                FeedbackUpdater(),
                Scorer(),
            ]
        )
        self.faults = faults
        self._previous_active: Optional[Tuple[int, ...]] = None
        #: Full membership the trace was recorded for; external joins may
        #: only re-admit users the trace knows channels for.
        self.all_users: Tuple[int, ...] = tuple(self.users)
        self.outcome = StreamOutcome()

    def run(self, num_frames: int) -> StreamOutcome:
        """Stream ``num_frames`` frames and return the session outcome."""
        total_frames = self.begin(num_frames)
        for frame_index in range(total_frames):
            self.stream_frame(frame_index)
        return self.outcome

    def begin(self, num_frames: int) -> int:
        """Validate the frame budget and arm fault injection.

        External drivers (the service layer's broadcaster) call this once,
        then step frames individually via :meth:`stream_frame`;
        :meth:`run` is exactly ``begin`` + the loop.
        """
        total_frames = int(num_frames)
        if total_frames <= 0:
            raise ConfigurationError(
                f"need at least one frame, got {total_frames}"
            )
        self._ensure_faults(total_frames)
        return total_frames

    def stream_frame(self, frame_index: int) -> bool:
        """Drive one frame through the stages; False for an idle frame.

        A frame is idle when fault-injected churn (or external control-plane
        leaves) empties the membership: the frame clock still advances, but
        no stage runs and no stats land.
        """
        with OBS.span("frame.stream", frame=frame_index) as frame_span:
            if not self.users:
                OBS.count("session.membership.idle_frames")
                return False
            ctx = self.frame_context(frame_index)
            ctx.span = frame_span
            if self.faults is not None and not self._begin_frame_faults(
                ctx
            ):
                return False
            for stage in self.stages:
                with OBS.span(f"frame.stage.{stage.name}", frame=frame_index):
                    stage.run(ctx, self)
            self._finalize_frame(ctx, frame_span)
        return True

    # ---------------------------------------------- external membership

    def evict_user(self, user: int) -> bool:
        """Control-plane leave: drop ``user`` from the live membership.

        Mirrors the churn-fault leave path: the transmitter's cross-frame
        tallies for the receiver are evicted so a later rejoin starts from
        a clean slate.  Applied between frames (the caller must not invoke
        this mid-:meth:`stream_frame`).  Returns False when the user was
        not a member (idempotent; double-leaves are counted, not fatal).
        """
        if user not in self.users:
            OBS.count("session.membership.redundant_leaves")
            return False
        self.users.remove(user)
        self.streamer.transmitter.evict_user(user)
        OBS.count("session.membership.leaves")
        return True

    def rejoin_user(self, user: int) -> bool:
        """Control-plane (re)join: re-admit ``user`` to the membership.

        Mirrors the churn-fault rejoin path: the bandwidth estimator resets
        (a real re-association drops its measurement history) and any
        feedback-staleness record clears.  Membership keeps the trace's
        user ordering so results stay deterministic regardless of join
        order.  Unknown users (no channels in the trace) raise
        :class:`ConfigurationError`; re-joining a present member is a
        counted no-op.
        """
        if user not in self.all_users:
            raise ConfigurationError(
                f"user {user} is not part of this session's trace "
                f"(known users: {list(self.all_users)})"
            )
        if user in self.users:
            OBS.count("session.membership.redundant_joins")
            return False
        self.users.append(user)
        order = {u: i for i, u in enumerate(self.all_users)}
        self.users.sort(key=order.__getitem__)
        self.state.bw_estimators[user].reset()
        self.state.feedback_staleness.pop(user, None)
        OBS.count("session.membership.joins")
        return True

    def _ensure_faults(self, total_frames: int) -> None:
        """Instantiate the controller from the config's ``faults`` block."""
        if self.faults is None and self.config.faults.enabled:
            self.faults = FaultController.from_config(
                self.config.faults,
                total_frames / self.config.fps,
                self.users,
                n_aps=self.config.num_aps,
            )

    def _begin_frame_faults(self, ctx: FrameContext) -> bool:
        """Advance the fault clock and apply churn; False skips the frame.

        Membership edges (joins/leaves) are diffed against the previous
        frame: a leaving receiver's transmitter tallies are evicted (the
        churn-leak fix) and a rejoining receiver re-associates with a
        reset bandwidth estimator, exactly as a real re-association drops
        its measurement history.
        """
        assert self.faults is not None
        active = self.faults.begin_frame(ctx.frame_index, ctx.now, self.users)
        previous = (
            self._previous_active
            if self._previous_active is not None
            else tuple(self.users)
        )
        for user in sorted(set(previous) - set(active)):
            self.streamer.transmitter.evict_user(user)
            OBS.count("fault.churn.leaves")
        for user in sorted(set(active) - set(previous)):
            self.state.bw_estimators[user].reset()
            self.state.feedback_staleness.pop(user, None)
            OBS.count("fault.churn.joins")
        self._previous_active = tuple(active)
        if not active:
            OBS.count("fault.churn.idle_frames")
            return False
        ctx.users = list(active)
        ctx.feature_contexts = {
            u: c for u, c in ctx.feature_contexts.items() if u in active
        }
        return True

    def frame_context(self, frame_index: int) -> FrameContext:
        """The fresh per-frame context the stages will fill in.

        Consecutive frames within one beacon period come from the same
        reference (real video content is temporally coherent); the probe
        advances at beacon boundaries, in step with replanning.
        """
        config = self.config
        probes = self.streamer.probes
        probe = probes[
            (frame_index // config.frames_per_beacon) % len(probes)
        ]
        context = FrameFeatureContext.from_probe(probe)
        return FrameContext(
            frame_index=frame_index,
            now=frame_index / config.fps,
            users=self.users,
            probe=probe,
            feature_contexts={u: context for u in self.users},
        )

    def _finalize_frame(self, ctx: FrameContext, frame_span) -> None:
        if not OBS.mode:
            return
        OBS.count("frames.streamed")
        if not ctx.deadline_met:
            OBS.count("frames.deadline_missed")
        assert ctx.result is not None
        frame_span.set(
            users=len(ctx.users),
            groups=sum(
                len(a.groups) for a in ctx.ap_allocations if a is not None
            ),
            packets_sent=ctx.result.packets_sent,
            airtime_s=ctx.result.airtime_s,
            feedback_rounds=ctx.result.feedback_rounds_used,
            deadline_met=ctx.deadline_met,
        )
