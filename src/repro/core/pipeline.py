"""The staged per-frame session pipeline (system workflow of Fig 3).

The end-to-end per-frame control loop is an ordered list of small stages,
each implementing the :class:`PipelineStage` protocol and reading/writing
one shared :class:`FrameContext`:

``Planner`` -> ``FrameEncoder`` -> ``CodingGroupMapper`` -> ``Transmitter``
-> ``FeedbackUpdater`` -> ``Scorer``

:class:`StreamSession` owns the loop-carried state (bandwidth estimators,
the current allocation, the last plan time), walks the stages for every
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
from ..fountain.block import FrameBlockEncoder
from ..obs import OBS
from ..quality.curves import FrameFeatureContext
from ..scheduling import AllocationResult, assign_coding_groups
from ..transport import CohortBandwidthEstimator, CohortBandwidthView
from ..types import OutcomeStats
from ..video.jigsaw import SUBLAYER_COUNTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..beamforming import BeamPlan
    from ..phy.csi import CsiTrace
    from ..scheduling.coding_groups import UnitAssignment
    from ..transport.transmitter import TransmissionResult
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
        allocation: The allocation currently being streamed.
        last_plan_time: When the allocation was last (re)planned.
        planned_users: Membership the current allocation was planned for;
            a churn-induced mismatch forces a replan.
        beacon_retries: Consecutive frames the planner has retried a lost
            beacon update (bounded by ``faults.max_beacon_retries``).
        last_estimated_state: Freshest successfully received CSI estimate,
            for strategies degrading gracefully under beacon loss.
        feedback_staleness: Frames since the last feedback report arrived,
            per user currently inside a feedback outage.
    """

    bw_estimators: Dict[int, CohortBandwidthView]
    allocation: Optional[AllocationResult] = None
    last_plan_time: float = -np.inf
    planned_users: Optional[Tuple[int, ...]] = None
    beacon_retries: int = 0
    last_estimated_state: Optional[object] = None
    feedback_staleness: Dict[int, int] = field(default_factory=dict)


@dataclass
class FrameContext:
    """Everything one frame accumulates on its way through the stages.

    Stages communicate exclusively through this object: each stage fills in
    the fields downstream stages consume, so a stage can be swapped out
    without the others noticing.
    """

    frame_index: int
    now: float
    users: List[int]
    probe: "FrameQualityProbe"
    feature_contexts: Dict[int, FrameFeatureContext]
    allocation: Optional[AllocationResult] = None
    encoder: Optional[FrameBlockEncoder] = None
    assignments: Optional[Sequence["UnitAssignment"]] = None
    true_state: Optional[object] = None
    rate_limits: Dict[int, float] = field(default_factory=dict)
    result: Optional["TransmissionResult"] = None
    deadline_met: bool = True
    span: Optional[object] = None
    # Multi-AP extensions (populated only by repro.core.multi_ap stages;
    # single-AP sessions leave them None).  Indexed by AP id where listed.
    ap_allocations: Optional[List[Optional[AllocationResult]]] = None
    ap_assignments: Optional[List[Optional[Sequence["UnitAssignment"]]]] = None
    ap_users: Optional[List[List[int]]] = None
    association: Optional[Dict[int, int]] = None
    repair_plans: Optional[Dict[int, Tuple[int, "BeamPlan"]]] = None


class PipelineStage(Protocol):
    """One step of the per-frame loop."""

    name: str

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        """Advance ``ctx``; loop-carried effects go through ``session``."""
        ...


class Planner:
    """Plan at t=0, then defer beacon-boundary decisions to the strategy.

    Under fault injection two extra paths open up: receiver churn forces an
    immediate replan for the new membership, and lost beacons are retried
    frame by frame (the allocation carries over) until either a beacon gets
    through or the bounded retry budget is exhausted — at which point the
    strategy's ``on_beacon_lost`` fallback runs on the stale estimate.
    """

    name = "plan"

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
        if state.allocation is None or membership_changed:
            snapshot = session.trace.at_time(ctx.now)
            state.last_estimated_state = snapshot.estimated_state
            state.allocation = session.streamer._plan(
                snapshot.estimated_state, ctx.users, ctx.feature_contexts
            )
            state.last_plan_time = ctx.now
            state.planned_users = tuple(ctx.users)
            state.beacon_retries = 0
            if membership_changed:
                OBS.count("fault.churn.replans")
        elif beacon_due:
            if session.faults is not None and session.faults.beacon_lost():
                self._beacon_lost(ctx, session)
            else:
                snapshot = session.trace.at_time(ctx.now)
                state.last_estimated_state = snapshot.estimated_state
                state.allocation = session.strategy.on_beacon(
                    session, ctx, snapshot.estimated_state
                )
                state.last_plan_time = ctx.now
                state.beacon_retries = 0
        ctx.allocation = state.allocation

    @staticmethod
    def _beacon_lost(ctx: FrameContext, session: "StreamSession") -> None:
        """Bounded retry, then the strategy's graceful-degradation path.

        While retrying, ``last_plan_time`` is left alone so the update
        stays due and is re-attempted next frame; on timeout the session
        gives up until the next beacon boundary.
        """
        state = session.state
        state.beacon_retries += 1
        OBS.count("fault.beacon.lost")
        if state.beacon_retries > session.config.faults.max_beacon_retries:
            OBS.count("fault.beacon.timeouts")
            state.allocation = session.strategy.on_beacon_lost(
                session, ctx, state.last_estimated_state
            )
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
    """Map the time allocation onto coding units (Problem 4)."""

    name = "map"

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        allocation = ctx.allocation
        assert allocation is not None
        ctx.assignments = assign_coding_groups(
            allocation.bytes_allocated,
            allocation.groups,
            session.streamer.codec.structure.sublayer_nbytes,
        )


class Transmitter:
    """Paced transmission with feedback rounds over the true channels."""

    name = "transmit"

    def run(self, ctx: FrameContext, session: "StreamSession") -> None:
        streamer = session.streamer
        config = session.config
        allocation = ctx.allocation
        assert allocation is not None and ctx.encoder is not None
        assert ctx.assignments is not None
        ctx.true_state = session.trace.at_time(ctx.now).true_state
        ctx.rate_limits = streamer._rate_limits(allocation, session.cohort_bw)
        fault_kwargs = (
            {"active_users": ctx.users, "faults": session.faults}
            if session.faults is not None
            else {}
        )
        ctx.result = streamer.transmitter.transmit(
            ctx.encoder,
            ctx.assignments,
            allocation.groups,
            ctx.true_state,
            config.frame_budget_s,
            streamer.rng,
            rate_limits_bytes_per_s=ctx.rate_limits,
            **fault_kwargs,
        )
        ctx.deadline_met = (
            ctx.result.airtime_s <= config.frame_budget_s + 1e-9
        )


class FeedbackUpdater:
    """Fold each receiver's delivery fraction into its bandwidth estimate.

    Graceful degradation under injected feedback loss: a user whose report
    never arrives keeps its last-known-good estimate, exponentially decayed
    (``faults.stale_decay`` per silent frame), so a long outage steers the
    pacing rate conservatively instead of pinning it at the last healthy
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
                session.state.bw_estimators[user].decay(
                    session.config.faults.stale_decay
                )
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


def default_stages() -> List[PipelineStage]:
    """The paper's per-frame loop as an ordered stage list."""
    return [
        Planner(),
        FrameEncoder(),
        CodingGroupMapper(),
        Transmitter(),
        FeedbackUpdater(),
        Scorer(),
    ]


class StreamSession:
    """Drives one streaming session's frames through the stage pipeline.

    Args:
        streamer: The component bundle (planner, codec, transmitter, rng)
            the stages draw from.
        trace: Recorded CSI trace to stream over.
        stages: Stage list override (default: :func:`default_stages`).
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
        if stages is not None:
            self.stages: List[PipelineStage] = list(stages)
        elif self.config.multi_ap:
            if trace.n_aps < self.config.num_aps:
                raise ConfigurationError(
                    f"config asks for {self.config.num_aps} APs but the "
                    f"trace carries channels for {trace.n_aps}; record it "
                    f"with num_aps={self.config.num_aps}"
                )
            from .multi_ap import multi_ap_stages

            self.stages = multi_ap_stages()
        else:
            self.stages = default_stages()
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
            self._run_stages(ctx)
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

    def _run_stages(self, ctx: FrameContext) -> None:
        if OBS.mode:
            for stage in self.stages:
                with OBS.span(
                    f"frame.stage.{stage.name}", frame=ctx.frame_index
                ):
                    stage.run(ctx, self)
        else:
            for stage in self.stages:
                stage.run(ctx, self)

    def _finalize_frame(self, ctx: FrameContext, frame_span) -> None:
        if not OBS.mode:
            return
        OBS.count("frames.streamed")
        if not ctx.deadline_met:
            OBS.count("frames.deadline_missed")
        assert ctx.allocation is not None and ctx.result is not None
        frame_span.set(
            users=len(ctx.users),
            groups=len(ctx.allocation.groups),
            packets_sent=ctx.result.packets_sent,
            airtime_s=ctx.result.airtime_s,
            feedback_rounds=ctx.result.feedback_rounds_used,
            deadline_met=ctx.deadline_met,
        )
