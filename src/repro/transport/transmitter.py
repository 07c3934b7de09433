"""Per-frame packet transmission over the emulated links.

Executes one video frame's transmission plan inside the 1/FR deadline:

1. **Initial pass** — walk the coding-group assignments in order (lower
   layers first), pacing each multicast group with its leaky bucket at
   ``min(MCS rate, fed-back bandwidth)``; every packet is independently
   delivered to each group member according to the SNR-margin PER under the
   *true* channel.  Switching between groups costs the 25 us firmware beam /
   MCS reconfiguration the paper measured (Sec 3.1).
2. **Feedback rounds** — receivers report per-sublayer reception counts; the
   sender computes the deficit P per unit and sends P makeup packets (fresh
   fountain symbols, or — without source coding — the exact missing
   segments), lowest layers first, until the deadline.

Without rate control the initial pass instead dumps the whole burst into a
finite kernel queue (Sec 4.2.3 ablation): overflow tail-drops uniformly over
the burst, so losses hit base layers too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import TransportError
from ..fountain.block import CodingUnitId, FrameBlockEncoder
from ..fountain.raptor import SymbolBatch
from ..obs import OBS
from ..phy.channel import ChannelState
from ..scheduling.coding_groups import UnitAssignment
from ..scheduling.groups import CandidateGroup
from .cohort import CohortUserReception, FrameCohort, UserTallies, UserTally
from .kernel_queue import KernelQueue
from .link import LinkModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.controller import FaultController

#: Firmware beam + MCS switch overhead (Sec 3.1: ~25 us).
GROUP_SWITCH_OVERHEAD_S = 25e-6

#: UDP/IP/MAC header overhead per packet, bytes.
HEADER_BYTES = 64

#: One-way latency of a feedback report.
FEEDBACK_LATENCY_S = 5e-4


@dataclass
class _TxState:
    """Mutable clock/counters threaded through the transmission passes."""

    clock_s: float
    packets_sent: int
    dropped_at_queue: int


#: Cross-frame per-receiver tally snapshot; the live state is the
#: struct-of-arrays :class:`repro.transport.cohort.UserTallies`.
_UserTxState = UserTally


@dataclass
class TransmissionResult:
    """Outcome of one frame's transmission.

    Attributes:
        cohort: The frame's struct-of-arrays reception state, which the
            pipeline stages read.
        airtime_s: Total air/queue time consumed.
        packets_sent: Packets put on the air (post rate-control/queue).
        packets_dropped_at_queue: Packets lost in the kernel queue (only in
            the no-rate-control mode).
        feedback_rounds_used: Retransmission rounds that actually ran.
    """

    cohort: FrameCohort
    airtime_s: float
    packets_sent: int
    packets_dropped_at_queue: int
    feedback_rounds_used: int

    @cached_property
    def receptions(self) -> Dict[int, CohortUserReception]:
        """Per-user scalar views into ``cohort``, built on first read (each
        one's decoder is built only when read)."""
        return self.cohort.receptions()


#: One expanded plan entry: (group index, unit, symbols to send).
_PlanEntry = Tuple[int, CodingUnitId, SymbolBatch]


def _runs(values: np.ndarray) -> List[np.ndarray]:
    """Positions of ``values`` (non-empty), split into its maximal runs of
    equal consecutive entries."""
    return np.split(np.arange(len(values)), np.flatnonzero(np.diff(values)) + 1)


@dataclass
class FrameTransmitter:
    """Transmits framed symbol schedules over emulated links.

    Args:
        link: Per-packet delivery model (true channels + pseudo multicast).
        rate_control: Leaky-bucket pacing with bandwidth feedback (Sec 2.7);
            when False, the kernel-queue burst model applies.
        source_coding: Fountain coding on (fresh symbols, Sec 2.6) or off
            (plain segments, duplicated across groups).
        max_feedback_rounds: Retransmission rounds within the deadline.
    """

    link: LinkModel
    rate_control: bool = True
    source_coding: bool = True
    max_feedback_rounds: int = 2
    _tallies: UserTallies = field(
        default_factory=UserTallies, init=False, repr=False, compare=False
    )

    def open_frame(
        self, encoder: FrameBlockEncoder, users: Sequence[int]
    ) -> FrameCohort:
        """Blank receiver state for one frame of ``users``."""
        return FrameCohort(users, encoder)

    def close_frame(self, receivers: FrameCohort) -> None:
        """Fold a frame's final per-user deliveries into the tallies."""
        received, lost = receivers.packets_received, receivers.packets_lost
        self._tallies.update_frame(receivers.users, received, lost)
        if OBS.mode:
            for user, got, missed in zip(receivers.users, received, lost):
                OBS.count(f"transport.user.{user}.delivered", int(got))
                OBS.count(f"transport.user.{user}.lost", int(missed))

    def transmit(
        self,
        encoder: FrameBlockEncoder,
        assignments: Sequence[UnitAssignment],
        groups: Sequence[CandidateGroup],
        true_state: ChannelState,
        budget_s: float,
        rng: np.random.Generator,
        rate_limits_bytes_per_s: Optional[Dict[int, float]] = None,
        active_users: Optional[Sequence[int]] = None,
        faults: Optional["FaultController"] = None,
        ap: int = 0,
        receivers: Optional[FrameCohort] = None,
    ) -> TransmissionResult:
        """Run one frame's transmission and return per-user receptions.

        The draw-ordering contract, which keeps the outcome independent of
        how receiver state is kept: one ``rng.random((symbols, members))``
        block per paced plan entry (drawn before the deadline cut), one
        ``rng.random(members)`` per *sent* burst packet (batched as
        ``(run, members)`` blocks, which numpy fills in the same order).

        Args:
            encoder: The frame's fountain encoders.
            assignments: Ordered (group, layer, sublayer, bytes) plan.
            groups: Candidate groups the assignments index into.
            true_state: Ground-truth channels during this frame.
            budget_s: Frame deadline (1/FR).
            rng: Loss and queue randomness.
            rate_limits_bytes_per_s: Per-group bandwidth-feedback caps
                (from the previous frame's receiver estimates).
            active_users: Receivers currently in the session; ``None``
                means every user in ``true_state`` (no churn).
            faults: Active fault controller; its blockage/SNR-dip RSS
                offsets enter the link model and its packet-erasure bursts
                scale the delivery probabilities.
            ap: The AP this pass transmits from, which scopes the fault
                controller's AP-tagged attenuation.
            receivers: Receiver state from :meth:`open_frame` that several
                passes of one frame share (one pass per AP, then cross-AP
                repair); the caller calls :meth:`close_frame` once the
                frame is over.  ``None``: this pass is the whole frame and
                opens and closes its own.
        """
        if budget_s <= 0:
            raise TransportError(f"budget must be positive, got {budget_s}")
        users = true_state.user_ids
        if active_users is not None:
            active = set(active_users)
            users = [u for u in users if u in active]
        whole_frame = receivers is None
        if receivers is None:
            receivers = self.open_frame(encoder, users)
        with OBS.span("transport.transmit", frame=encoder.frame_index) as span:
            result = self._transmit(
                encoder, assignments, groups, true_state, budget_s, rng,
                rate_limits_bytes_per_s or {}, set(users), faults, ap,
                receivers,
            )
            span.set(
                packets_sent=result.packets_sent,
                packets_dropped_at_queue=result.packets_dropped_at_queue,
                airtime_s=result.airtime_s,
                feedback_rounds=result.feedback_rounds_used,
                users=len(users),
            )
        if OBS.mode:
            OBS.count("transport.packets_sent", result.packets_sent)
            OBS.count(
                "transport.packets_dropped_at_queue",
                result.packets_dropped_at_queue,
            )
        if whole_frame:
            self.close_frame(receivers)
        return result

    def _transmit(
        self,
        encoder: FrameBlockEncoder,
        assignments: Sequence[UnitAssignment],
        groups: Sequence[CandidateGroup],
        true_state: ChannelState,
        budget_s: float,
        rng: np.random.Generator,
        limits: Dict[int, float],
        present: Set[int],
        faults: Optional["FaultController"],
        ap: int,
        receivers: FrameCohort,
    ) -> TransmissionResult:
        packet_bytes = encoder.symbol_size + HEADER_BYTES

        # Resolve the effective pacing rate of every group the plan (and so
        # any makeup pass) sends to.
        rates: Dict[int, float] = {}
        for gi in dict.fromkeys(a.group_index for a in assignments):
            group = groups[gi]
            rate = group.rate_bytes_per_s
            if self.rate_control and group.index in limits:
                rate = min(rate, max(limits[group.index], packet_bytes / budget_s))
            rates[group.index] = max(rate, 1e-6)

        state = _TxState(clock_s=0.0, packets_sent=0, dropped_at_queue=0)
        plan = self._expand_assignments(encoder, assignments)

        # Delivery probabilities are deterministic per group within a frame
        # (fixed beam, MCS, true channel and fault offsets): memoize them
        # across plan entries and feedback rounds.
        # Erasure bursts kill packets independently of the channel: scaling
        # the delivery probability (instead of drawing extra randomness)
        # keeps the rng stream — and hence zero-intensity runs —
        # bit-identical to the fault-free path.
        erasure_scale = 1.0 if faults is None else faults.erasure_scale()
        prob_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

        def member_probs(group_index: int) -> Tuple[np.ndarray, np.ndarray]:
            """(member rows, delivery probabilities) of a group, in group
            order filtered to this pass's receivers (the draw columns)."""
            entry = prob_cache.get(group_index)
            if entry is None:
                group = groups[group_index]
                member_ids = [u for u in group.user_ids if u in present]
                probs = self.link.delivery_probability_array(
                    member_ids, group.plan.beam, true_state, group.plan.mcs,
                    rss_offsets_db=(
                        None
                        if faults is None
                        else faults.rss_offsets_db(member_ids, ap)
                    ),
                )
                if erasure_scale < 1.0:
                    probs = probs * erasure_scale
                entry = (receivers.member_rows(member_ids), probs)
                prob_cache[group_index] = entry
            return entry

        first_pass = self._paced_pass if self.rate_control else self._burst_pass
        first_pass(plan, groups, rates, member_probs, receivers, packet_bytes,
                   budget_s, state, rng)

        rounds = 0
        for _ in range(max(0, self.max_feedback_rounds)):
            if state.clock_s + FEEDBACK_LATENCY_S >= budget_s:
                break
            state.clock_s += FEEDBACK_LATENCY_S
            makeup = self._makeup_plan(
                encoder, assignments, groups, present, receivers
            )
            if not makeup:
                break
            rounds += 1
            self._paced_pass(makeup, groups, rates, member_probs, receivers,
                             packet_bytes, budget_s, state, rng)

        return TransmissionResult(
            receivers,
            min(state.clock_s, budget_s),
            state.packets_sent,
            state.dropped_at_queue,
            rounds,
        )

    # ------------------------------------------------------------------ plan

    def _expand_assignments(
        self,
        encoder: FrameBlockEncoder,
        assignments: Sequence[UnitAssignment],
    ) -> List[_PlanEntry]:
        """Turn byte budgets into concrete symbol batches per (group, unit)."""
        k = encoder.symbols_per_unit()
        wanted = []
        for assignment in assignments:
            count = int(np.ceil(assignment.nbytes / encoder.symbol_size - 1e-9))
            if count <= 0:
                continue
            unit = CodingUnitId(
                encoder.frame_index, assignment.layer, assignment.sublayer
            )
            # Plain segments: every group's stream restarts at segment 0,
            # so overlapping groups duplicate each other.
            wanted.append(
                (
                    assignment.group_index,
                    unit,
                    count if self.source_coding else np.arange(count) % k,
                )
            )
        return self._encode_plan(encoder, wanted)

    def _makeup_plan(
        self,
        encoder: FrameBlockEncoder,
        assignments: Sequence[UnitAssignment],
        groups: Sequence[CandidateGroup],
        present: Set[int],
        receivers: FrameCohort,
    ) -> List[_PlanEntry]:
        """Retransmission plan from per-sublayer feedback (Sec 2.6)."""
        k = encoder.symbols_per_unit()
        wanted = []
        seen_units = set()
        for assignment in assignments:
            unit = CodingUnitId(
                encoder.frame_index, assignment.layer, assignment.sublayer
            )
            key = (assignment.group_index, unit)
            if key in seen_units:
                continue
            seen_units.add(key)
            group = groups[assignment.group_index]
            member_rows = receivers.member_rows(
                [u for u in group.user_ids if u in present]
            )
            if member_rows.size == 0:
                continue
            if self.source_coding:
                deficit = k - receivers.min_distinct(unit, member_rows)
                if deficit > 0:
                    wanted.append((assignment.group_index, unit, deficit))
            else:
                missing = receivers.plain_missing(unit, member_rows)
                if missing:
                    wanted.append((assignment.group_index, unit, missing))
        return self._encode_plan(encoder, wanted)

    def _encode_plan(
        self, encoder: FrameBlockEncoder, wanted: Sequence[Tuple[int, CodingUnitId, Any]]
    ) -> List[_PlanEntry]:
        """Encode a pass: per (group, unit), that many fresh symbols under
        source coding (one encoder call for the whole pass), the named
        segments without."""
        if self.source_coding:
            batches = encoder.next_batches(
                [(unit, count) for _, unit, count in wanted]
            )
        else:
            batches = [
                encoder.symbols_at(unit, segments) for _, unit, segments in wanted
            ]
        return [
            (group_index, unit, batch)
            for (group_index, unit, _), batch in zip(wanted, batches)
        ]

    # ------------------------------------------------------------------ passes

    def _paced_pass(
        self, plan, groups, rates, member_probs, receivers,
        packet_bytes, budget_s, state, rng,
    ) -> None:
        """One draw block + one boolean compare per plan entry, scalar
        clock walk for the deadline cut."""
        last_group = -1
        for group_index, unit, symbols in plan:
            if not symbols:
                continue
            if groups[group_index].plan.mcs is None:
                continue
            if group_index != last_group:
                state.clock_s += GROUP_SWITCH_OVERHEAD_S
                last_group = group_index
            member_rows, probs = member_probs(group_index)
            airtime = packet_bytes / rates[group_index]
            draws = rng.random((len(symbols), len(probs)))
            n_send = 0
            while n_send < len(symbols) and state.clock_s + airtime <= budget_s:
                state.clock_s += airtime
                n_send += 1
            state.packets_sent += n_send
            receivers.record(
                unit, symbols[:n_send], member_rows, draws[:n_send] < probs
            )
            if n_send < len(symbols):
                return

    def _burst_pass(
        self, plan, groups, rates, member_probs, receivers,
        packet_bytes, budget_s, state, rng,
    ) -> None:
        """No rate control: one big burst through the kernel queue.

        The queue/clock walk is decided first (it draws no per-member
        randomness), then delivery draws are batched per contiguous
        same-group run of sent packets."""
        queue = KernelQueue()
        counts = [len(batch) for _, _, batch in plan]
        total = sum(counts)
        if not total:
            return
        # One burst packet per symbol: its plan entry, its index in that
        # entry's batch, its group.
        entry_of = np.repeat(np.arange(len(plan)), counts)
        index_of = np.concatenate([np.arange(count) for count in counts])
        group_of = np.repeat([g for g, _, _ in plan], counts)
        mean_rate = float(
            np.mean(np.repeat([rates[g] for g, _, _ in plan], counts))
        )
        mask = queue.admitted_mask(total, packet_bytes, mean_rate, budget_s, rng)
        state.dropped_at_queue += int((~mask).sum())
        sent_packets: List[int] = []
        for packet, (group_index, admitted) in enumerate(
            zip(group_of.tolist(), mask.tolist())
        ):
            airtime = packet_bytes / rates[group_index]
            if state.clock_s + airtime > budget_s:
                break
            if not admitted:
                continue
            if groups[group_index].plan.mcs is None:
                continue
            state.clock_s += airtime
            state.packets_sent += 1
            sent_packets.append(packet)
        if not sent_packets:
            return
        sent = np.asarray(sent_packets)
        for run in _runs(group_of[sent]):
            packets = sent[run]
            member_rows, probs = member_probs(int(group_of[packets[0]]))
            draws = rng.random((len(packets), len(probs)))
            for part in _runs(entry_of[packets]):
                _, unit, batch = plan[entry_of[packets[part[0]]]]
                receivers.record(
                    unit, batch[index_of[packets[part]]], member_rows,
                    draws[part] < probs,
                )

    # --------------------------------------------------------- churn state

    def user_state(self, user: int) -> Optional[_UserTxState]:
        """Cross-frame delivery tally for ``user`` (None if never served)."""
        return self._tallies.get(user)

    def tracked_users(self) -> List[int]:
        """Users the transmitter currently holds per-receiver state for."""
        return self._tallies.tracked()

    def evict_user(self, user: int) -> None:
        """Drop per-receiver state when ``user`` leaves the session.

        Without this, churn leaks an entry per departed receiver for the
        lifetime of the transmitter (they re-accumulate from scratch on
        rejoin, as after a real re-association).
        """
        self._tallies.evict(user)
        if OBS.mode:
            OBS.count("transport.users_evicted")
