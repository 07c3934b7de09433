"""Cross-AP coded repair: the one algorithm specific to several APs.

Every session runs the same stage list (:mod:`repro.core.pipeline`); its
plan, map and transmit stages loop over the topology's APs, and a session
without a topology is a one-AP session.  With more than one AP, each user
is served by exactly one *primary* AP and the best non-serving AP is its
repair *secondary*.  This module holds the two halves of the repair the
stages call:

:func:`plan_repair` — at each replan, a singleton beam plan per (secondary
AP, backup user), from one :meth:`GroupBeamPlanner.plan_groups` call per
secondary AP.

:func:`cross_ap_repair` — after the per-AP transmit passes, each secondary
AP spends its leftover deadline on fresh fountain symbols for its backup
users' still-undecoded scheduled units, drawn from the same per-unit
symbol streams and recorded into the frame's shared receiver state, so
symbols from both APs combine at the receiver exactly as
arXiv:1711.06154's network-coded multi-link streaming predicts.  Per-AP
blockage (``FaultEvent.ap``) attenuates only the tagged AP's links, which
is what turns a blocked LoS into a handover plus repair — failover as an
emergent scenario.

At one AP there is no secondary: no repair is planned and
:func:`cross_ap_repair` sends nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Set

from ..fountain.block import CodingUnitId, FrameBlockEncoder
from ..obs import OBS
from ..scheduling.groups import CandidateGroup
from ..transport.cohort import FrameCohort
from ..transport.transmitter import GROUP_SWITCH_OVERHEAD_S, HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..beamforming import BeamPlan
    from ..phy.channel import ChannelState
    from ..scheduling.coding_groups import UnitAssignment
    from ..transport.association import ApAssociationPolicy
    from .pipeline import FrameContext, StreamSession

__all__ = ["plan_repair", "cross_ap_repair"]


def plan_repair(
    session: "StreamSession",
    policy: "ApAssociationPolicy",
    estimated: "ChannelState",
) -> List[Dict[int, "BeamPlan"]]:
    """Per AP, the singleton repair beam of each user it backs up.

    Users whose secondary AP cannot reach them at any MCS get no plan.
    Empty everywhere when source coding is off (plain segments have no
    fresh symbols to send).
    """
    repair: List[Dict[int, "BeamPlan"]] = [{} for _ in range(policy.n_aps)]
    if not session.config.source_coding:
        return repair
    backups: List[List[int]] = [[] for _ in range(policy.n_aps)]
    for user in sorted(policy.serving):
        secondary = policy.secondary(user)
        if secondary is not None:
            backups[secondary].append(user)
    for ap, users in enumerate(backups):
        if not users:
            continue
        plans = session.streamer.planner.plan_groups(
            estimated.for_ap(ap), [[u] for u in users]
        )
        repair[ap] = {
            user: plan for user, plan in zip(users, plans) if plan.mcs is not None
        }
    return repair


def cross_ap_repair(
    ctx: "FrameContext",
    session: "StreamSession",
    receivers: FrameCohort,
    true_state: "ChannelState",
    ap_airtime: List[float],
    budget_s: float,
) -> int:
    """Secondary APs top up their backup users' undecoded units.

    For every user with a repair plan, in user order, its secondary AP
    walks the units the user's *primary* AP scheduled this frame, computes
    the fountain deficit ``K - received``, and paces that many fresh
    symbols at the user until the AP's leftover deadline runs out (one
    scalar loss draw per packet sent, in send order).  Returns the number
    of repair packets put on the air; per-AP clocks in ``ap_airtime`` are
    advanced in place.
    """
    backups = sorted(
        (
            (user, ap, plan)
            for ap, plans in enumerate(ctx.repair_plans)
            for user, plan in plans.items()
        ),
        key=lambda backup: backup[0],
    )
    if not backups:
        return 0
    assert ctx.encoder is not None
    streamer = session.streamer
    encoder = ctx.encoder
    k = encoder.symbols_per_unit()
    packet_bytes = encoder.symbol_size + HEADER_BYTES
    primary = {u: ap for ap, users in enumerate(ctx.ap_users) for u in users}
    scheduled = [
        _scheduled_units(assignments, encoder)
        for assignments in ctx.ap_assignments
    ]
    sent = 0
    for user, ap, plan in backups:
        assert plan.mcs is not None  # plan_repair keeps reachable plans only
        units = scheduled[primary[user]]
        remaining = budget_s - ap_airtime[ap]
        if not units or remaining <= GROUP_SWITCH_OVERHEAD_S:
            continue
        row = receivers.member_rows([user])
        faults = session.faults
        prob = float(
            streamer.transmitter.link.delivery_probability_array(
                [user], plan.beam, true_state.for_ap(ap), plan.mcs,
                rss_offsets_db=(
                    None if faults is None else faults.rss_offsets_db([user], ap)
                ),
            )[0]
        )
        if faults is not None:
            scale = faults.erasure_scale()
            if scale < 1.0:
                prob *= scale
        rate = CandidateGroup(
            index=0, plan=plan, rate_scale=session.config.rate_scale
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
            receivers.record(unit, symbols[:n_send], row, delivered[:, None])
            sent += n_send
            if OBS.mode:
                OBS.count("core.repair.delivered", int(delivered.sum()))
            if clock + symbol_airtime > remaining:
                break
        if clock > GROUP_SWITCH_OVERHEAD_S:
            ap_airtime[ap] += clock
            if OBS.mode:
                OBS.count("core.repair.users")
    if sent and OBS.mode:
        OBS.count("core.repair.packets", sent)
    return sent


def _scheduled_units(
    assignments: Sequence["UnitAssignment"], encoder: FrameBlockEncoder
) -> List[CodingUnitId]:
    """Units one AP scheduled this frame, in plan order.

    Repair only tops up what was actually allocated airtime — an
    unscheduled enhancement sublayer was a planning decision, not a loss,
    and repairing it would hand secondary APs a bandwidth subsidy the 1-AP
    arm never had.
    """
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
