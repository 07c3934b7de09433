"""Channel synthesis: from traced paths to complex array-channel vectors.

The frequency-flat channel between the AP's ``Nt``-element array and a
single-antenna STA is

    h = sum_l  a_l * exp(j phi_l) * e(theta_l)

over traced paths ``l`` with linear amplitude ``a_l`` (free-space +
reflection + blockage loss), carrier phase ``phi_l`` from the travelled
distance, and array steering vector ``e``.  Received signal strength under a
transmit beam ``F`` (with ``||F|| = 1``) is ``RSS = Ptx * |F^H h|^2``,
reported in dBm.

Channels are built a block of receivers at a time: :meth:`ChannelModel.terms`
holds the traced paths of ``U`` receivers as arrays, and
:meth:`ChannelModel.synthesise` draws their shadowing and sums their paths
into one ``(U, Nt)`` block.  Each row is bit for bit the channel of its
receiver synthesised alone (:meth:`ChannelModel.channel_vector` is the
one-row call), so a block's size never changes a recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ChannelError
from ..types import Position
from .antenna import PhasedArray
from .propagation import path_amplitude, path_phase_rad
from .raytracer import RayTracer

@dataclass(frozen=True)
class LinkBudget:
    """Scalar link-budget terms outside the channel vector itself.

    Attributes:
        tx_power_dbm: Conducted transmit power fed to the array.  Beamforming
            gain is produced by ``|F^H h|^2`` (up to ``Nt`` with a matched
            beam), not included here.
        rx_gain_db: Receive antenna gain of the quasi-omni STA antenna.
        implementation_loss_db: Fixed RF implementation margin.
    """

    tx_power_dbm: float = 18.0
    rx_gain_db: float = 3.0
    implementation_loss_db: float = 2.0

    def rss_dbm(self, beam_channel_gain: float) -> float:
        """RSS for a linear beamformed channel power gain ``|F^H h|^2``."""
        if beam_channel_gain <= 0.0:
            return -np.inf
        return (
            self.tx_power_dbm
            + self.rx_gain_db
            - self.implementation_loss_db
            + 10.0 * np.log10(beam_channel_gain)
        )

    def rss_dbm_array(self, beam_channel_gains: np.ndarray) -> np.ndarray:
        """:meth:`rss_dbm` of every gain in an array (``-inf`` at 0).

        The same operations in the same order; an element may differ from
        the scalar form only where numpy's array ``log10`` rounds otherwise.
        """
        with np.errstate(divide="ignore"):
            return (
                self.tx_power_dbm
                + self.rx_gain_db
                - self.implementation_loss_db
                + 10.0 * np.log10(beam_channel_gains)
            )


@dataclass(frozen=True)
class ChannelTerms:
    """The deterministic part of ``U`` receivers' channels over ``L`` paths.

    Attributes:
        loss_db: ``(U, L)`` path loss in dB before shadowing, any extra
            line-of-sight loss included; rows sorted strongest first.
        phasor: ``(U, L)`` carrier phasors.
        steering: ``(U, L, Nt)`` array steering vectors.
    """

    loss_db: np.ndarray
    phasor: np.ndarray
    steering: np.ndarray


@dataclass
class ChannelState:
    """Per-user channel vectors at one instant.

    Attributes:
        channels: ``user_id -> h`` complex vector of length ``Nt``.  In a
            multi-AP snapshot this is always AP 0's dict, so every
            single-AP consumer keeps reading exactly the data it always
            did.
        positions: ``user_id -> Position`` (metadata; emulation only).
        time_s: Simulation time of the snapshot.
        ap_channels: Optional per-AP channel dicts, AP 0 first (entry 0
            aliases ``channels``).  ``None`` means a plain single-AP
            snapshot.
    """

    channels: Dict[int, np.ndarray]
    positions: Dict[int, Position] = field(default_factory=dict)
    time_s: float = 0.0
    ap_channels: Optional[List[Dict[int, np.ndarray]]] = None

    def __post_init__(self) -> None:
        if self.ap_channels is not None:
            if not self.ap_channels:
                raise ChannelError("ap_channels must be None or non-empty")
            # Entry 0 IS the legacy dict — one source of truth per user.
            self.ap_channels[0] = self.channels

    @property
    def n_aps(self) -> int:
        """Access points this snapshot carries channels for."""
        return len(self.ap_channels) if self.ap_channels is not None else 1

    @property
    def user_ids(self) -> List[int]:
        """Sorted user identifiers present in this snapshot."""
        return sorted(self.channels)

    def for_ap(self, ap: int) -> "ChannelState":
        """A single-AP view of this snapshot (AP 0 returns ``self``).

        The view shares the underlying channel dicts, so beam planners,
        link models and transmitters written against the single-AP
        :class:`ChannelState` work per AP unchanged.
        """
        if ap == 0:
            return self
        if self.ap_channels is None or not 0 <= ap < len(self.ap_channels):
            raise ChannelError(
                f"snapshot carries {self.n_aps} AP(s); no channels for AP {ap}"
            )
        return ChannelState(
            channels=self.ap_channels[ap],
            positions=self.positions,
            time_s=self.time_s,
        )

    def stacked(self, user_ids: Sequence[int]) -> np.ndarray:
        """Stack the selected users' channels into an ``(n, Nt)`` matrix."""
        missing = [u for u in user_ids if u not in self.channels]
        if missing:
            raise ChannelError(f"no channel for users {missing}")
        return np.vstack([self.channels[u] for u in user_ids])


class ChannelModel:
    """Synthesises channel vectors for receivers in a ray-traced room.

    Args:
        tracer: Ray tracer bound to a room and AP placement.
        array: The AP phased array.
        budget: Link-budget scalars.
        fading_std_db: Log-normal shadowing applied per path (models
            everything the geometric tracer misses: scattering, polarisation
            mismatch, antenna pattern ripple).
    """

    def __init__(
        self,
        tracer: RayTracer,
        array: PhasedArray,
        budget: Optional[LinkBudget] = None,
        fading_std_db: float = 1.5,
    ) -> None:
        self.tracer = tracer
        self.array = array
        self.budget = budget or LinkBudget()
        self.fading_std_db = float(fading_std_db)

    def channel_vector(
        self,
        receiver: Position,
        rng: np.random.Generator,
        los_extra_loss_db: float = 0.0,
    ) -> np.ndarray:
        """Channel vector for a receiver position: a one-row :meth:`synthesise`.

        Args:
            receiver: STA position.
            rng: Source of per-path shadowing randomness.
            los_extra_loss_db: Additional loss applied to the direct path
                (e.g. :data:`HUMAN_BLOCKAGE_DB` when a blocker crosses it).
        """
        return self.synthesise(self.terms([receiver], [los_extra_loss_db]), rng)[0]

    def terms(
        self,
        receivers: Sequence[Position],
        los_extra_loss_db: Optional[Sequence[float]] = None,
    ) -> ChannelTerms:
        """The deterministic part of a block of receivers' channels.

        ``los_extra_loss_db`` holds one extra direct-path loss per receiver
        (none by default).  Receivers that do not move keep their terms,
        so a static trace traces them once and calls :meth:`synthesise`
        per snapshot.
        """
        traced = self.tracer.trace_block(receivers)
        loss = traced.loss_db
        if los_extra_loss_db is not None:
            extra = np.asarray(los_extra_loss_db, dtype=float)[:, None]
            loss = np.where(traced.is_los, loss + extra, loss)
        return ChannelTerms(
            loss_db=loss,
            phasor=np.exp(1j * path_phase_rad(traced.length_m)),
            steering=self.array.steering_vector(traced.aod_rad),
        )

    def synthesise(
        self, terms: ChannelTerms, rng: np.random.Generator
    ) -> np.ndarray:
        """The ``(U, Nt)`` channel block of a snapshot.

        One shadowing draw per path, receiver by receiver in path order (the
        stream ``U`` one-receiver calls would take), and each row summed
        path by path in that order, ``(amplitude * phasor) * steering``:
        every row is bit for bit the channel of its receiver alone.
        """
        users, paths = terms.loss_db.shape
        shadowing = rng.normal(0.0, self.fading_std_db, size=users * paths)
        amplitude = path_amplitude(terms.loss_db + shadowing.reshape(users, paths))
        weight = amplitude * terms.phasor
        h = np.zeros((users, self.array.num_elements), dtype=complex)
        term = np.empty_like(h)
        for path in range(paths):
            np.multiply(weight[:, path, None], terms.steering[:, path], out=term)
            h += term
        return h

    def snapshot(
        self,
        receivers: Dict[int, Position],
        rng: np.random.Generator,
        time_s: float = 0.0,
        los_extra_loss_db: Optional[Dict[int, float]] = None,
        terms: Optional[ChannelTerms] = None,
    ) -> ChannelState:
        """Channel vectors for a set of receivers at one instant.

        ``terms`` are the receivers' :meth:`terms`, in ``receivers`` order,
        traced once by a caller that snapshots the same static receivers
        many times; they already carry any extra line-of-sight loss.  Each
        channel is a row of the synthesised block.
        """
        if terms is None:
            extra = los_extra_loss_db or {}
            terms = self.terms(
                list(receivers.values()), [extra.get(u, 0.0) for u in receivers]
            )
        channels = dict(zip(receivers, self.synthesise(terms, rng)))
        return ChannelState(
            channels=channels, positions=dict(receivers), time_s=time_s
        )

    def rss_dbm(self, beam: np.ndarray, channel: np.ndarray) -> float:
        """RSS in dBm for a transmit beam and channel vector."""
        return self.budget.rss_dbm(self.array.beam_gain(beam, channel))
