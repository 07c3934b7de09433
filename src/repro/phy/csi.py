"""CSI estimation and trace recording (Sec 2.8).

The paper estimates CSI from SLS RSS feedback using the ACO / X-array
framework, then — because the patched firmware cannot dump SLS RSS under
data traffic in mobile cases — records CSI traces and replays them in
emulation.  We mirror that structure:

* :class:`CsiEstimator` degrades ground-truth channel vectors with estimation
  noise (ACO recovers CSI only up to measurement error and quantisation),
  one ``(U, Nt)`` block of receivers per draw; a row is bit for bit the
  estimate of its channel alone.
* :class:`CsiTrace` is a recorded sequence of per-user channel snapshots at
  the 100 ms beacon interval, replayable by the emulator so that competing
  algorithms see identical channel conditions — the paper's stated reason
  for trace-driven evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Dict, Iterator, List, Union

import numpy as np

from ..errors import ChannelError
from ..types import Position
from .channel import ChannelState


@dataclass(frozen=True)
class CsiEstimator:
    """Adds ACO-style estimation error to ground-truth channels.

    Attributes:
        relative_error_std: Std-dev of complex Gaussian error relative to the
            RMS magnitude of the channel entries.  ACO reports beamforming
            within ~1 dB of ground truth; 0.1 relative error reproduces that.
    """

    relative_error_std: float = 0.1

    def estimate(self, channel: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Noisy estimate of one channel vector: a one-row :meth:`estimate_block`."""
        return self.estimate_block(np.asarray(channel, dtype=complex)[None], rng)[0]

    def estimate_block(
        self, channels: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Noisy estimates of a ``(U, Nt)`` block of channel vectors.

        One draw for the whole block, receiver by receiver (real parts,
        then imaginary parts), each row's noise scaled by its own RMS
        magnitude: every row is bit for bit the estimate of its channel
        alone, from the stream ``U`` one-row calls would take.
        """
        scale = np.sqrt(np.mean(np.abs(channels) ** 2, axis=-1))
        sigma = (self.relative_error_std * scale / np.sqrt(2))[:, None]
        draws = rng.standard_normal((len(channels), 2, channels.shape[-1]))
        # ``0.0 + sigma * g`` is how ``rng.normal(0.0, sigma)`` scales a draw.
        noise = (0.0 + sigma * draws[:, 0]) + 1j * (0.0 + sigma * draws[:, 1])
        return channels + noise

    def estimate_state(
        self, state: ChannelState, rng: np.random.Generator
    ) -> ChannelState:
        """Noisy estimate of a whole snapshot, one block draw per AP.

        Multi-AP snapshots estimate AP 0's channel dict first — consuming
        exactly the rng draws a single-AP snapshot would — then the extra
        APs in AP order, so AP 0's estimates in an N-AP trace are
        bit-identical to a 1-AP trace at the same seed.
        """
        ap_estimates = []
        for channels in state.ap_channels or [state.channels]:
            block = np.stack(list(channels.values()))
            ap_estimates.append(dict(zip(channels, self.estimate_block(block, rng))))
        return ChannelState(
            channels=ap_estimates[0],
            positions=dict(state.positions),
            time_s=state.time_s,
            ap_channels=ap_estimates if state.ap_channels is not None else None,
        )


@dataclass(frozen=True)
class CsiSnapshot:
    """One beacon interval's channel measurement.

    Attributes:
        time_s: Measurement time.
        true_state: Ground-truth channels (what the emulated air transmits
            through).
        estimated_state: What the AP's ACO estimator believes (what
            beamforming and scheduling are computed from).
    """

    time_s: float
    true_state: ChannelState
    estimated_state: ChannelState


@dataclass
class CsiTrace:
    """A replayable sequence of CSI snapshots at the beacon interval."""

    snapshots: List[CsiSnapshot] = field(default_factory=list)
    beacon_interval_s: float = 0.1

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self) -> Iterator[CsiSnapshot]:
        return iter(self.snapshots)

    def append(self, snapshot: CsiSnapshot) -> None:
        """Record one snapshot."""
        self.snapshots.append(snapshot)

    def at_time(self, time_s: float) -> CsiSnapshot:
        """Most recent snapshot at or before ``time_s`` (zero-order hold)."""
        if not self.snapshots:
            raise ChannelError("trace is empty")
        index = int(np.clip(time_s / self.beacon_interval_s, 0, len(self.snapshots) - 1))
        # Guard against non-uniform traces: walk to the right snapshot.
        while index > 0 and self.snapshots[index].time_s > time_s:
            index -= 1
        while (
            index + 1 < len(self.snapshots)
            and self.snapshots[index + 1].time_s <= time_s
        ):
            index += 1
        return self.snapshots[index]

    @property
    def duration_s(self) -> float:
        """Time covered by the trace."""
        if not self.snapshots:
            return 0.0
        return self.snapshots[-1].time_s + self.beacon_interval_s

    def user_ids(self) -> List[int]:
        """Users present in the first snapshot."""
        if not self.snapshots:
            return []
        return self.snapshots[0].true_state.user_ids

    @property
    def n_aps(self) -> int:
        """Access points the trace carries channels for (1 when empty)."""
        if not self.snapshots:
            return 1
        return self.snapshots[0].true_state.n_aps

    # ------------------------------------------------------------ persistence

    def save(self, path: Union[str, FsPath]) -> None:
        """Persist the trace to an ``.npz`` file.

        Multi-AP traces add ``ap{a}_true_{u}`` / ``ap{a}_est_{u}`` arrays
        for each extra AP ``a >= 1`` plus an ``n_aps`` scalar; single-AP
        traces keep the original key layout, so old files load unchanged.
        """
        if not self.snapshots:
            raise ChannelError("refusing to save an empty trace")
        users = self.user_ids()
        n_aps = self.n_aps
        times = np.array([s.time_s for s in self.snapshots])
        data: Dict[str, np.ndarray] = {
            "times": times,
            "users": np.array(users),
            "beacon_interval_s": np.array(self.beacon_interval_s),
        }
        if n_aps > 1:
            data["n_aps"] = np.array(n_aps)
        for user in users:
            data[f"true_{user}"] = np.vstack(
                [s.true_state.channels[user] for s in self.snapshots]
            )
            data[f"est_{user}"] = np.vstack(
                [s.estimated_state.channels[user] for s in self.snapshots]
            )
            data[f"pos_{user}"] = np.array(
                [
                    s.true_state.positions.get(user, Position(0, 0)).as_array()
                    for s in self.snapshots
                ]
            )
            for ap in range(1, n_aps):
                data[f"ap{ap}_true_{user}"] = np.vstack(
                    [s.true_state.ap_channels[ap][user] for s in self.snapshots]
                )
                data[f"ap{ap}_est_{user}"] = np.vstack(
                    [
                        s.estimated_state.ap_channels[ap][user]
                        for s in self.snapshots
                    ]
                )
        np.savez(FsPath(path), **data)

    @classmethod
    def load(cls, path: Union[str, FsPath]) -> "CsiTrace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(FsPath(path)) as data:
            times = data["times"]
            users = [int(u) for u in data["users"]]
            interval = float(data["beacon_interval_s"])
            n_aps = int(data["n_aps"]) if "n_aps" in data else 1
            snapshots = []
            for i, t in enumerate(times):
                true_channels = {u: data[f"true_{u}"][i] for u in users}
                est_channels = {u: data[f"est_{u}"][i] for u in users}
                positions = {
                    u: Position(*(float(v) for v in data[f"pos_{u}"][i])) for u in users
                }
                ap_true = ap_est = None
                if n_aps > 1:
                    ap_true = [true_channels] + [
                        {u: data[f"ap{ap}_true_{u}"][i] for u in users}
                        for ap in range(1, n_aps)
                    ]
                    ap_est = [est_channels] + [
                        {u: data[f"ap{ap}_est_{u}"][i] for u in users}
                        for ap in range(1, n_aps)
                    ]
                snapshots.append(
                    CsiSnapshot(
                        time_s=float(t),
                        true_state=ChannelState(
                            true_channels, positions, float(t), ap_channels=ap_true
                        ),
                        estimated_state=ChannelState(
                            est_channels, positions, float(t), ap_channels=ap_est
                        ),
                    )
                )
        return cls(snapshots=snapshots, beacon_interval_s=interval)
