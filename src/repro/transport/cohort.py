"""Struct-of-arrays receiver state: the one receiver model.

The feedback loop of Sec 2.6 only ever asks a receiver two things per
sublayer — how many distinct symbols it holds and whether the unit is
decodable — so one :class:`FrameCohort` per frame keeps exactly that for
every receiver as numpy arrays indexed by a user-index map (user id ->
array row).  A packet's delivery outcome for the whole multicast group is
a single boolean row and a frame's bookkeeping is a handful of vectorized
updates, for every codec, topology and observability mode (symbols a
second AP sends land in the same arrays: the code is rateless, so they
combine at the receiver for free).

Decodability without decoders
-----------------------------

Both codecs are systematic: symbol ids below ``K`` are source symbols.  A
unit whose systematic ids all arrived is decoded with no further work;
otherwise the received id set goes to
:func:`repro.fountain.block.units_decodable`, which answers for whichever
codec the frame was encoded with.  Receivers with identical reception
patterns share one check, and a frame asks about all its units' patterns
in one call (:func:`_settle`).

Per-user :class:`FrameBlockDecoder` objects are only *materialized* lazily
(:class:`CohortUserReception`), by replaying the recorded delivery events
for that one receiver; the replay feeds the exact symbol sequence a
decoder-per-receiver model would have ingested, so the materialized
decoder is indistinguishable from one built online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..fountain.block import (
    CodingUnitId,
    FrameBlockDecoder,
    FrameBlockEncoder,
    units_decodable,
)
from ..fountain.raptor import FountainSymbol, SymbolBatch
from ..obs import OBS
from ..types import NUM_LAYERS
from ..video.jigsaw import SUBLAYER_COUNTS

__all__ = [
    "CohortUserReception",
    "FrameCohort",
    "UserTallies",
    "UserTally",
]


@dataclass
class UserTally:
    """Cross-frame delivery tallies for one receiver (read-out snapshot)."""

    frames: int = 0
    packets_received: int = 0
    packets_lost: int = 0


class UserTallies:
    """Cross-frame per-receiver tallies as parallel arrays.

    The struct-of-arrays replacement for the transmitter's old
    dict-of-``_UserTxState``: one int64 row per tracked receiver, addressed
    through a user-index map, so a frame's end-of-transmission accounting is
    three vectorized adds instead of a loop over users.  Eviction swaps the
    last row into the vacated slot (order is never observable; readers sort).
    """

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self._ids = np.zeros(0, dtype=np.int64)
        self._frames = np.zeros(0, dtype=np.int64)
        self._received = np.zeros(0, dtype=np.int64)
        self._lost = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._index)

    def _rows_for(self, users: Sequence[int]) -> np.ndarray:
        """Rows for ``users``, growing the arrays for unseen ids."""
        new = [u for u in users if u not in self._index]
        if new:
            start = self._ids.size
            grow = len(new)
            self._ids = np.concatenate([self._ids, np.asarray(new, dtype=np.int64)])
            self._frames = np.concatenate([self._frames, np.zeros(grow, np.int64)])
            self._received = np.concatenate([self._received, np.zeros(grow, np.int64)])
            self._lost = np.concatenate([self._lost, np.zeros(grow, np.int64)])
            for offset, user in enumerate(new):
                self._index[user] = start + offset
        return np.fromiter(
            (self._index[u] for u in users), dtype=np.intp, count=len(users)
        )

    def update_frame(
        self,
        users: Sequence[int],
        received: np.ndarray,
        lost: np.ndarray,
    ) -> None:
        """Fold one frame's per-user delivery counts in (one frame each)."""
        rows = self._rows_for(users)
        self._frames[rows] += 1
        self._received[rows] += np.asarray(received, dtype=np.int64)
        self._lost[rows] += np.asarray(lost, dtype=np.int64)

    def get(self, user: int) -> Optional[UserTally]:
        """Tally snapshot for ``user`` (None if never served)."""
        row = self._index.get(user)
        if row is None:
            return None
        return UserTally(
            frames=int(self._frames[row]),
            packets_received=int(self._received[row]),
            packets_lost=int(self._lost[row]),
        )

    def tracked(self) -> List[int]:
        """Sorted ids of every receiver with live state."""
        return sorted(self._index)

    def evict(self, user: int) -> bool:
        """Drop ``user``'s row (swap-remove); True if it existed."""
        row = self._index.pop(user, None)
        if row is None:
            return False
        last = self._ids.size - 1
        if row != last:
            moved = int(self._ids[last])
            self._ids[row] = self._ids[last]
            self._frames[row] = self._frames[last]
            self._received[row] = self._received[last]
            self._lost[row] = self._lost[last]
            self._index[moved] = row
        self._ids = self._ids[:last]
        self._frames = self._frames[:last]
        self._received = self._received[:last]
        self._lost = self._lost[:last]
        return True


class _UnitState:
    """Reception state of one coding unit across the whole cohort.

    ``sys_mask[i, u]`` — receiver ``u`` holds systematic symbol ``i``;
    ``distinct[u]`` — distinct symbol ids held (the feedback quantity);
    repair symbols get one boolean row each over the cohort, plus their
    symbol id for the decodability check.
    """

    __slots__ = (
        "codec",
        "block_id",
        "k",
        "sys_mask",
        "distinct",
        "repair_ids",
        "repair_rows",
        "repair_index",
        "events",
        "_decoded",
    )

    def __init__(
        self, codec: str, block_id: int, k: int, num_users: int
    ) -> None:
        self.codec = codec
        self.block_id = block_id
        self.k = k
        self.sys_mask = np.zeros((k, num_users), dtype=bool)
        self.distinct = np.zeros(num_users, dtype=np.int64)
        self.repair_ids: List[int] = []
        self.repair_rows: List[np.ndarray] = []
        self.repair_index: Dict[int, int] = {}
        #: Chronological (batch, member_rows, delivered) records for lazy
        #: per-user decoder replay.
        self.events: List[Tuple[SymbolBatch, np.ndarray, np.ndarray]] = []
        self._decoded: Optional[np.ndarray] = None

    def record(
        self,
        batch: SymbolBatch,
        member_rows: np.ndarray,
        delivered: np.ndarray,
    ) -> None:
        """Fold one delivery event in: ``delivered`` is (symbols, members)."""
        self.events.append((batch, member_rows, delivered))
        self._decoded = None
        ids = batch.ids
        systematic = ids < self.k
        num_systematic = int(np.count_nonzero(systematic))
        if num_systematic:
            sys_ids, rows = ids, delivered
            if num_systematic < ids.size:
                sys_ids, rows = ids[systematic], delivered[systematic]
            # Ascending ids (every fresh-symbol range) are distinct, so the
            # whole event is one scatter.
            if bool((sys_ids[1:] > sys_ids[:-1]).all()):
                grid = np.ix_(sys_ids, member_rows)
                fresh = rows & ~self.sys_mask[grid]
                self.sys_mask[grid] |= rows
                self.distinct[member_rows] += fresh.sum(axis=0)
            else:
                # Plain mode wraps ids modulo K, so one event can carry the
                # same id twice; fancy scatter would collapse them.
                for sid, row in zip(sys_ids, rows):
                    fresh = row & ~self.sys_mask[sid, member_rows]
                    self.sys_mask[sid, member_rows] |= row
                    self.distinct[member_rows] += fresh
        if num_systematic < ids.size:
            num_users = self.sys_mask.shape[1]
            for sid, row in zip(
                ids[~systematic].tolist(), delivered[~systematic]
            ):
                pos = self.repair_index.get(sid)
                if pos is None:
                    full = np.zeros(num_users, dtype=bool)
                    full[member_rows] = row
                    self.repair_index[sid] = len(self.repair_ids)
                    self.repair_ids.append(sid)
                    self.repair_rows.append(full)
                    self.distinct[member_rows] += row
                else:
                    full = self.repair_rows[pos]
                    fresh = row & ~full[member_rows]
                    full[member_rows] |= row
                    self.distinct[member_rows] += fresh

    def decoded_users(self) -> np.ndarray:
        """Boolean (num_users,) decodability of this unit, cached."""
        _settle([self])
        assert self._decoded is not None
        return self._decoded


def _settle(states: Iterable[_UnitState]) -> None:
    """Fill in ``_decoded`` for every state whose cache is stale.

    A receiver holding all K systematic ids is decoded and one holding
    fewer than K distinct ids is not; neither goes any further.  What is
    left — receivers outside a unit's first multicast group, who hold
    repair ids by design because overlapping groups continue one rateless
    stream — is collected over all ``states``, one request per distinct
    reception pattern, and asked in a single :func:`units_decodable` call.
    """
    requests: List[Tuple[str, int, int, np.ndarray]] = []
    waiting: List[Tuple[np.ndarray, np.ndarray, List[int]]] = []
    for state in states:
        if state._decoded is not None:
            continue
        decoded = state.sys_mask.all(axis=0)
        state._decoded = decoded
        if not state.repair_rows:
            continue
        candidates = np.nonzero(~decoded & (state.distinct >= state.k))[0]
        if not candidates.size:
            continue
        patterns = np.concatenate(
            [
                state.sys_mask[:, candidates],
                np.stack(state.repair_rows)[:, candidates],
            ]
        ).T
        # Receivers with one reception pattern share one request.  A dict
        # over row bytes beats ``np.unique(axis=0)`` at every cohort size.
        request_of: Dict[bytes, int] = {}
        ids = np.concatenate([np.arange(state.k), state.repair_ids])
        asked = []
        for pattern in patterns:
            key = pattern.tobytes()
            if key not in request_of:
                request_of[key] = len(requests)
                requests.append(
                    (state.codec, state.block_id, state.k, ids[pattern])
                )
            asked.append(request_of[key])
        waiting.append((decoded, candidates, asked))
    if requests:
        verdicts = units_decodable(requests)
        for decoded, candidates, asked in waiting:
            decoded[candidates] = verdicts[asked]


class FrameCohort:
    """All receivers' reception state for one frame, as arrays.

    Args:
        users: Receiver ids, defining the row order of every array.
        encoder: The frame's block encoder (structure/symbol geometry).
    """

    def __init__(self, users: Sequence[int], encoder: FrameBlockEncoder) -> None:
        self.users: List[int] = list(users)
        self.index: Dict[int, int] = {u: i for i, u in enumerate(self.users)}
        self.frame_index = encoder.frame_index
        self.structure = encoder.structure
        self.symbol_size = encoder.symbol_size
        self.codec = encoder.codec
        self.k = encoder.symbols_per_unit()
        n = len(self.users)
        self.packets_received = np.zeros(n, dtype=np.int64)
        self.packets_lost = np.zeros(n, dtype=np.int64)
        self.delivered_payload_bytes = np.zeros(n, dtype=np.float64)
        self._units: Dict[CodingUnitId, _UnitState] = {}

    def __len__(self) -> int:
        return len(self.users)

    def member_rows(self, user_ids: Sequence[int]) -> np.ndarray:
        """Array rows of the cohort members among ``user_ids``, in order."""
        rows = [self.index[u] for u in user_ids if u in self.index]
        return np.asarray(rows, dtype=np.intp)

    def record(
        self,
        unit: CodingUnitId,
        symbols: Union[SymbolBatch, Sequence[FountainSymbol]],
        member_rows: np.ndarray,
        delivered: np.ndarray,
    ) -> None:
        """Apply one group's delivery outcome for ``symbols`` of ``unit``.

        ``delivered`` is boolean ``(len(symbols), len(member_rows))``; every
        member either receives or loses each symbol.
        """
        if not len(symbols) or member_rows.size == 0:
            return
        if not isinstance(symbols, SymbolBatch):
            symbols = SymbolBatch.of(symbols)
        received = delivered.sum(axis=0)
        if OBS.mode:
            OBS.count("fountain.symbols_received", int(received.sum()))
        self.packets_received[member_rows] += received
        self.packets_lost[member_rows] += len(symbols) - received
        self.delivered_payload_bytes[member_rows] += (
            received * float(self.symbol_size)
        )
        state = self._units.get(unit)
        if state is None:
            state = _UnitState(
                self.codec, unit.block_id, self.k, len(self.users)
            )
            self._units[unit] = state
        state.record(symbols, member_rows, delivered)

    # --------------------------------------------------------- feedback reads

    def min_distinct(self, unit: CodingUnitId, member_rows: np.ndarray) -> int:
        """Smallest distinct-symbol count among members (0 if unit unseen)."""
        state = self._units.get(unit)
        if state is None or member_rows.size == 0:
            return 0
        return int(state.distinct[member_rows].min())

    def plain_missing(
        self, unit: CodingUnitId, member_rows: np.ndarray
    ) -> List[int]:
        """Sorted segment ids some non-decoded member still lacks."""
        state = self._units.get(unit)
        if state is None:
            return list(range(self.k)) if member_rows.size else []
        decoded = state.decoded_users()
        needy = member_rows[~decoded[member_rows]]
        if needy.size == 0:
            return []
        missing = ~state.sys_mask[:, needy].all(axis=1)
        return [int(i) for i in np.nonzero(missing)[0]]

    # ---------------------------------------------------------- outcome reads

    def decoded_matrices(self) -> List[np.ndarray]:
        """Per-layer boolean (num_users, sublayers) decodability matrices."""
        n = len(self.users)
        matrices = [
            np.zeros((n, count), dtype=bool) for count in SUBLAYER_COUNTS
        ]
        with OBS.span("decode.fountain", frame=self.frame_index):
            _settle(self._units.values())
            for unit, state in self._units.items():
                matrices[unit.layer][:, unit.sublayer] = state.decoded_users()
        if OBS.mode:
            OBS.count(
                "fountain.blocks_decoded",
                sum(int(matrix.sum()) for matrix in matrices),
            )
        return matrices

    def bytes_per_layer_matrix(self) -> np.ndarray:
        """(num_users, NUM_LAYERS) useful payload bytes, FrameStats-exact."""
        totals = np.zeros((len(self.users), NUM_LAYERS))
        for unit, state in self._units.items():
            useful = np.minimum(state.distinct, state.k)
            totals[:, unit.layer] += useful * float(self.symbol_size)
        return totals

    # ------------------------------------------------------- per-user reads

    def receptions(self) -> Dict[int, "CohortUserReception"]:
        """One scalar view per receiver, keyed by user id."""
        return {
            u: CohortUserReception(self, i) for i, u in enumerate(self.users)
        }

    def materialize_decoder(self, row: int) -> FrameBlockDecoder:
        """Build the :class:`FrameBlockDecoder` receiver ``row`` would hold.

        Replays the recorded delivery events for that receiver in order.
        Per-unit decoders are independent, so replaying unit by unit yields
        the same state as the original chronological interleaving.
        """
        decoder = FrameBlockDecoder(
            self.frame_index, self.structure, self.symbol_size, self.codec
        )
        for state in self._units.values():
            for symbols, member_rows, delivered in state.events:
                cols = np.nonzero(member_rows == row)[0]
                if cols.size == 0:
                    continue
                got = delivered[:, int(cols[0])]
                for s_idx in np.nonzero(got)[0]:
                    decoder.ingest(symbols[int(s_idx)])
        return decoder


class CohortUserReception:
    """One receiver's view into a :class:`FrameCohort`.

    The scalar tallies read straight from the cohort arrays and the
    ``decoder`` materializes on first access (the pipeline stages never
    touch it, so sessions never build per-user decoders).
    """

    __slots__ = ("_cohort", "_row", "_decoder")

    def __init__(self, cohort: FrameCohort, row: int) -> None:
        self._cohort = cohort
        self._row = row
        self._decoder: Optional[FrameBlockDecoder] = None

    @property
    def packets_received(self) -> int:
        return int(self._cohort.packets_received[self._row])

    @property
    def packets_lost(self) -> int:
        return int(self._cohort.packets_lost[self._row])

    @property
    def delivered_payload_bytes(self) -> float:
        return float(self._cohort.delivered_payload_bytes[self._row])

    @property
    def decoder(self) -> FrameBlockDecoder:
        if self._decoder is None:
            self._decoder = self._cohort.materialize_decoder(self._row)
        return self._decoder
