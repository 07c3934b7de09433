"""Jigsaw-style layered video codec (paper Sec 2.2).

The codec partitions each frame into non-overlapping 8x8 pixel blocks and
builds a 4-level block-average pyramid:

* **Layer 0** (base): the average pixel value of every 8x8 block, which for a
  4K frame yields roughly a 512x270 thumbnail.  Chroma planes are carried in
  the base layer as 4x4 block averages of the half-resolution U/V planes
  (spatially aligned with the 8x8 luma blocks).
* **Layer 1**: for each of the four 4x4 sub-blocks of an 8x8 block, the
  difference between the 4x4 average and the (quantised) 8x8 average.
* **Layer 2**: differences of 2x2 averages from their parent 4x4 averages.
* **Layer 3**: differences of individual pixels from their parent 2x2
  averages.

Each layer is organised into **sublayers** (Sec 2.2): the k-th sublayer of a
layer collects the k-th difference value of every block across the frame, so
every sublayer is a frame-wide plane of ``(H/8) x (W/8)`` values.  Sublayers
are independent additive corrections — a decoder can apply any subset, which
is what makes partial reception useful and lets the fountain code treat a
sublayer as its coding unit (Sec 2.6).

Differences are quantised to ``int8`` against the already-quantised coarser
level, so full reception reconstructs the source to within rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import CodecError, VideoFormatError
from ..obs import OBS
from ..types import NUM_LAYERS
from .frame import VideoFrame

#: Block size of the base layer.
BASE_BLOCK = 8

#: Number of sublayers per layer: layer 0 carries (Y means, U means, V means);
#: layers 1-3 carry the 4 / 16 / 64 per-block difference positions.
SUBLAYER_COUNTS: Tuple[int, int, int, int] = (3, 4, 16, 64)

#: Per-8x8-block grid side of each refinement layer (2 -> 4x4 sub-blocks,
#: 4 -> 2x2 sub-blocks, 8 -> pixels).
_GRID_SIDE = {1: 2, 2: 4, 3: 8}


def _block_mean(plane: np.ndarray, block: int) -> np.ndarray:
    """Mean over non-overlapping ``block x block`` tiles of a 2-D plane."""
    h, w = plane.shape
    return plane.reshape(h // block, block, w // block, block).mean(axis=(1, 3))


def _upsample2(plane: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x upsampling."""
    return np.repeat(np.repeat(plane, 2, axis=0), 2, axis=1)


def _split_sublayers(delta: np.ndarray, grid_side: int) -> np.ndarray:
    """Rearrange a frame-wide delta plane into per-position sublayers.

    ``delta`` has shape ``(h8 * grid_side, w8 * grid_side)``; the result has
    shape ``(grid_side**2, h8, w8)`` where index ``k = row * grid_side + col``
    selects the k-th intra-block position across all blocks.
    """
    gh = delta.shape[0] // grid_side
    gw = delta.shape[1] // grid_side
    cube = delta.reshape(gh, grid_side, gw, grid_side)
    return cube.transpose(1, 3, 0, 2).reshape(grid_side * grid_side, gh, gw)


def _merge_sublayers(sublayers: np.ndarray, grid_side: int) -> np.ndarray:
    """Inverse of :func:`_split_sublayers`."""
    _, gh, gw = sublayers.shape
    cube = sublayers.reshape(grid_side, grid_side, gh, gw)
    return cube.transpose(2, 0, 3, 1).reshape(gh * grid_side, gw * grid_side)


@dataclass(frozen=True)
class LayerStructure:
    """Static description of the layered representation for a frame size.

    The scheduler, fountain coder and transport all consult this object for
    per-layer and per-sublayer byte counts; it contains no pixel data.
    """

    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height % BASE_BLOCK or self.width % BASE_BLOCK:
            raise VideoFormatError(
                f"frame dimensions must be multiples of {BASE_BLOCK}, got "
                f"{self.height}x{self.width}"
            )

    @property
    def base_shape(self) -> Tuple[int, int]:
        """Shape of one sublayer plane: ``(H/8, W/8)``."""
        return (self.height // BASE_BLOCK, self.width // BASE_BLOCK)

    @property
    def sublayer_nbytes(self) -> int:
        """Bytes per sublayer (one byte per 8x8 block)."""
        h8, w8 = self.base_shape
        return h8 * w8

    @property
    def sublayer_counts(self) -> Tuple[int, int, int, int]:
        """Number of sublayers in each of the four layers."""
        return SUBLAYER_COUNTS

    def layer_nbytes(self, layer: int) -> int:
        """Total bytes of one layer."""
        return SUBLAYER_COUNTS[layer] * self.sublayer_nbytes

    @property
    def total_nbytes(self) -> int:
        """Bytes of the complete layered frame (all 87 sublayers)."""
        return sum(self.layer_nbytes(j) for j in range(NUM_LAYERS))

    def layer_sizes(self) -> np.ndarray:
        """Per-layer byte counts as a float array of length 4."""
        return np.array([self.layer_nbytes(j) for j in range(NUM_LAYERS)], dtype=float)


@dataclass
class LayeredFrame:
    """Encoded representation of one frame.

    Attributes:
        structure: The :class:`LayerStructure` this frame conforms to.
        base_y: Layer-0 luma means, ``uint8 (h8, w8)``.
        base_u: Layer-0 chroma-U means, ``uint8 (h8, w8)``.
        base_v: Layer-0 chroma-V means, ``uint8 (h8, w8)``.
        deltas: Refinement layers 1-3: ``int8`` arrays of shapes
            ``(4, h8, w8)``, ``(16, h8, w8)`` and ``(64, h8, w8)``.
    """

    structure: LayerStructure
    base_y: np.ndarray
    base_u: np.ndarray
    base_v: np.ndarray
    deltas: Tuple[np.ndarray, np.ndarray, np.ndarray]

    def sublayer_payload(self, layer: int, index: int) -> bytes:
        """Serialise one sublayer to bytes (the fountain-code source block)."""
        self._check_sublayer(layer, index)
        if layer == 0:
            plane = (self.base_y, self.base_u, self.base_v)[index]
            return plane.tobytes()
        return self.deltas[layer - 1][index].tobytes()

    def set_sublayer_payload(self, layer: int, index: int, payload: bytes) -> None:
        """Deserialise one sublayer from bytes (inverse of payload export)."""
        self._check_sublayer(layer, index)
        expected = self.structure.sublayer_nbytes
        if len(payload) != expected:
            raise CodecError(
                f"sublayer ({layer},{index}) payload must be {expected} bytes, "
                f"got {len(payload)}"
            )
        shape = self.structure.base_shape
        if layer == 0:
            plane = np.frombuffer(payload, dtype=np.uint8).reshape(shape)
            if index == 0:
                self.base_y = plane.copy()
            elif index == 1:
                self.base_u = plane.copy()
            else:
                self.base_v = plane.copy()
        else:
            self.deltas[layer - 1][index] = np.frombuffer(
                payload, dtype=np.int8
            ).reshape(shape)

    def _check_sublayer(self, layer: int, index: int) -> None:
        if not 0 <= layer < NUM_LAYERS:
            raise CodecError(f"layer {layer} out of range [0, {NUM_LAYERS})")
        if not 0 <= index < SUBLAYER_COUNTS[layer]:
            raise CodecError(
                f"sublayer index {index} out of range for layer {layer} "
                f"(has {SUBLAYER_COUNTS[layer]} sublayers)"
            )

    @classmethod
    def empty(cls, structure: LayerStructure) -> "LayeredFrame":
        """Return an all-zero layered frame (used to assemble receptions)."""
        h8, w8 = structure.base_shape
        return cls(
            structure=structure,
            base_y=np.full((h8, w8), 128, dtype=np.uint8),
            base_u=np.full((h8, w8), 128, dtype=np.uint8),
            base_v=np.full((h8, w8), 128, dtype=np.uint8),
            deltas=(
                np.zeros((4, h8, w8), dtype=np.int8),
                np.zeros((16, h8, w8), dtype=np.int8),
                np.zeros((64, h8, w8), dtype=np.int8),
            ),
        )


class JigsawCodec:
    """Encoder/decoder for the layered representation.

    The decoder accepts an arbitrary subset of sublayers (as boolean masks) so
    callers can reconstruct whatever the transport delivered before the frame
    deadline.
    """

    def __init__(self, height: int, width: int):
        self.structure = LayerStructure(height=height, width=width)

    # ------------------------------------------------------------------ encode

    def encode(self, frame: VideoFrame) -> LayeredFrame:
        """Encode a frame into the 4-layer representation."""
        if (frame.height, frame.width) != (self.structure.height, self.structure.width):
            raise CodecError(
                f"frame is {frame.height}x{frame.width}, codec expects "
                f"{self.structure.height}x{self.structure.width}"
            )
        with OBS.span("encode.jigsaw", bytes=self.structure.total_nbytes):
            return self._encode(frame)

    def _encode(self, frame: VideoFrame) -> LayeredFrame:
        y = frame.y.astype(np.float32)
        m8q = np.round(_block_mean(y, 8)).astype(np.float32)

        d1, m4q = self._quantised_delta(_block_mean(y, 4), m8q)
        d2, m2q = self._quantised_delta(_block_mean(y, 2), m4q)
        d3, _ = self._quantised_delta(y, m2q)

        base_u = np.round(_block_mean(frame.u.astype(np.float32), 4))
        base_v = np.round(_block_mean(frame.v.astype(np.float32), 4))

        return LayeredFrame(
            structure=self.structure,
            base_y=m8q.astype(np.uint8),
            base_u=np.clip(base_u, 0, 255).astype(np.uint8),
            base_v=np.clip(base_v, 0, 255).astype(np.uint8),
            deltas=(
                _split_sublayers(d1, 2).astype(np.int8),
                _split_sublayers(d2, 4).astype(np.int8),
                _split_sublayers(d3, 8).astype(np.int8),
            ),
        )

    @staticmethod
    def _quantised_delta(
        fine: np.ndarray, coarse_q: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Quantise ``fine - upsample(coarse)`` to int8 and return both the
        quantised delta plane and the reconstructed fine plane the next level
        should difference against (so quantisation error does not accumulate
        invisibly)."""
        predicted = _upsample2(coarse_q)
        delta = np.clip(np.round(fine - predicted), -128, 127)
        return delta, predicted + delta

    # ------------------------------------------------------------------ decode

    def decode(
        self, layered: LayeredFrame, received: Sequence[np.ndarray]
    ) -> VideoFrame:
        """Reconstruct a frame from the sublayers marked received.

        Args:
            layered: The encoded frame.
            received: Four boolean arrays; ``received[j][k]`` is True when
                sublayer ``k`` of layer ``j`` was decoded by the transport.

        Returns:
            The reconstructed :class:`VideoFrame`.  Missing base-layer
            sublayers fall back to neutral grey.
        """
        masks = self._validate_masks(received)
        half = (self.structure.height // 2, self.structure.width // 2)
        u_hat = self._decode_chroma(layered.base_u, bool(masks[0][1]), half)
        v_hat = self._decode_chroma(layered.base_v, bool(masks[0][2]), half)
        return VideoFrame(self.decode_luma(layered, masks), u_hat, v_hat)

    def decode_luma(
        self, layered: LayeredFrame, received: Sequence[np.ndarray]
    ) -> np.ndarray:
        """The Y plane :meth:`decode` reconstructs, ``uint8 (H, W)``.

        Reads neither chroma sublayer, so masks that differ only in
        ``received[0][1:]`` decode to the same plane.
        """
        masks = self._validate_masks(received)
        # The pyramid is summed in sublayer layout: after layer j, ``level``
        # is (g, g, h8, w8) with g = _GRID_SIDE[j], one plane per intra-block
        # position, and each finer layer adds its sublayers to the coarser
        # plane covering them (a broadcast over the 2x2 children) -- every
        # operation runs over whole contiguous (h8, w8) planes.  Per pixel
        # it is the float32 sum base + d1 + d2 + d3 in that order, the
        # nearest-neighbour upsample-and-add of the pixel-layout pyramid.
        h8, w8 = layered.base_y.shape
        level = np.where(masks[0][0], layered.base_y, 128).astype(np.float32)
        for layer in (1, 2, 3):
            subs = layered.deltas[layer - 1].astype(np.float32)
            subs *= masks[layer].astype(np.float32)[:, None, None]
            g = _GRID_SIDE[layer]
            coarse = level.reshape(g // 2, 1, g // 2, 1, h8, w8)
            fine = subs.reshape(g // 2, 2, g // 2, 2, h8, w8)
            level = (coarse + fine).reshape(g * g, h8, w8)
        np.round(level, out=level)
        np.clip(level, 0, 255, out=level)
        return _merge_sublayers(level.astype(np.uint8), BASE_BLOCK)

    def decode_fractions(
        self, layered: LayeredFrame, fractions: Sequence[float]
    ) -> VideoFrame:
        """Decode using the first ``ceil(f * count)`` sublayers of each layer.

        This is the access pattern of the quality-model dataset generator
        (Sec 2.3): sublayers are delivered in index order within a layer.
        """
        masks = self.masks_for_fractions(fractions)
        return self.decode(layered, masks)

    def masks_for_fractions(self, fractions: Sequence[float]) -> List[np.ndarray]:
        """Convert per-layer reception fractions into sublayer masks."""
        if len(fractions) != NUM_LAYERS:
            raise CodecError(f"expected {NUM_LAYERS} fractions, got {len(fractions)}")
        masks = []
        for count, frac in zip(SUBLAYER_COUNTS, fractions):
            if not 0.0 <= frac <= 1.0 + 1e-9:
                raise CodecError(f"fraction {frac} outside [0, 1]")
            n = int(np.ceil(min(frac, 1.0) * count - 1e-9))
            mask = np.zeros(count, dtype=bool)
            mask[:n] = True
            masks.append(mask)
        return masks

    @staticmethod
    def _decode_chroma(
        means: np.ndarray, present: bool, half_shape: Tuple[int, int]
    ) -> np.ndarray:
        if not present:
            return np.full(half_shape, 128, dtype=np.uint8)
        up = _upsample2(_upsample2(means.astype(np.float32)))
        return np.clip(np.round(up), 0, 255).astype(np.uint8)

    def _validate_masks(self, received: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(received) != NUM_LAYERS:
            raise CodecError(f"expected {NUM_LAYERS} masks, got {len(received)}")
        masks = []
        for layer, (count, mask) in enumerate(zip(SUBLAYER_COUNTS, received)):
            arr = np.asarray(mask, dtype=bool)
            if arr.shape != (count,):
                raise CodecError(
                    f"mask for layer {layer} must have shape ({count},), "
                    f"got {arr.shape}"
                )
            masks.append(arr)
        return masks
