"""Rateless (Raptor-style) source coding (paper Sec 2.6, Fig 2).

The paper ports the Rust RaptorQ codec to C++ and applies it per sublayer so
that any fresh coded symbol adds information, retransmission needs no
per-packet feedback, and users in overlapping multicast groups receive no
redundant bytes.  We implement a systematic random-linear fountain code over
GF(256) with the same operational properties: receiving ``K + h`` symbols
fails to decode with probability about ``256^-(h+1)`` — the exact overhead
figure the paper quotes for RaptorQ.
"""

from .gf256 import gf2_matmul, gf_inverse, gf_matmul, gf_multiply, gf_solve
from .inactivation import InactivationStats, solve_inactivation
from .precode import Precode, PrecodeDecoder, PrecodeEncoder
from .raptor import (
    FountainDecoder,
    FountainEncoder,
    FountainSymbol,
    SymbolBatch,
)
from .block import (
    DEFAULT_SYMBOL_SIZE,
    DENSE_CODEC,
    FOUNTAIN_CODECS,
    PRECODE_CODEC,
    CodingUnitId,
    FrameBlockEncoder,
    FrameBlockDecoder,
    units_decodable,
)

__all__ = [
    "gf_multiply",
    "gf_inverse",
    "gf_matmul",
    "gf2_matmul",
    "gf_solve",
    "FountainSymbol",
    "SymbolBatch",
    "FountainEncoder",
    "FountainDecoder",
    "Precode",
    "PrecodeEncoder",
    "PrecodeDecoder",
    "InactivationStats",
    "solve_inactivation",
    "DEFAULT_SYMBOL_SIZE",
    "DENSE_CODEC",
    "PRECODE_CODEC",
    "FOUNTAIN_CODECS",
    "CodingUnitId",
    "FrameBlockEncoder",
    "FrameBlockDecoder",
    "units_decodable",
]
