"""Tests for the sublayer <-> fountain-block mapping."""

import numpy as np
import pytest

from repro.errors import FountainCodeError
from repro.fountain.block import (
    DEFAULT_SYMBOL_SIZE,
    DENSE_CODEC,
    PRECODE_CODEC,
    TARGET_SYMBOLS_PER_UNIT,
    FOUNTAIN_CODECS,
    CodingUnitId,
    FrameBlockDecoder,
    FrameBlockEncoder,
    all_unit_ids,
    symbol_size_for,
)
from repro.fountain.raptor import FountainSymbol, SymbolBatch
from repro.video.jigsaw import LayerStructure
from repro.video.metrics import ssim


class TestCodingUnitId:
    def test_block_id_roundtrip(self):
        for unit in all_unit_ids(0) + all_unit_ids(7):
            assert CodingUnitId.from_block_id(unit.block_id) == unit

    def test_87_units_per_frame(self):
        assert len(all_unit_ids(0)) == 87

    def test_block_ids_unique_across_frames(self):
        ids_f0 = {u.block_id for u in all_unit_ids(0)}
        ids_f1 = {u.block_id for u in all_unit_ids(1)}
        assert not ids_f0 & ids_f1

    def test_bad_layer_rejected(self):
        with pytest.raises(FountainCodeError):
            CodingUnitId(0, 4, 0)
        with pytest.raises(FountainCodeError):
            CodingUnitId(0, 1, 4)

    def test_sublayer_base_derived_from_counts(self):
        from dataclasses import fields

        from repro.video.jigsaw import SUBLAYER_COUNTS

        expected = []
        total = 0
        for count in SUBLAYER_COUNTS:
            expected.append(total)
            total += count
        assert CodingUnitId._SUBLAYER_BASE == tuple(expected) == (0, 3, 7, 23)
        # A ClassVar, not a per-instance dataclass field.
        assert "_SUBLAYER_BASE" not in {f.name for f in fields(CodingUnitId)}


class TestSymbolSizing:
    def test_small_resolution_keeps_20_symbols(self):
        structure = LayerStructure(144, 256)
        size = symbol_size_for(structure)
        k = -(-structure.sublayer_nbytes // size)
        assert k == TARGET_SYMBOLS_PER_UNIT

    def test_4k_capped_at_6000(self):
        structure = LayerStructure(2160, 3840)
        assert symbol_size_for(structure) == DEFAULT_SYMBOL_SIZE


class TestFrameBlockRoundtrip:
    def test_full_delivery_reconstructs(self, codec, hr_probe):
        encoder = FrameBlockEncoder(0, hr_probe.layered)
        decoder = FrameBlockDecoder(0, codec.structure, encoder.symbol_size)
        k = encoder.symbols_per_unit()
        for unit in encoder.units:
            for symbol in encoder.next_symbols(unit, k):
                decoder.ingest(symbol)
        layered, masks = decoder.assemble()
        assert all(mask.all() for mask in masks)
        reference = codec.decode_fractions(hr_probe.layered, [1, 1, 1, 1])
        rebuilt = codec.decode(layered, masks)
        np.testing.assert_array_equal(reference.y, rebuilt.y)

    def test_partial_delivery_decodes_partial(self, codec, hr_probe, hr_video):
        encoder = FrameBlockEncoder(0, hr_probe.layered)
        decoder = FrameBlockDecoder(0, codec.structure, encoder.symbol_size)
        k = encoder.symbols_per_unit()
        for unit in encoder.units:
            if unit.layer <= 1:
                for symbol in encoder.next_symbols(unit, k):
                    decoder.ingest(symbol)
        layered, masks = decoder.assemble()
        assert masks[0].all() and masks[1].all()
        assert not masks[2].any()
        rebuilt = codec.decode(layered, masks)
        quality = ssim(hr_video.frame(0), rebuilt)
        assert quality == pytest.approx(hr_probe.cumulative_ssim[1], abs=0.01)

    def test_lossy_delivery_with_makeup_symbols(self, codec, hr_probe, rng):
        encoder = FrameBlockEncoder(0, hr_probe.layered)
        decoder = FrameBlockDecoder(0, codec.structure, encoder.symbol_size)
        k = encoder.symbols_per_unit()
        unit = encoder.units[0]
        for symbol in encoder.next_symbols(unit, k):
            if rng.random() > 0.3:
                decoder.ingest(symbol)
        missing = k - decoder.unit_decoder(unit).received_count
        if missing > 0:
            for symbol in encoder.next_symbols(unit, missing + 1):
                decoder.ingest(symbol)
        assert decoder.unit_decoder(unit).is_decoded

    def test_stream_continues_across_calls(self, hr_probe):
        encoder = FrameBlockEncoder(0, hr_probe.layered)
        unit = encoder.units[0]
        first = encoder.next_symbols(unit, 5)
        second = encoder.next_symbols(unit, 5)
        ids = np.concatenate([first.ids, second.ids])
        assert ids.tolist() == list(range(10))
        assert encoder.emitted_count(unit) == 10

    def test_symbol_at_is_stable(self, hr_probe):
        encoder = FrameBlockEncoder(0, hr_probe.layered)
        unit = encoder.units[3]
        assert encoder.symbol_at(unit, 2).payload == encoder.symbol_at(unit, 2).payload

    def test_wrong_frame_symbol_rejected(self, codec, hr_probe):
        encoder = FrameBlockEncoder(1, hr_probe.layered)
        decoder = FrameBlockDecoder(0, codec.structure, encoder.symbol_size)
        symbol = encoder.next_symbols(encoder.units[0], 1)[0]
        with pytest.raises(FountainCodeError):
            decoder.ingest(symbol)

    def test_bytes_received_accounting(self, codec, hr_probe):
        encoder = FrameBlockEncoder(0, hr_probe.layered)
        decoder = FrameBlockDecoder(0, codec.structure, encoder.symbol_size)
        unit = encoder.units[0]  # layer 0
        for symbol in encoder.next_symbols(unit, 5):
            decoder.ingest(symbol)
        per_layer = decoder.bytes_received_per_layer()
        assert per_layer[0] == 5 * encoder.symbol_size
        assert per_layer[1:].sum() == 0


class TestCodecSelection:
    def test_default_codec_is_dense(self, codec, hr_probe):
        encoder = FrameBlockEncoder(0, hr_probe.layered)
        decoder = FrameBlockDecoder(0, codec.structure, encoder.symbol_size)
        assert encoder.codec == DENSE_CODEC
        assert decoder.codec == DENSE_CODEC
        unit = encoder.units[0]
        assert isinstance(
            encoder._encoders[unit], __import__(
                "repro.fountain.raptor", fromlist=["FountainEncoder"]
            ).FountainEncoder
        )

    def test_unknown_codec_rejected(self, codec, hr_probe):
        with pytest.raises(FountainCodeError):
            FrameBlockEncoder(0, hr_probe.layered, codec="turbo")
        with pytest.raises(FountainCodeError):
            FrameBlockDecoder(0, codec.structure, codec="turbo")

    def test_precode_full_delivery_reconstructs(self, codec, hr_probe):
        encoder = FrameBlockEncoder(0, hr_probe.layered, codec=PRECODE_CODEC)
        decoder = FrameBlockDecoder(
            0, codec.structure, encoder.symbol_size, codec=PRECODE_CODEC
        )
        assert encoder.codec == decoder.codec == PRECODE_CODEC
        k = encoder.symbols_per_unit()
        for unit in encoder.units:
            for symbol in encoder.next_symbols(unit, k):
                decoder.ingest(symbol)
        layered, masks = decoder.assemble()
        assert all(mask.all() for mask in masks)
        reference = codec.decode_fractions(hr_probe.layered, [1, 1, 1, 1])
        rebuilt = codec.decode(layered, masks)
        np.testing.assert_array_equal(reference.y, rebuilt.y)

    def test_precode_repair_only_delivery(self, codec, hr_probe):
        """Drop every systematic symbol; repair symbols still reconstruct."""
        encoder = FrameBlockEncoder(0, hr_probe.layered, codec=PRECODE_CODEC)
        decoder = FrameBlockDecoder(
            0, codec.structure, encoder.symbol_size, codec=PRECODE_CODEC
        )
        k = encoder.symbols_per_unit()
        unit = encoder.units[0]
        encoder.next_symbols(unit, k)  # discarded: simulate total loss
        for symbol in encoder.next_symbols(unit, k + 3):
            decoder.ingest(symbol)
        assert decoder.unit_decoder(unit).is_decoded
        payload = decoder.unit_decoder(unit).decode()
        assert payload == hr_probe.layered.sublayer_payload(
            unit.layer, unit.sublayer
        )

    def test_precode_systematic_symbols_match_dense_wire(self, hr_probe):
        dense = FrameBlockEncoder(0, hr_probe.layered, codec=DENSE_CODEC)
        pre = FrameBlockEncoder(0, hr_probe.layered, codec=PRECODE_CODEC)
        unit = dense.units[0]
        k = dense.symbols_per_unit()
        for d_sym, p_sym in zip(
            dense.next_symbols(unit, k), pre.next_symbols(unit, k)
        ):
            assert d_sym.payload == p_sym.payload
            assert d_sym.symbol_id == p_sym.symbol_id
            assert d_sym.block_id == p_sym.block_id


@pytest.mark.parametrize("fountain_codec", FOUNTAIN_CODECS)
class TestSymbolBatch:
    """What the encoder hands a transmission pass: ids and payloads as
    arrays, per-symbol objects only on the way into a decoder."""

    def test_a_pass_of_requests_round_trips(self, codec, hr_probe, fountain_codec):
        """One ``next_batches`` call for the whole frame, a unit asked for
        twice, a quarter of each batch lost: ``assemble()`` returns the frame."""
        encoder = FrameBlockEncoder(0, hr_probe.layered, codec=fountain_codec)
        decoder = FrameBlockDecoder(
            0, codec.structure, encoder.symbol_size, codec=fountain_codec
        )
        k = encoder.symbols_per_unit()
        units = encoder.units
        batches = encoder.next_batches(
            [(unit, k - 5) for unit in units] + [(unit, 20) for unit in units]
        )
        assert [len(batch) for batch in batches] == [k - 5] * 87 + [20] * 87
        for unit, early, late in zip(units, batches, batches[87:]):
            assert early.block_id == late.block_id == unit.block_id
            assert early.ids.tolist() == list(range(k - 5))
            assert late.ids.tolist() == list(range(k - 5, k + 15))  # straddles K
            assert encoder.emitted_count(unit) == k + 15
            for batch in (early, late):
                kept = batch[np.arange(len(batch)) % 4 != 0]  # index-array form
                for symbol in kept:
                    decoder.ingest(symbol)
        layered, masks = decoder.assemble()
        assert all(mask.all() for mask in masks)
        for unit in units:
            assert layered.sublayer_payload(unit.layer, unit.sublayer) == (
                hr_probe.layered.sublayer_payload(unit.layer, unit.sublayer)
            )

    def test_slices_are_views_and_items_are_symbols(self, hr_probe, fountain_codec):
        encoder = FrameBlockEncoder(0, hr_probe.layered, codec=fountain_codec)
        k = encoder.symbols_per_unit()
        unit = encoder.units[4]
        batch = encoder.next_symbols(unit, k + 4)
        assert isinstance(batch, SymbolBatch) and len(batch) == k + 4
        assert batch.payloads.shape == (k + 4, encoder.symbol_size)
        head = batch[:3]
        assert isinstance(head, SymbolBatch) and len(head) == 3
        assert np.shares_memory(head.payloads, batch.payloads)
        assert not batch[:0] and len(batch[k + 2:]) == 2
        symbols = list(batch)
        assert symbols[k + 1] == batch[k + 1] == encoder.symbol_at(unit, k + 1)
        assert all(isinstance(symbol, FountainSymbol) for symbol in symbols)
        assert [s.symbol_id for s in symbols] == batch.ids.tolist()
        # Systematic payloads are the source bytes themselves.
        source = hr_probe.layered.sublayer_payload(unit.layer, unit.sublayer)
        assert b"".join(s.payload for s in symbols[:k])[: len(source)] == source
        rebuilt = SymbolBatch.of(symbols)
        assert rebuilt.ids.tolist() == batch.ids.tolist()
        np.testing.assert_array_equal(rebuilt.payloads, batch.payloads)

    def test_all_systematic_batch_copies_nothing(self, hr_probe, fountain_codec):
        encoder = FrameBlockEncoder(0, hr_probe.layered, codec=fountain_codec)
        unit = encoder.units[0]
        batch = encoder.next_symbols(unit, encoder.symbols_per_unit())
        assert np.shares_memory(batch.payloads, encoder._encoders[unit]._source)

    def test_plain_mode_wrapped_ids_round_trip(self, codec, hr_probe, fountain_codec):
        """Without source coding a pass addresses segments modulo K, so a
        batch longer than K repeats ids; the decoder still assembles."""
        encoder = FrameBlockEncoder(0, hr_probe.layered, codec=fountain_codec)
        decoder = FrameBlockDecoder(
            0, codec.structure, encoder.symbol_size, codec=fountain_codec
        )
        k = encoder.symbols_per_unit()
        for unit in encoder.units:
            batch = encoder.symbols_at(unit, np.arange(k + 6) % k)
            assert batch.ids.tolist() == [i % k for i in range(k + 6)]
            assert batch[k + 2] == batch[2]
            for symbol in batch[3:]:  # ids 0-2 arrive only on the wrap
                decoder.ingest(symbol)
        layered, masks = decoder.assemble()
        assert all(mask.all() for mask in masks)
        unit = encoder.units[-1]
        assert layered.sublayer_payload(unit.layer, unit.sublayer) == (
            hr_probe.layered.sublayer_payload(unit.layer, unit.sublayer)
        )
        with pytest.raises(FountainCodeError):
            SymbolBatch.of([])
