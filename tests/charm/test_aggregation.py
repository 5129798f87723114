"""Message aggregation buffers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.charm import Chare, MachineConfig, RuntimeSimulator
from repro.charm.aggregation import MessageAggregator, RecordBlock
from repro.charm.tram import TramChannel


def _block(dst_pes, nbytes=16, first_id=0):
    """Records ``first_id, first_id + 1, ...`` (the payloads) for the
    PEs ``dst_pes``; each targets element ``3 * id`` of ``arr``."""
    dst = np.asarray(dst_pes, dtype=np.int64)
    ids = np.arange(first_id, first_id + dst.size, dtype=np.int64)
    return RecordBlock("arr", "m", 3 * ids, ids, dst, nbytes)


def _ids(blocks):
    return [int(i) for b in blocks for i in b.payload]


class TestBuffering:
    def test_flush_on_threshold(self):
        agg = MessageAggregator("t", buffer_bytes=64)
        assert agg.append(0, _block([1], nbytes=32)) == []
        [(dst, blocks, nbytes)] = agg.append(0, _block([1], nbytes=32))
        assert (dst, len(_ids(blocks)), nbytes) == (1, 2, 64)

    def test_zero_buffer_disables_aggregation(self):
        agg = MessageAggregator("t", buffer_bytes=0)
        [(dst, blocks, nbytes)] = agg.append(0, _block([1]))
        assert (dst, _ids(blocks), nbytes) == (1, [0], 16)
        assert agg.aggregation_ratio == 1.0

    def test_buffers_keyed_by_pair(self):
        agg = MessageAggregator("t", buffer_bytes=64)
        agg.append(0, _block([1], nbytes=40))
        agg.append(0, _block([2], nbytes=40))  # different destination: no flush
        assert agg.pending_pes() == {0}
        flushed = agg.flush_pe(0)
        assert [dst for dst, _, _ in flushed] == [1, 2]

    def test_flush_source_drains_only_that_source(self):
        agg = MessageAggregator("t", buffer_bytes=1024)
        agg.append(0, _block([1]))
        agg.append(5, _block([1]))
        agg.flush_pe(0)
        assert agg.pending_pes() == {5}

    def test_aggregation_ratio(self):
        agg = MessageAggregator("t", buffer_bytes=1024)
        agg.append(0, _block([1] * 10, nbytes=16))
        agg.flush_pe(0)
        assert agg.aggregation_ratio == 10.0

    def test_block_splits_at_each_filling_record(self):
        """Three 16-byte records fill a 48-byte buffer: the block is cut
        where each destination's third record arrives, and the batches
        leave in that order."""
        agg = MessageAggregator("t", buffer_bytes=48)
        out = agg.append(0, _block([1, 2, 1, 1, 2, 2, 1]))
        assert [(dst, _ids(b), n) for dst, b, n in out] == [
            (1, [0, 2, 3], 48),
            (2, [1, 4, 5], 48),
        ]
        [(dst, blocks, nbytes)] = agg.flush_pe(0)
        assert (dst, _ids(blocks), nbytes) == (1, [6], 16)
        assert (agg.records_in, agg.batches_out) == (7, 3)

    def test_columns_travel_together(self):
        agg = MessageAggregator("t", buffer_bytes=32)
        for _, blocks, _ in agg.append(0, _block([3, 1, 3, 1, 1], first_id=10)):
            for b in blocks:
                assert np.array_equal(b.index, 3 * b.payload)
                assert np.all(b.dst_pe == b.dst_pe[0])

    def test_negative_buffer_rejected(self):
        with pytest.raises(ValueError):
            MessageAggregator("t", buffer_bytes=-1)

    def test_sizeless_record_rejected(self):
        with pytest.raises(ValueError, match="positive modelled size"):
            MessageAggregator("t").append(0, _block([1], nbytes=0))


def _one_at_a_time(buffers, pe, keys, ids, size, limit):
    """Reference channel fed record by record: each record is buffered
    under ``(pe, key)`` and the record that brings its buffer to
    ``limit`` bytes flushes it (``limit == 0``: every record)."""
    out = []
    for key, rid in zip(keys, ids):
        records, nbytes = buffers.pop((pe, key), ([], 0))
        records, nbytes = records + [rid], nbytes + size
        if nbytes >= limit:
            out.append((key, records, nbytes))
        else:
            buffers[(pe, key)] = (records, nbytes)
    return out


def _reference_flush(buffers, pe):
    return [(k[1], *buffers.pop(k)) for k in sorted(k for k in buffers if k[0] == pe)]


def _flat(batches):
    return [(int(dst), _ids(blocks), nbytes) for dst, blocks, nbytes in batches]


@given(
    tram=st.booleans(),
    limit=st.integers(0, 200),
    prefill=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 8)), max_size=30),
    prefill_bytes=st.integers(1, 40),
    dsts=st.lists(st.integers(0, 8), max_size=200),
    nbytes=st.integers(1, 40),
)
def test_block_append_equals_record_by_record(tram, limit, prefill, prefill_bytes, dsts, nbytes):
    """One block append yields the batches — same destinations, same
    records in the same order, same bytes — that appending its records
    one at a time would, also on buffers already holding records of
    another size and for any threshold, including 0 and thresholds that
    are not a multiple of the record size."""
    chan = TramChannel("t", 9, limit) if tram else MessageAggregator("t", limit)
    header = 4 if tram else 0
    ref: dict = {}
    expected_batches = 0
    next_id = 0
    appends = [(pe, [d for p, d in prefill if p == pe], prefill_bytes) for pe in (0, 1)]
    appends.append((0, dsts, nbytes))
    for pe, pe_dsts, size in appends:
        block = _block(pe_dsts, size, first_id=next_id)
        keys = chan.next_hop(pe, block.dst_pe) if tram else block.dst_pe
        want = _one_at_a_time(
            ref, pe, keys.tolist(), block.payload.tolist(), size + header, limit
        )
        assert _flat(chan.append(pe, block)) == want
        expected_batches += len(want)
        next_id += len(pe_dsts)
    want = _reference_flush(ref, 0)
    assert _flat(chan.flush_pe(0)) == want
    assert chan.pending_pes() == ({1} if ref else set())
    assert chan.records_in == next_id
    assert chan.batches_out == expected_batches + len(want)


class Sender(Chare):
    def go(self, n):
        self.charge(1e-6)
        ids = np.arange(n)
        self.send_via("ch", "sink", ids % 2, "recv", ids, 16)
        self.runtime.flush_channel("ch", self.pe)


class Sink(Chare):
    def __init__(self):
        self.got = []

    def recv(self, v):
        self.charge(1e-7 * v.size)
        self.got.extend(v.tolist())


class TestChannelIntegration:
    def _run(self, buffer_bytes, n=40):
        rt = RuntimeSimulator(
            MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)
        )
        rt.ensure_pe_agents()
        rt.create_channel("ch", buffer_bytes)
        rt.create_array("send", lambda i: Sender(), np.zeros(1, dtype=np.int64))
        sink = rt.create_array(
            "sink", lambda i: Sink(), np.array([0, rt.machine.n_pes - 1])
        )
        rt.inject("send", 0, "go", n)
        t = rt.run()
        got = sorted(sink.element(0).got + sink.element(1).got)
        return t, got, rt

    def test_all_records_delivered(self):
        _, got, _ = self._run(buffer_bytes=256)
        assert got == list(range(40))

    def test_delivery_identical_with_and_without_aggregation(self):
        _, got_agg, _ = self._run(buffer_bytes=512)
        _, got_none, _ = self._run(buffer_bytes=0)
        assert got_agg == got_none

    def test_aggregation_reduces_wire_messages(self):
        _, _, rt_agg = self._run(buffer_bytes=4096)
        _, _, rt_none = self._run(buffer_bytes=0)
        wires_agg = sum(rt_agg.msg_counter.values())
        wires_none = sum(rt_none.msg_counter.values())
        assert wires_agg < wires_none

    def test_aggregation_reduces_remote_virtual_time(self):
        t_agg, _, _ = self._run(buffer_bytes=4096, n=200)
        t_none, _, _ = self._run(buffer_bytes=0, n=200)
        assert t_agg < t_none

    def test_one_entry_call_per_target_chare(self):
        """A delivered block is dispatched as one call per target chare,
        with that chare's records in send order."""
        calls = []

        class Recorder(Chare):
            def recv(self, v):
                calls.append((self.index, v.tolist()))

        class Source(Chare):
            def go(self, _):
                self.send_via("ch", "rec", [0, 0, 1, 1, 1, 0], "recv", [10, 11, 12, 13, 14, 15], 16)
                self.runtime.flush_channel("ch", self.pe)

        rt = RuntimeSimulator(MachineConfig(n_nodes=1, cores_per_node=2, smp=False))
        rt.ensure_pe_agents()
        rt.create_channel("ch", 1024)
        rt.create_array("src", lambda i: Source(), np.zeros(1, dtype=np.int64))
        rt.create_array("rec", lambda i: Recorder(), np.ones(2, dtype=np.int64))
        rt.inject("src", 0, "go")
        rt.run()
        assert calls == [(0, [10, 11, 15]), (1, [12, 13, 14])]

    def test_send_via_rejects_mismatched_columns(self):
        rt = RuntimeSimulator(MachineConfig(n_nodes=1, cores_per_node=2, smp=False))
        rt.create_channel("ch", 1024)
        rt.create_array("rec", lambda i: Sink(), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="one payload per index"):
            rt._send_aggregated(0, "ch", "rec", [0, 1], "recv", [5], 16)
