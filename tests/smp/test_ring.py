"""SPSC ring grid and aggregating mailbox unit tests.

Everything runs on plain in-process int64 arrays — the ring code is
memory-layout-agnostic, so wraparound, atomicity and backpressure are
exercised here without forking a single process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.smp import Mailbox, RingFull, RingGrid


def make_grid(n=2, capacity=8) -> RingGrid:
    return RingGrid(np.zeros(RingGrid.shape(n, capacity), dtype=np.int64), capacity)


class TestRingGrid:
    def test_fifo_roundtrip(self):
        grid = make_grid()
        assert grid.try_push(0, 1, [1, 2, 3])
        assert grid.try_push(0, 1, [4])
        assert grid.pop_all(1, 0).tolist() == [1, 2, 3, 4]
        assert grid.pop_all(1, 0).size == 0

    def test_wraparound_preserves_order(self):
        # Capacity 8; push/pop 100 words in ragged bursts so the
        # monotonic counters lap the buffer many times.
        grid = make_grid(capacity=8)
        sent, got = [], []
        value = 0
        rng = np.random.default_rng(0)
        while len(got) < 100:
            k = int(rng.integers(1, 6))
            words = list(range(value, value + k))
            if grid.try_push(0, 1, words):
                sent += words
                value += k
            got += grid.pop_all(1, 0).tolist()
        assert got == sent[: len(got)] == list(range(len(got)))

    def test_full_burst_rejected_atomically(self):
        grid = make_grid(capacity=8)
        assert grid.try_push(0, 1, [0] * 6)
        # 3 words > 2 free: rejected whole, nothing partially written.
        assert not grid.try_push(0, 1, [7, 8, 9])
        assert grid.pending(1, 0) == 6
        assert grid.pop_all(1, 0).tolist() == [0] * 6
        # After the drain the burst fits.
        assert grid.try_push(0, 1, [7, 8, 9])
        assert grid.pop_all(1, 0).tolist() == [7, 8, 9]

    def test_burst_larger_than_capacity_raises(self):
        grid = make_grid(capacity=8)
        with pytest.raises(ValueError, match="exceeds ring capacity"):
            grid.try_push(0, 1, list(range(9)))

    def test_free_and_pending_agree(self):
        grid = make_grid(capacity=8)
        grid.try_push(0, 1, [1, 2, 3])
        assert grid.free(0, 1) == 5
        assert grid.pending(1, 0) == 3

    def test_rings_are_independent(self):
        grid = make_grid(n=3)
        grid.try_push(0, 1, [10])
        grid.try_push(2, 1, [20])
        grid.try_push(0, 2, [30])
        assert dict(grid.drain_into(1)) .keys() == {0, 2}
        assert grid.pop_all(2, 0).tolist() == [30]

    def test_block_shape_validated(self):
        with pytest.raises(ValueError, match="does not match"):
            RingGrid(np.zeros((2, 2, 4), dtype=np.int64), capacity=8)


class TestMailbox:
    def test_batch_flush_threshold(self):
        grid = make_grid()
        a, b = Mailbox(grid, 0, burst_bytes=32), Mailbox(grid, 1, burst_bytes=32)
        a.send(1, [1, 2])
        assert b.receive() == []          # staged, below threshold
        assert a.staged_words == 2
        a.send(1, [3, 4])                 # hits the batch -> flushed
        assert [(s, w.tolist()) for s, w in b.receive()] == [(0, [1, 2, 3, 4])]
        assert a.staged_words == 0

    def test_records_never_torn(self):
        # record=3 events through a capacity-9 ring: every burst the
        # consumer sees is a whole number of records.
        grid = make_grid(capacity=9)
        a = Mailbox(grid, 0, burst_bytes=48, record=3,
                    on_backpressure=lambda: drain())
        b = Mailbox(grid, 1, burst_bytes=48, record=3)
        got = []

        def drain():
            for _, words in b.receive():
                assert words.size % 3 == 0
                got.extend(map(tuple, words.reshape(-1, 3)))

        records = [(i, 100 + i, 200 + i) for i in range(40)]
        for r in records:
            a.send(1, list(r))
        a.flush()
        drain()
        assert got == records

    def test_partial_record_rejected(self):
        a = Mailbox(make_grid(), 0, burst_bytes=48, record=3)
        with pytest.raises(ValueError, match="not a multiple of record"):
            a.send(1, [1, 2])

    def test_batch_floored_to_record_multiple(self):
        a = Mailbox(make_grid(capacity=32), 0, burst_bytes=64, record=3)
        assert a.batch == 6

    def test_backpressure_drains_and_counts(self):
        grid = make_grid(capacity=4)
        b = Mailbox(grid, 1, burst_bytes=32)
        delivered = []
        a = Mailbox(
            grid, 0, burst_bytes=32,
            on_backpressure=lambda: delivered.extend(
                w for _, ws in b.receive() for w in ws.tolist()),
        )
        for i in range(0, 40, 2):
            a.send(1, [i, i + 1])
        a.flush()
        delivered.extend(w for _, ws in b.receive() for w in ws.tolist())
        assert delivered == list(range(40))
        assert a.backpressure_events > 0
        assert a.words_sent == 40

    def test_ring_full_without_handler_raises(self):
        grid = make_grid(capacity=4)
        a = Mailbox(grid, 0, burst_bytes=32)
        a.send(1, [1, 2, 3, 4])           # fills the ring
        with pytest.raises(RingFull, match="0->1 full"):
            a.send(1, [5, 6, 7, 8])

    def test_on_sent_counts_at_publication(self):
        grid = make_grid()
        pushed = []
        a = Mailbox(grid, 0, burst_bytes=32, on_sent=pushed.append)
        a.send(1, [1, 2])
        assert pushed == []               # staged only
        a.flush()
        assert sum(pushed) == 2
