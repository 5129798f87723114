"""Application-level message aggregation (paper §IV-C).

PersonManagers send a large volume of small visit messages to
LocationManagers.  Without aggregation every visit pays the full
per-message overhead (envelope bytes + α + CPU overheads).  The paper's
built-in aggregation buffers records per destination and flushes when a
buffer fills or at end of phase — the same idea Charm++ later shipped
as TRAM.

Records travel as columnar :class:`RecordBlock`\\ s: a sender hands a
channel all of one entry's records at once (``Chare.send_via`` with an
array of target indices and an array of payloads), and a flushed batch
is a list of block slices.  :class:`MessageAggregator` implements per
``(source PE, destination PE)`` buffers.  It splits a block at exactly
the records where appending them one at a time would have crossed the
byte threshold, and returns the flushed batches in the order those
records come in the block, so the wire traffic (message count, sizes,
order) is that of a channel fed record by record.  Flushed batches
travel as one wire message and are dispatched by the destination PE's
agent as one entry call per target chare of each block, charging a
small dispatch cost per record — so aggregation trades per-message α
for per-record dispatch, exactly the crossover the buffer-size
ablation bench explores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RecordBlock", "MessageAggregator"]


@dataclass(frozen=True)
class RecordBlock:
    """Columnar application records riding an aggregation channel.

    Record ``i`` asks for ``array[index[i]].method`` to be called with
    ``payload[i]``; the receiving PE calls the entry once per distinct
    ``index`` with that element's payloads, in block order.  ``dst_pe``
    is each record's final PE, and every record has the same modelled
    wire size ``payload_bytes``.
    """

    array: str
    method: str
    index: np.ndarray
    payload: np.ndarray
    dst_pe: np.ndarray
    payload_bytes: int

    def __len__(self) -> int:
        return int(self.index.size)

    def take(self, sel) -> "RecordBlock":
        """The records ``sel`` (indices, slice or mask), in that order."""
        return RecordBlock(
            self.array, self.method, self.index[sel], self.payload[sel], self.dst_pe[sel],
            self.payload_bytes,
        )


#: A flushed batch: ``(destination PE, record blocks, modelled bytes)``.
Batch = tuple[int, list[RecordBlock], int]


@dataclass
class _Buffer:
    blocks: list[RecordBlock] = field(default_factory=list)
    bytes: int = 0


class _BlockBuffers:
    """Per-``(PE, key)`` record buffers that flush on a byte threshold;
    the bookkeeping shared by the direct and the TRAM channel.

    ``buffer_bytes == 0`` disables buffering: every record is flushed
    as its own batch.
    """

    #: modelled bytes each record carries on top of its payload
    header_bytes = 0

    def __init__(self, name: str, buffer_bytes: int):
        if buffer_bytes < 0:
            raise ValueError("buffer_bytes must be >= 0")
        self.name = name
        self.buffer_bytes = buffer_bytes
        self._buffers: dict[tuple[int, int], _Buffer] = {}
        # Telemetry for the ablation benches.
        self.records_in = 0
        self.batches_out = 0

    def _buffer(self, pe: int, keys: np.ndarray, block: RecordBlock) -> list[Batch]:
        """Buffer ``block``'s records under ``(pe, keys[i])``; return the
        batches that flush, in the order of the records that fill them."""
        if not len(block):
            return []
        size = block.payload_bytes + self.header_bytes
        if size <= 0:
            raise ValueError("records need a positive modelled size")
        uniq, group = np.unique(keys, return_inverse=True)
        key_of = uniq.tolist()
        # Block rows grouped by key, in block order within each key.
        order = np.argsort(group, kind="stable")
        counts = np.bincount(group, minlength=uniq.size)
        starts = np.cumsum(counts) - counts
        held = [self._buffers.get((pe, k)) for k in key_of]
        held_bytes = np.array([b.bytes if b else 0 for b in held], dtype=np.int64)
        # Fed one record at a time, a buffer flushes on the record that
        # brings it to ``buffer_bytes``: after ``first`` of this block's
        # records (it may already hold some), then every ``every``.
        every = max(1, -(-self.buffer_bytes // size))
        first = np.maximum(1, -((held_bytes - self.buffer_bytes) // size))
        n_flush = np.where(counts >= first, (counts - first) // every + 1, 0)
        group_of = np.repeat(np.arange(uniq.size), n_flush)
        nth = np.arange(group_of.size) - np.repeat(np.cumsum(n_flush) - n_flush, n_flush)
        last = first[group_of] - 1 + nth * every  # rank of the filling record
        lo = np.where(nth == 0, 0, last - every + 1)
        at = starts[group_of]
        # Python lists: the loop below runs once per flushed batch.
        begin, end = (at + lo).tolist(), (at + last + 1).tolist()
        groups, is_first = group_of.tolist(), (nth == 0).tolist()
        out: list[Batch] = []
        for f in order[at + last].argsort().tolist():
            g = groups[f]
            blocks = [block.take(order[begin[f] : end[f]])]
            nbytes = (end[f] - begin[f]) * size
            if is_first[f] and held[g] is not None:
                blocks = held[g].blocks + blocks
                nbytes += held[g].bytes
                del self._buffers[(pe, key_of[g])]
            out.append((key_of[g], blocks, nbytes))
        self.batches_out += len(out)
        # Records after each key's last flush stay buffered.
        kept = np.where(n_flush > 0, first + (n_flush - 1) * every, 0)
        for g in np.flatnonzero(kept < counts).tolist():
            buf = self._buffers.setdefault((pe, key_of[g]), _Buffer())
            buf.blocks.append(block.take(order[starts[g] + kept[g] : starts[g] + counts[g]]))
            buf.bytes += int(counts[g] - kept[g]) * size
        return out

    def flush_pe(self, pe: int) -> list[Batch]:
        """Drain all buffers of one PE (end-of-phase flush), in key order."""
        out = []
        for key in sorted(k for k in self._buffers if k[0] == pe):
            buf = self._buffers.pop(key)
            out.append((key[1], buf.blocks, buf.bytes))
        self.batches_out += len(out)
        return out

    def pending_pes(self) -> set[int]:
        """PEs that still buffer records."""
        return {k[0] for k in self._buffers}

    @property
    def aggregation_ratio(self) -> float:
        """Mean records per wire message so far (1.0 = no aggregation win)."""
        return self.records_in / self.batches_out if self.batches_out else 0.0


class MessageAggregator(_BlockBuffers):
    """Per-(src PE, dst PE) aggregation buffers for one channel.

    Parameters
    ----------
    name:
        Channel name (e.g. ``"visits"``).
    buffer_bytes:
        Flush threshold.  ``0`` disables aggregation — every record is
        flushed immediately as its own message (the paper's no-opt
        baseline behaviour, still paying full envelopes).
    """

    #: the PE-agent entry that dispatches this channel's batches
    entry = "recv_batch"

    def __init__(self, name: str, buffer_bytes: int = 64 * 1024):
        super().__init__(name, buffer_bytes)

    def append(self, src_pe: int, block: RecordBlock) -> list[Batch]:
        """Buffer a block sent from ``src_pe``; return the batches it flushes."""
        self.records_in += len(block)
        return self._buffer(src_pe, block.dst_pe, block)
