"""TRAM-like topological routing and aggregation.

The paper's footnote 1: "the CHARM++ team is currently working on TRAM
(Topological Routing and Aggregation Module), which implements an
application agnostic message aggregation in the runtime — however, this
module was not available prior to the generation of most of the results
presented here, and we are not yet able to determine to what degree it
can replace our application-aware strategy."

We implement the TRAM idea so that comparison can be made (see
``bench_sec4_ablations.test_ablation_tram_vs_direct``): PEs are
arranged in a virtual 2-D grid; a record for PE ``(r2, c2)`` from
``(r1, c1)`` routes along the row to ``(r1, c2)`` and then down the
column.  Each PE keeps aggregation buffers only toward its ~2·√P grid
neighbours instead of toward all P peers, so buffers fill — and
amortise per-message overheads — at much smaller per-destination
traffic, at the price of an extra hop and per-record forwarding work.

The channel carries the same columnar
:class:`~repro.charm.aggregation.RecordBlock`\\ s as the direct one,
keyed by each record's next hop, with 4 bytes of routing header per
record.  An intermediate PE delivers the records addressed to itself
as one block and re-appends the rest as one block toward their second
hop (counted in :attr:`TramChannel.forwards`, not ``records_in``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.charm.aggregation import Batch, RecordBlock, _BlockBuffers

__all__ = ["TramChannel"]


class TramChannel(_BlockBuffers):
    """2-D mesh routing with per-neighbour aggregation buffers.

    Parameters
    ----------
    name:
        Channel name.
    n_pes:
        Grid size; the virtual mesh is ``rows × cols`` with
        ``cols = floor(sqrt(P))`` and ``rows = ceil(P / cols)`` (the
        last row may be ragged).  Row-first routing with the ragged
        fallback in :meth:`next_hop` still delivers every record in at
        most two mesh hops.
    buffer_bytes:
        Flush threshold per (PE, neighbour) buffer; 0 disables
        buffering (records forward immediately, still via the mesh).
    """

    #: 4 bytes of routing header (the final PE) on top of each payload
    header_bytes = 4
    #: the PE-agent entry that delivers or forwards this channel's batches
    entry = "tram_batch"

    def __init__(self, name: str, n_pes: int, buffer_bytes: int = 16 * 1024):
        if n_pes < 1:
            raise ValueError("need at least one PE")
        super().__init__(name, buffer_bytes)
        self.n_pes = n_pes
        self.cols = max(1, int(math.isqrt(n_pes)))
        self.forwards = 0

    # -- mesh geometry ---------------------------------------------------
    def next_hop(self, at_pe: int, dst_pe):
        """Row-first dimension-ordered routing (``dst_pe`` may be an array)."""
        dst_col = np.asarray(dst_pe) % self.cols
        row_peer = at_pe - at_pe % self.cols + dst_col
        # Same column, or a ragged last row without that row-peer: go
        # down the column directly.
        return np.where((dst_col != at_pe % self.cols) & (row_peer < self.n_pes), row_peer, dst_pe)

    # -- buffering ---------------------------------------------------------
    def append(self, at_pe: int, block: RecordBlock, count_in: bool = True) -> list[Batch]:
        """Buffer a block at ``at_pe`` toward each record's next hop;
        return the ``(hop, blocks, bytes)`` batches it flushes.
        ``count_in=False`` marks records forwarded by an intermediate PE."""
        if count_in:
            self.records_in += len(block)
        else:
            self.forwards += len(block)
        return self._buffer(at_pe, self.next_hop(at_pe, block.dst_pe), block)
