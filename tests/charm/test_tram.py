"""TRAM mesh routing: geometry, delivery, aggregation economics."""

import numpy as np
import pytest

from repro.charm import Chare, MachineConfig, RuntimeSimulator
from repro.charm.aggregation import RecordBlock
from repro.charm.tram import TramChannel


def _block(dst_pes, nbytes=16):
    """One record per final PE in ``dst_pes``, each for element = its PE."""
    dst = np.asarray(dst_pes, dtype=np.int64)
    return RecordBlock("arr", "m", dst, dst, dst, nbytes)


class TestGeometry:
    def test_row_first_routing(self):
        chan = TramChannel("t", n_pes=16)  # 4x4
        # (0,0) -> (3,3): first hop fixes the column: (0,3) = pe 3.
        assert chan.next_hop(0, 15) == 3
        # From (0,3), go down the column directly to the target.
        assert chan.next_hop(3, 15) == 15

    def test_same_column_goes_direct(self):
        chan = TramChannel("t", n_pes=16)
        assert chan.next_hop(1, 13) == 13  # both column 1

    def test_two_hops_max(self):
        chan = TramChannel("t", n_pes=25)
        for src in range(25):
            for dst in range(25):
                hop1 = chan.next_hop(src, dst)
                hop2 = chan.next_hop(hop1, dst)
                assert hop2 == dst, f"{src}->{dst} needs >2 hops"

    def test_ragged_grid_still_routes(self):
        chan = TramChannel("t", n_pes=7)  # 2x... ragged
        for src in range(7):
            for dst in range(7):
                hop = src
                for _ in range(4):
                    if hop == dst:
                        break
                    hop = chan.next_hop(hop, dst)
                assert hop == dst

    @pytest.mark.parametrize("n_pes", [5, 7, 12])
    def test_ragged_grids_deliver_in_two_mesh_hops(self, n_pes):
        """The docstring's claim, on grids whose last row is ragged:
        every (src, dst) pair resolves in at most two next_hop steps."""
        chan = TramChannel("t", n_pes=n_pes)
        for src in range(n_pes):
            for dst in range(n_pes):
                hop1 = chan.next_hop(src, dst)
                assert 0 <= hop1 < n_pes, f"{src}->{dst} routed off-grid"
                hops = 0 if src == dst else 1
                if hop1 != dst:
                    hop2 = chan.next_hop(hop1, dst)
                    hops = 2
                    assert hop2 == dst, f"{src}->{dst} needs >2 hops"
                assert hops <= 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TramChannel("t", 0)
        with pytest.raises(ValueError):
            TramChannel("t", 4, buffer_bytes=-1)


class TestBuffering:
    def test_flush_on_threshold(self):
        chan = TramChannel("t", n_pes=16, buffer_bytes=48)
        assert chan.append(0, _block([15], nbytes=16)) == []
        [(hop, blocks, nbytes)] = chan.append(0, _block([15], nbytes=32))
        assert hop == 3
        assert sum(len(b) for b in blocks) == 2
        assert nbytes == (16 + 4) + (32 + 4)  # payloads + routing headers

    def test_reaggregation_shares_buffers(self):
        """Records for different PEs in the same column share one buffer
        — the whole point of topological aggregation."""
        chan = TramChannel("t", n_pes=16, buffer_bytes=10**6)
        chan.append(0, _block([7]))   # (1,3) — column 3
        chan.append(0, _block([15]))  # (3,3) — column 3
        flushed = chan.flush_pe(0)
        assert len(flushed) == 1  # one buffer toward (0,3)
        assert sum(len(b) for b in flushed[0][1]) == 2

    def test_forwarded_records_count_as_forwards(self):
        chan = TramChannel("t", n_pes=16, buffer_bytes=10**6)
        chan.append(0, _block([7, 15]))
        chan.append(3, _block([7, 15]), count_in=False)
        assert (chan.records_in, chan.forwards) == (2, 2)


class Sender(Chare):
    def go(self, n):
        self.charge(1e-6)
        n_sinks = self.runtime.arrays["sink"].n_elements
        ids = np.arange(n)
        self.send_via("tram", "sink", ids % n_sinks, "recv", ids, 16)
        self.runtime.flush_channel("tram", self.pe)


class Sink(Chare):
    def __init__(self):
        self.got = []

    def recv(self, v):
        self.charge(1e-7 * v.size)
        self.got.extend(v.tolist())


class TestRuntimeIntegration:
    def _run(self, buffer_bytes, n=60):
        rt = RuntimeSimulator(
            MachineConfig(n_nodes=4, cores_per_node=4, smp=True, processes_per_node=1)
        )
        rt.create_tram_channel("tram", buffer_bytes)
        rt.create_array("send", lambda i: Sender(), np.zeros(1, dtype=np.int64))
        sinks = rt.create_array(
            "sink", lambda i: Sink(), np.arange(6) % rt.machine.n_pes
        )
        rt.inject("send", 0, "go", n)
        t = rt.run()
        got = sorted(v for i in range(6) for v in sinks.element(i).got)
        return t, got, rt

    def test_all_records_delivered(self):
        _, got, _ = self._run(buffer_bytes=4096)
        assert got == list(range(60))

    def test_unbuffered_mesh_also_delivers(self):
        _, got, _ = self._run(buffer_bytes=0)
        assert got == list(range(60))

    def test_mesh_uses_fewer_source_buffers_than_direct(self):
        """TRAM's structural property: the source touches at most
        ~2*sqrt(P) distinct next hops."""
        chan = TramChannel("t", n_pes=144, buffer_bytes=10**9)
        chan.append(0, _block(np.arange(144)))
        assert len(chan.pending_pes()) == 1
        hops = {k for k in chan._buffers}
        assert len(hops) <= 2 * 12

    def test_cost_accounting_charges_forwarding(self):
        t_tram, _, rt = self._run(buffer_bytes=4096)
        assert rt.aggregators["tram"].forwards > 0
        assert t_tram > 0
