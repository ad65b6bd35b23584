"""Synthesis output pinned byte for byte.

Each digest is a sha256 over every packet's ``(timestamp_ns, wire_len,
to_bytes())`` (plus the trace name and length) of the traces that
:func:`repro.scenario.build._synthesize` builds for a grid of specs:
four distributions x flows {1, 7, 400, 10^4} x seeds {0, 7} x uni- and
bidirectional x caps {1, 1500, 4000} x ``packet_size`` {None, 64}, one
10^6-flow ``zipf`` spec at the multitenant suite's 1500-packet cap, and
direct :func:`flow_packets` / :func:`single_flow_trace` calls.

Synthesis may get faster, never different: a changed digest means the
cached traces (``repro.scenario.cache``) no longer match their specs.
The digests were recorded before synthesis became lazy, with numpy
2.4.6 on Python 3.11.  The bytes depend on numpy's Generator streams,
which NEP 19 does not promise to keep across numpy versions: a digest
that changes after a numpy upgrade alone is an RNG-stream change, not a
synthesis regression, but the cached traces are stale all the same.
Re-record them (``PYTHONPATH=src python -m
tests.traffic.test_synthesis_pinned``) only for such a change to the
synthesized bytes, together with a ``CACHE_SCHEMA`` bump.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Iterable, Tuple

import pytest

from repro.packet import Packet
from repro.scenario import Scenario, TraceSpec
from repro.scenario.build import _synthesize
from repro.traffic import FlowSpec, flow_packets, single_flow_trace
from repro.traffic.distributions import TRACE_DISTRIBUTIONS

FLOWS = (1, 7, 400, 10_000)
SEEDS = (0, 7)
CAPS = (1, 1500, 4000)
PACKET_SIZES = (None, 64)

#: The multitenant suite's largest trace: ddos on zipf, 10^6 flows.
MILLION = Scenario.create(
    "ddos", "zipf", "hybrid", 8, num_flows=1_000_000, max_packets=1500, seed=7
).trace


def _digest(named: Iterable[Tuple[str, Iterable[Packet]]]) -> str:
    h = hashlib.sha256()
    for name, packets in named:
        h.update(name.encode() + b"\0")
        count = 0
        for p in packets:
            wire = p.to_bytes()
            h.update(p.timestamp_ns.to_bytes(8, "little"))
            h.update(p.wire_len.to_bytes(4, "little"))
            h.update(len(wire).to_bytes(4, "little") + wire)
            count += 1
        h.update(count.to_bytes(8, "little"))
    return h.hexdigest()


def _grid_specs(workload: str, flows: int, bidirectional: bool):
    for seed, cap, size in itertools.product(SEEDS, CAPS, PACKET_SIZES):
        yield TraceSpec(
            workload, num_flows=flows, max_packets=cap, seed=seed,
            bidirectional=bidirectional, packet_size=size,
        )


def _traces(specs: Iterable[TraceSpec]):
    for spec in specs:
        trace = _synthesize(spec)
        yield trace.name, trace.packets


def _flow_cases():
    for data, gap, payload, bidir in itertools.product(
        (1, 2, 5, 40), (1, 1_000), (0, 512), (False, True)
    ):
        spec = FlowSpec(
            src_ip=0x0A000001, dst_ip=0xAC100001, src_port=40000 + data,
            dst_port=443, data_packets=data, start_ns=12_345, gap_ns=gap,
        )
        yield f"flow-{data}-{gap}-{payload}-{bidir}", flow_packets(
            spec, bidirectional=bidir, payload_size=payload
        )


def _single_flow_cases():
    for n, bidir in itertools.product((1, 3, 2000), (False, True)):
        trace = single_flow_trace(n, bidirectional=bidir)
        yield f"{trace.name}-{n}-{bidir}", trace.packets


def current_digests() -> Dict[str, str]:
    """Every pinned case's digest under the code as it stands."""
    digests = {
        f"{w}/{f}/{'bi' if b else 'uni'}": _digest(_traces(_grid_specs(w, f, b)))
        for w, f, b in itertools.product(
            sorted(TRACE_DISTRIBUTIONS), FLOWS, (False, True)
        )
    }
    digests["zipf/1000000/multitenant"] = _digest(_traces([MILLION]))
    digests["flow_packets"] = _digest(_flow_cases())
    digests["single_flow_trace"] = _digest(_single_flow_cases())
    return digests


PINNED: Dict[str, str] = {
    "caida/1/uni": "09318a839b4ae4c6ff2430fba7137727112ef34a6754fee14aa29f77b682b2d0",
    "caida/1/bi": "d93888c32105ebced015ac23d2ddd3e0e043a6b29bf8a69e294b3f25ec7cd910",
    "caida/7/uni": "66080d5e0bbb2e77f704ef878592c122711fe936958a7808b635da1bca0430cd",
    "caida/7/bi": "e177d000a85efee0dbdca671b91211d19774519b95aff1d92e71dc22001069b8",
    "caida/400/uni": "8006d5e74ddc104687334ef28674854b97af37a781f1979ed6548937a39a3d4a",
    "caida/400/bi": "7f539a0fc77e310c38333d76941416f5bf5fade8782fb7cd3b6ff5f75c41d4a2",
    "caida/10000/uni": "2d3027ecb5874736fd463f2e98225a392bd1cbc73b596b0eedc180d5770be636",
    "caida/10000/bi": "61e9fc5d4c36743b4c0dbc601030af46f6be88c1fecb06bc5782a00ff4d178df",
    "hyperscalar_dc/1/uni": "65d38d27ba7d813a3663f784dc77196c098a58bd5956095a834193946b484ff4",
    "hyperscalar_dc/1/bi": "06fd3d4784dd46e7eba3d65b120e578e78ac4d17b6cbac47b610f0c6779feeff",
    "hyperscalar_dc/7/uni": "25546bab66f9a5c06a7f824b10e26bd730ed0faea7589b4a30a222c62149a250",
    "hyperscalar_dc/7/bi": "d42b03312b9038ac56d169497c6b3e17b845f061640d732ff22f2db9eff10ec3",
    "hyperscalar_dc/400/uni": "388fb98a73a5839cb535c9b5f670c7d0db00a28d69c461f343906487a40a5ea1",
    "hyperscalar_dc/400/bi": "b74cb147967a1d515c0075809a75286c5b4ae878e9fb57184f81ec1d5ac0eec2",
    "hyperscalar_dc/10000/uni": "ac6d5d0b5380689dc73c78b034e320d40ca7b032cfbf3e9b39d9731e7e8954a2",
    "hyperscalar_dc/10000/bi": "edacd452d98c6649caddf8e3b833ee2a81bea1b60aa284043c9603d36ef5a421",
    "univ_dc/1/uni": "903ee109630f1386d1581b369d5098a02bff7c36f60011968ab8b576774ff823",
    "univ_dc/1/bi": "902d745a78e80f0f57c7b45c77b4884f00748a592c20663e380a5b532ae2fff0",
    "univ_dc/7/uni": "a236fb96a010b00290971219e1d11d1089a8276d9b9baed1f8fce253e901f63a",
    "univ_dc/7/bi": "ebe5db30f5b8e3cfcb5c21c15bf9e05f180df11c8f7591decda96fa0c52e76db",
    "univ_dc/400/uni": "0321a307247f3f96994c71b5ccd71f6914b1cd22a770732cdd932e6bf244adc8",
    "univ_dc/400/bi": "0746c8d8e5a261c1a6924e5a0ccf882cda1ed7487b3cb01b8e0d86c544026a4f",
    "univ_dc/10000/uni": "3192cb3c1cda32ab722369dc199c70bfe317c5daaa31b13ee2e25d40e0beb810",
    "univ_dc/10000/bi": "5955a04ae7ebc7dc28fcf42d6bcbe132dea16c8e06710a6014b5def71444450b",
    "zipf/1/uni": "dc74ad6c0412f988514cb5ebd8f9b1b8b95c3524706a3daedcbe99752928f9de",
    "zipf/1/bi": "1687720fa7f8b09a334a0f18347467a65b077e1834f4b9e20cf86264d8245c29",
    "zipf/7/uni": "bdb5bba150454996f03264b4dedb6856221a1d25cbf3a8612122d221e447bda7",
    "zipf/7/bi": "3a6e35f8dea91266e677fbe1333c8bdd7f30ab0738ab533ed6f74ee99da17c95",
    "zipf/400/uni": "acdbcde95819fe45bf96767ebf98c1ad35f3a147ea9e996a69f1e3f87c53893b",
    "zipf/400/bi": "ed99c3f71900dc5a56a048ca33028361b7c8d0207a24be57180862698f78a0b7",
    "zipf/10000/uni": "b42a29e927112abfd63522d6a655a56cc17cbc2d1fa44ce353dd7b1df2d108fc",
    "zipf/10000/bi": "80c9fcd5a7fd844fa66ba95bfb2b149a37341835fb2d5a811c47eb597f26ccac",
    "zipf/1000000/multitenant": "76710222474a26d4f7568b57d012b349215b225ed57c6925e895a71972173a80",
    "flow_packets": "61ae91d3106463bee306550ea4b9e71a3690854381d8282acedaaa4288c455d2",
    "single_flow_trace": "25ff80dfdde43e4ab0bd3570882db99faba9877047dd12bcaa9db6112d7dca74",
}


@pytest.mark.parametrize(
    "workload,flows,bidirectional",
    list(itertools.product(sorted(TRACE_DISTRIBUTIONS), FLOWS, (False, True))),
)
def test_grid_traces_pinned(workload, flows, bidirectional):
    key = f"{workload}/{flows}/{'bi' if bidirectional else 'uni'}"
    got = _digest(_traces(_grid_specs(workload, flows, bidirectional)))
    assert got == PINNED[key], key


def test_million_flow_trace_pinned():
    assert MILLION.num_flows == 1_000_000 and MILLION.max_packets == 1500
    assert _digest(_traces([MILLION])) == PINNED["zipf/1000000/multitenant"]


def test_flow_packets_pinned():
    assert _digest(_flow_cases()) == PINNED["flow_packets"]


def test_single_flow_trace_pinned():
    assert _digest(_single_flow_cases()) == PINNED["single_flow_trace"]


if __name__ == "__main__":
    print("PINNED: Dict[str, str] = {")
    for key, value in current_digests().items():
        print(f'    "{key}": "{value}",')
    print("}")
