"""Synthesis output pinned byte for byte.

Each digest is a sha256 over every packet's ``(timestamp_ns, wire_len,
to_bytes())`` (plus the trace name and length) of the traces that
:func:`repro.scenario.build._synthesize` builds for a grid of specs:
four distributions x flows {1, 7, 400, 10^4} x seeds {0, 7} x uni- and
bidirectional x caps {1, 1500, 4000} x ``packet_size`` {None, 64}, one
10^6-flow ``zipf`` spec at the multitenant suite's 1500-packet cap, and
direct :func:`flow_packets` / :func:`single_flow_trace` calls.  A second
grid pins the perf suites' sizes {192, 256} (the ``.../sized`` keys,
single-flow specs included); its digests were recorded while sized
traces were still built at 512 bytes and then truncated.

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
from typing import Dict, Iterable, Optional, Tuple

import pytest

from repro.packet import Packet
from repro.scenario import Scenario, TraceSpec
from repro.scenario.build import _synthesize
from repro.scenario.spec import SINGLE_FLOW_WORKLOAD
from repro.traffic import FlowSpec, flow_packets, single_flow_trace
from repro.traffic.distributions import TRACE_DISTRIBUTIONS

FLOWS = (1, 7, 400, 10_000)
SEEDS = (0, 7)
CAPS = (1, 1500, 4000)
PACKET_SIZES = (None, 64)
#: The perf suites' packet sizes, pinned in a grid of their own.
SUITE_PACKET_SIZES = (192, 256)

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


def _grid_specs(workload: str, flows: int, bidirectional: bool,
                sizes: Tuple[Optional[int], ...] = PACKET_SIZES):
    for seed, cap, size in itertools.product(SEEDS, CAPS, sizes):
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


def _single_flow_specs():
    for cap, bidir, size in itertools.product(
        (2, 4000), (False, True), (None,) + SUITE_PACKET_SIZES
    ):
        yield TraceSpec(SINGLE_FLOW_WORKLOAD, max_packets=cap,
                        bidirectional=bidir, packet_size=size)


GRID_CASES = list(itertools.product(sorted(TRACE_DISTRIBUTIONS), FLOWS, (False, True)))


def current_digests() -> Dict[str, str]:
    """Every pinned case's digest under the code as it stands."""
    digests = {
        f"{w}/{f}/{'bi' if b else 'uni'}": _digest(_traces(_grid_specs(w, f, b)))
        for w, f, b in GRID_CASES
    }
    digests.update({
        f"{w}/{f}/{'bi' if b else 'uni'}/sized": _digest(
            _traces(_grid_specs(w, f, b, SUITE_PACKET_SIZES)))
        for w, f, b in GRID_CASES
    })
    digests[f"{SINGLE_FLOW_WORKLOAD}/sized"] = _digest(_traces(_single_flow_specs()))
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
    "caida/1/uni/sized": "b7a084d270196880634ac5d613ade9844553677389e0f61506265b33cbf0faf6",
    "caida/1/bi/sized": "ffe0d05f7b4c510d8eaffd6c920817b176e13e0040bcd4115c61db3456f6a0df",
    "caida/7/uni/sized": "74206ea38ed73a5afda4a2a596bd18e885e426f41c3759c1ee2e6b3eddea7ed5",
    "caida/7/bi/sized": "9c0847c11eda59e10127ed813802bb4b087ab233e33a80f2260e05f1a3fe5a0c",
    "caida/400/uni/sized": "437522c5399aafc2ce52385d574d6b4a955d82f4eceed4a4b08aed25347bbae8",
    "caida/400/bi/sized": "ffbe86edfecb3c5c36316da758d6211da308fb40dc9801f1e91c422fdb2f7b0b",
    "caida/10000/uni/sized": "2eed821d83f902b8f5dce1992bd074447c08dc1393e6d3833bd3ef57d7a94b3a",
    "caida/10000/bi/sized": "e8e17336f377679a84157c37b5891d721d04473979ca23e8e84297c254caae7d",
    "hyperscalar_dc/1/uni/sized": "153c4a086d60ec470bb0524ae7c0817f885a3762c9574c3bda306e46cdf118c0",
    "hyperscalar_dc/1/bi/sized": "55916fb6755ae2f04b0b3af8b3f3cabab4aa3ec2c4b15fce5ee5ad9293f53315",
    "hyperscalar_dc/7/uni/sized": "bfee6ff7d7340e0aa6706a637a95676a849abc0bcf6467ae90d019e305ca93ff",
    "hyperscalar_dc/7/bi/sized": "894d8d07e7112090197dfa0b7f670e7e8d8a4763b159aaabfb9943d2fff441a2",
    "hyperscalar_dc/400/uni/sized": "ba44d3cd25be644cff7e09a9cbd0ffaabb7672cfaf4773b7cb9280ecfb2a9222",
    "hyperscalar_dc/400/bi/sized": "aac89474f37b3d21b92e1da19154005e1c4278f7b0137b267a0cbeb6b0c4b8ff",
    "hyperscalar_dc/10000/uni/sized": "1aeb1d2b08cece76833d172e367a535d26d000637f755defacd6a2eb171248a8",
    "hyperscalar_dc/10000/bi/sized": "93df821de201bdd2c16c760bf07d9917366de7545b75308421ed9d9a9629cea5",
    "univ_dc/1/uni/sized": "635e92713f8586b75c8308b614ab61087314fab6cc0e9719baa3ffc358ef7561",
    "univ_dc/1/bi/sized": "74bed0dacd3964b3a131c8b7f6cf37e941cdcc68872a198397d391518da7e357",
    "univ_dc/7/uni/sized": "c6c68876acff3aff9f8bcfca0ca5280ad8f60930ac1259e54f923fa5618bf209",
    "univ_dc/7/bi/sized": "e77df8048760e22a6ce84872adb069242e1ec022340059faaf843bd81d693cd8",
    "univ_dc/400/uni/sized": "5e03b6d769a962814fa444fffefd37ab3cfed51b0f6d72186b25f2557e6fa9b8",
    "univ_dc/400/bi/sized": "67c24d1800cebc720ee1ce69f3030b3c1417c0a020b3751c51c10461bb071fb6",
    "univ_dc/10000/uni/sized": "f681c8f8f800ed6cc20afd65bffdc30990e850e9a685da42525bef200df96070",
    "univ_dc/10000/bi/sized": "7c0e251d57beff6b6ebc97bc34c1f99debc9ca9be1cdbf07584d790f7191f3ef",
    "zipf/1/uni/sized": "af5c8ad66fd5379e7b615e0fca004d1bf4881b40fa1f0621340ac98a8379174c",
    "zipf/1/bi/sized": "fe1bc84493362be2c23dda38a862dd44672bbde3b1ddb77c37e895c1fbd743dc",
    "zipf/7/uni/sized": "c3aa7f04017e93133c962ff055fdbe82e399877794bf6ad9a86e3c91c4c140fd",
    "zipf/7/bi/sized": "538b631ac157a55db591255f11fc050fda9c70aabd103a6740860242ea2c533d",
    "zipf/400/uni/sized": "47a2f6acdcb01b8ce1b5c67a3d71c1b0dccbc8b422ded039e5ec5e34758c4d63",
    "zipf/400/bi/sized": "39b92a59cce7d4ae5e47c778619670ac9390efd16bbfceff408325fbf59496fa",
    "zipf/10000/uni/sized": "bc0f7055b2e9366dcfc533def8e1ffaed954964235d32a19d8902c712a6befe8",
    "zipf/10000/bi/sized": "c4d2217f5c35ac1812e984d14ade3335061c6808edbc4cc5e123bcc8ed07becf",
    "single-flow/sized": "5ad58dade55f1416394fef67a3fead5813d929b3513444729f678f72df72dfcb",
}


@pytest.mark.parametrize("workload,flows,bidirectional", GRID_CASES)
def test_grid_traces_pinned(workload, flows, bidirectional):
    key = f"{workload}/{flows}/{'bi' if bidirectional else 'uni'}"
    got = _digest(_traces(_grid_specs(workload, flows, bidirectional)))
    assert got == PINNED[key], key


@pytest.mark.parametrize("workload,flows,bidirectional", GRID_CASES)
def test_suite_sized_traces_pinned(workload, flows, bidirectional):
    key = f"{workload}/{flows}/{'bi' if bidirectional else 'uni'}/sized"
    got = _digest(_traces(
        _grid_specs(workload, flows, bidirectional, SUITE_PACKET_SIZES)))
    assert got == PINNED[key], key


def test_single_flow_sized_traces_pinned():
    got = _digest(_traces(_single_flow_specs()))
    assert got == PINNED[f"{SINGLE_FLOW_WORKLOAD}/sized"]


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
