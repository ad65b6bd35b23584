"""Run one workload of the MLFFR harness wall-time benchmark.

    python3 perfbench/run.py --workload sweep_hotpath --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--seed`` fixes the order of the
searches in the grid; ``--workload-seed`` picks the synthesized traffic
and must have committed expected results (7 by default, 11 held out).
The last stdout line is the result JSON; earlier lines record
provenance and sample counts.  ``--record-expected`` re-derives the
expected results of one workload from the scalar oracle instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep_hotpath", "sweep_scalar", "sweep_observed")
#: Expected results are committed for this seed and for 11, held out.
DEFAULT_WORKLOAD_SEED = 7


def parse_args(argv: list) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0,
                   help="orders the searches of the grid")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measure whole grids for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: wrap the layers and report the per-layer ledger")
    p.add_argument("--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
                   help="trace synthesis seed (needs expected results)")
    p.add_argument("--record-expected", action="store_true",
                   help="write this workload's expected results and exit")
    return p.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    cleared = harness.pin_environment()
    # Keep git discovery (telemetry manifests stamp a SHA) inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    workload = harness.WORKLOADS[args.workload](args.workload_seed)
    path = harness.expected_path(args.workload, args.workload_seed)

    if args.record_expected:
        expected = harness.oracle(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": args.workload,
            "workload_seed": args.workload_seed,
            "oracle": "scalar",
            "provenance": harness.provenance(ROOT, cleared),
            "searches": expected,
        }, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)} ({len(expected)} searches)")
        return 0

    if not path.is_file():
        print(f"error: no expected results for {args.workload} at workload "
              f"seed {args.workload_seed} ({path.relative_to(ROOT)}); create "
              "them with --record-expected", file=sys.stderr)
        return 2
    expected = json.loads(path.read_text())["searches"]
    out = ROOT / ".perfbench_out"
    result, samples, log = harness.measure(
        workload, expected, seconds=args.seconds, order_seed=args.seed,
        traced=bool(args.trace), scratch=out / f"tmp-{os.getpid()}")
    (out / f"tmp-{os.getpid()}").rmdir()
    print(json.dumps({"provenance": harness.provenance(ROOT, cleared),
                      "workload": args.workload,
                      "workload_seed": args.workload_seed,
                      "seed": args.seed, "samples": samples}, sort_keys=True))
    if log is not None:
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        log.write(spans)
        print(f"spans: {spans.relative_to(ROOT)} ({len(log.spans)} spans)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
