"""Command line: ``python -m benchmarks.e2e run|compare``.

Also runs as a script, ``python3 benchmarks/e2e/__main__.py run ...``, from
the repository root.
"""

import argparse
import json
import sys
from pathlib import Path

if not __package__:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import compare, runner  # noqa: E402


def _trace_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("expected 0 or 1")
    return text == "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--size", choices=("full", "ci"), default="full")
    run.add_argument("--workload", choices=runner.WORKLOAD_NAMES, action="append",
                     help="run only this workload (repeatable; default: all four)")
    run.add_argument("--seconds", type=float,
                     help="repeat rounds for about this long instead of a fixed count")
    run.add_argument("--trace", nargs="?", const=True, default=False, type=_trace_flag,
                     help="add traced rounds that give the per-layer metrics "
                          "(the result line then carries those metrics)")
    run.add_argument("--out", type=Path, help="write the full report as JSON")

    cmp = commands.add_parser("compare", help="verdict per (workload, metric)")
    cmp.add_argument("base", type=Path)
    cmp.add_argument("new", type=Path)

    args = parser.parse_args(argv)
    if args.command == "compare":
        rows = compare.compare(json.loads(args.base.read_text()),
                               json.loads(args.new.read_text()), compare.load_bounds())
        print(compare.render(rows))
        return 1 if any(row["verdict"] in compare.FAILING for row in rows) else 0

    try:
        report = runner.run(args.workload or runner.WORKLOAD_NAMES, args.seed, args.size,
                            trace=args.trace, seconds=args.seconds)
    except runner.RoundFailed as failure:
        print(f"benchmark failed: {failure}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(runner.render(report))
    print(json.dumps(runner.result_line(report, layers=args.trace), sort_keys=True))
    return 0 if runner.is_correct(report) else 1


if __name__ == "__main__":
    sys.exit(main())
