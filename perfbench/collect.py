"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workload para300 --seeds 1-10 --trace 0 \
        --out perfbench/results/baseline-para300.json

Runs the command of BENCHMARK.json once per seed, one run at a time, from the
root of the checkout.  For every metric it reports the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median; for end-to-end metrics it adds the declared bound and
whether the spread is below a third of it.  With ``--against`` an earlier
output of this script, it also gives each median's change from that one and
whether the change is worse than the declared bound allows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from harness import interquartile_mean  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float, float | None]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else None


def raw_throughput(detail: dict, name: str) -> float | None:
    """The metric from wall seconds alone, without the yardstick's correction."""
    phase, _, arch = name.partition("_tok_s.")
    calls = detail.get("calls", {}).get(f"{phase}.{arch}")
    return interquartile_mean([c / wall for c, wall, _ in calls]) if calls else None


def summarise(runs: list[dict], declared: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median, q1, q3, spread = quartiles(values)
        row = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": median,
               "q1": q1, "q3": q3, "spread": spread, "values": values}
        raw = [raw_throughput(r["detail"], name) for r in runs]
        if "_tok_s." in name and None not in raw:
            row["raw_spread"] = quartiles(raw)[3]
        if name in declared:
            row["bound"] = declared[name]
            row["steady"] = row["spread"] is not None and row["spread"] < declared[name] / 3
        out[name] = row
    return out


def compare(metrics: dict, before: dict, bench: dict) -> dict:
    """Change of each end-to-end median from ``before``, and whether it is worse
    than the metric's bound allows."""
    out = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        if name in metrics and before.get(name, {}).get("median"):
            change = metrics[name]["median"] / before[name]["median"] - 1.0
            worse = -change if m["better"] == "higher" else change
            out[name] = {"change": change, "too_worse": worse > m["bound"]}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path,
                        help="an earlier output of this script to compare medians with")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        runs.append({"seed": seed, "detail": json.loads(lines[-2]),
                     "result": json.loads(lines[-1])})
        print(f"{args.workload} seed {seed}: correct={runs[-1]['result']['correct']} "
              f"rounds={runs[-1]['detail']['rounds']}", file=sys.stderr, flush=True)

    declared = {m["name"]: m["bound"] for m in bench["end_to_end"]} if not args.trace else {}
    summary = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "environment": runs[0]["detail"]["environment"],
        "all_correct": all(r["result"]["correct"] for r in runs),
        "metrics": summarise(runs, declared),
    }
    if args.against:
        before = json.loads(args.against.read_text(encoding="utf-8"))
        summary["against"] = {"file": args.against.name, "seeds": before["seeds"],
                              **compare(summary["metrics"], before["metrics"], bench)}
    summary["runs"] = runs
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for name, row in summary["metrics"].items():
        flag = "" if "steady" not in row else (" ok" if row["steady"] else " UNSTEADY")
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
        raw = f" (wall seconds alone {row['raw_spread']:.3f})" if "raw_spread" in row else ""
        versus = summary.get("against", {}).get(name)
        if versus:
            verdict = "WORSE THAN BOUND" if versus["too_worse"] else "within bound"
            raw += f" vs earlier {versus['change']:+.3f} {verdict}"
        print(f"{name:45s} {row['median']:14.6g} {row['unit']:6s} spread {spread}{flag}{raw}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
