"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 bench/steady.py --seeds 1-10 [--seconds N] [--sets 2]
                            [--workloads table,closure] [--out FILE]

For every workload and seed it runs `bench/run.py --trace 0` once, then
prints, per workload and end-to-end metric, the median over seeds, the
spread (distance between the first and third quartile of
`statistics.quantiles(values, n=4)`, as a share of the median), and the
spread as a share of the metric's bound in BENCHMARK.json. With
`--sets 2` the whole set of runs is made twice and the second set's
median is compared with the first's, in both directions: the sets agree
when max(r, 1/r) - 1 stays within the bound, r being the ratio of the
medians. It ends with "within bounds" only when every spread, that of
`setup_s` too, and every such difference is within its bound. With one
seed it is simply the one command that prints every end-to-end metric
of every workload, with unit and sample count (the number of passes).
`--out` keeps every run's result lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    return {"workload": workload, "seed": seed, "detail": json.loads(lines[-2]),
            "result": json.loads(lines[-1]), "stderr": proc.stderr}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset of the workloads (default: all)")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    runs = []
    for k in range(args.sets):
        for w in workloads:
            for s in seeds:
                r = run_once(w, s, args.seconds)
                r["set"] = k
                runs.append(r)
                res = r["result"]
                print(f"set {k} {w:8s} seed {s:<6d} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{n}={v['value']:.4g}"
                                 for n, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")

    ok = True
    print(f"{'workload':8s} {'metric':18s} {'unit':5s} {'runs':>4s} {'passes':>6s} "
          f"{'median':>12s} {'spread':>7s} {'/bound':>7s} {'2nd/1st':>8s}")
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        if not all(r["result"]["correct"] for r in mine):
            ok = False
            print(f"{w}: some runs were not correct", file=sys.stderr)
        for m in spec["end_to_end"]:
            name = m["name"]
            sets = [[r["result"]["metrics"][name]["value"] for r in mine if r["set"] == k]
                    for k in range(args.sets)]
            passes = [r["detail"]["metrics"][name]["n"] for r in mine]
            first = sets[0]
            sp = spread(first)
            shift = ""
            if args.sets > 1:
                ratio = statistics.median(sets[-1]) / statistics.median(first)
                shift = f"{ratio:8.3f}"
                ok &= max(ratio, 1 / ratio) - 1 <= m["bound"]
            ok &= all(spread(v) <= m["bound"] for v in sets)
            print(f"{w:8s} {name:18s} {m['unit']:5s} {len(first):4d} "
                  f"{statistics.median(passes):6.0f} {statistics.median(first):12.5g} "
                  f"{sp:7.3f} {sp / m['bound']:7.2f} {shift:>8s}")
            for k, v in enumerate(sets[1:], 1):
                print(f"{'':8s} {'':18s} {'set ' + str(k):>10s} "
                      f"{statistics.median(v):19.5g} {spread(v):7.3f} "
                      f"{spread(v) / m['bound']:7.2f}")
    print("within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
