"""Benchmark of diffkit's time to verdict on CLI workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload table --seed 42 --seconds 50 --trace 0

Each invocation of a workload (see `workloads.py`) runs in its own
child interpreter, one at a time: a closed loop with one client. The
child imports `diffkit.cli` from `src/` and calls `main(argv)`, so no
state leaks from one invocation to the next and interpreter set-up is
timed apart from the check. A pass runs every invocation of the
workload once; passes repeat until `--seconds` have been measured. Each
invocation's time is its median over the passes, and the end-to-end
metrics combine those medians. Times are CPU seconds scaled by a fixed
reference computation run in the same child (`reference.py`), so that
they follow the program rather than the speed of a shared host.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported.
With `--trace 1` untraced and traced passes alternate; the traced ones
install the wrappers of `tracer.py` in the child and give the per-layer
metrics, and `trace.overhead_ratio` compares the two kinds of pass.

Every outcome is judged against its known answer, and every report must
equal, `elapsed_ms` aside, the report the same argv gave in the first
pass. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
gives every metric with its sample count, every invocation's wall
time, CPU time and scale factor in every pass, the machine, and the
known defects.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_S
from tracer import layer_metrics
from workloads import REFUTED, WORKLOADS, judge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 165.0  # no child outlives this, so a run ends within 180 s


class Outcome:
    """What one child reported about one invocation."""

    def __init__(self, inv, seed: int):
        self.inv = inv
        self.defect = inv.defect_at(seed)  # a known defect at this seed
        self.setup_s = self.verdict_s = self.rss_mb = 0.0  # wall clock
        self.setup_cpu_s = self.verdict_cpu_s = 0.0
        self.speed = 1.0  # REF_S / the child's reference time
        self.checked = 0
        self.problem = None  # why the outcome is wrong, if it is
        self.report = None
        self.spans, self.counts = [], {}

    @property
    def timed(self) -> bool:
        """Whether this invocation feeds the end-to-end metrics."""
        return self.defect is None

    @property
    def known_defect(self) -> bool:
        """Whether the outcome is wrong in the way a known defect makes it."""
        d = self.defect
        return d is not None and (self.problem or "").startswith(d.signature)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DIFFKIT_SEED", None)  # it would override --seed
    # numpy's BLAS pool would start threads that add CPU time to set-up;
    # diffkit calls no BLAS routine, so one thread changes nothing else
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(index: int, argv: list[str], trace: bool, timeout: float) -> dict:
    """Start a child, wait for it, and return its JSON plus `spawn`."""
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(index), "1" if trace else "0",
         *argv],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"child exited {proc.returncode}: {tail[0]}")
    out = json.loads(proc.stdout)
    out["spawn"] = spawn
    return out


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.invs = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.first_reports: dict[int, object] = {}
        self.machine: dict = {}
        self.out_of_time = False

    def run_pass(self, trace: bool) -> list[Outcome]:
        outcomes = []
        for i, inv in enumerate(self.invs):
            o = Outcome(inv, self.seed)
            outcomes.append(o)
            timeout = self.deadline - time.monotonic()
            try:
                if timeout <= 0:
                    raise subprocess.TimeoutExpired("child", 0)
                res = run_child(i, inv.argv_for(self.seed), trace, timeout)
            except subprocess.TimeoutExpired:
                o.problem = "no time left before the run's deadline"
                self.out_of_time = True
                continue
            except (RuntimeError, ValueError) as exc:
                o.problem = f"child failed: {exc}"
                continue
            self.machine = {"python": res["python"], "numpy": res["numpy"],
                            "cores": os.cpu_count()}
            o.setup_s = res["ready"] - res["spawn"]
            o.verdict_s = res["verdict_s"]
            o.setup_cpu_s = res["ready_cpu"]
            o.verdict_cpu_s = res["verdict_cpu_s"]
            o.speed = REF_S / res["reference_s"]
            o.rss_mb = res["maxrss_kb"] / 1024.0
            o.spans, o.counts = res.get("spans", []), res.get("counts", {})
            try:
                o.report = json.loads(res["report"]) if res["report"] else None
            except ValueError:
                o.report = None
            if o.report is not None:
                o.checked = sum(r["checked"] for r in o.report.get("results", []))
            o.problem = judge(inv, self.seed, res["code"], o.report, res["error"])
            if o.problem is None:
                o.problem = self._replay(i, o.report)
        return outcomes

    def _replay(self, index: int, report: dict):
        """A report must repeat exactly, `elapsed_ms` aside, in every pass."""
        body = {k: v for k, v in report.items() if k != "elapsed_ms"}
        first = self.first_reports.setdefault(index, body)
        return None if first == body else "report differs from the first pass"


def end_to_end(passes: list[list[Outcome]]) -> dict:
    """End-to-end metrics from each invocation's median over the passes.

    Every time is the child's CPU time (user + system) in reference
    seconds: multiplied by `speed`, REF_S over the time the child's run
    of `reference.py` took. On a shared host a core's speed swings by a
    quarter or more for minutes at a time, and CPU time swings with it;
    the reference, run in the same child around the timed work, swings
    with it too, so the product follows the program more than the host.
    It does not cancel a slow spell fully (see bench/README.md).
    """
    timed = [i for i, o in enumerate(passes[0]) if o.timed]

    def med(i, value):
        return statistics.median(value(p[i]) for p in passes)

    verdict = {i: med(i, lambda o: o.verdict_cpu_s * o.speed) for i in timed}
    total = sum(verdict.values())
    return {
        "verdict_s": total,
        "refute_verdict_s": sum(t for i, t in verdict.items()
                                if passes[0][i].inv.expect == REFUTED),
        "points_per_s": sum(med(i, lambda o: o.checked) for i in timed) / total,
        "slowest_verdict_s": max(verdict.values()),
        "setup_s": statistics.median(p[i].setup_cpu_s * p[i].speed
                                     for p in passes for i in timed),
        "peak_rss_mb": max(med(i, lambda o: o.rss_mb) for i in timed),
    }


def per_layer(outcomes: list[Outcome]) -> dict:
    m = layer_metrics([(o.spans, o.counts) for o in outcomes if o.timed])
    m["cli.known_defect_fail_n"] = sum(o.known_defect for o in outcomes)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "diffkit" / "cli.py").is_file():
        print(f"error: no diffkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args.workload, args.seed, started + DEADLINE_S)
    run_child(-1, [], False, DEADLINE_S)  # compile bytecode before timing
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    measure_from = time.monotonic()
    while True:
        t0 = time.monotonic()
        kind = traced if args.trace and len(traced) < len(plain) else plain
        kind.append(runner.run_pass(trace=kind is traced))
        now = time.monotonic()
        if runner.out_of_time:
            break
        done = now - measure_from >= args.seconds and (not args.trace or traced)
        if done or now + (now - t0) > runner.deadline:
            break

    passes = plain + traced
    attempted = failed = 0
    problems, defects = [], {}
    for outcomes in passes:
        for o in outcomes:
            if o.known_defect:
                d = defects.setdefault(o.defect.text, {
                    "defect": o.defect.text, "count": 0, "argv": [],
                    "problem": o.problem})
                d["count"] += 1
                argv = " ".join(o.inv.argv_for(args.seed))
                if argv not in d["argv"]:
                    d["argv"].append(argv)
                continue
            attempted += 1
            if o.problem is not None:
                failed += 1
                problems.append(f"{' '.join(o.inv.argv_for(args.seed))}: {o.problem}")
    for p in problems[:10]:
        print(f"wrong outcome: {p}", file=sys.stderr)

    if args.trace and not traced:
        print("error: no time left for a traced pass", file=sys.stderr)
        return 1
    if args.trace:
        rows = [per_layer(p) for p in traced]
        overhead = end_to_end(traced)["verdict_s"] / end_to_end(plain)["verdict_s"]
        values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        values["trace.overhead_ratio"] = overhead
    else:
        values = end_to_end(plain)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics this runner lacks: {missing}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    n = len(traced) if args.trace else len(plain)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    detail = {name: {"value": v, "unit": units.get(name, "s"), "n": n}
              for name, v in values.items()}
    if not args.trace:
        detail["verdict_s_by_invocation"] = [[p[i].verdict_s for p in plain]
                                             for i in range(len(runner.invs))]
        detail["verdict_cpu_s_by_invocation"] = [[p[i].verdict_cpu_s for p in plain]
                                                 for i in range(len(runner.invs))]
        detail["speed_by_invocation"] = [[p[i].speed for p in plain]
                                         for i in range(len(runner.invs))]
        detail["setup_wall_s"] = statistics.median(o.setup_s for p in plain for o in p)
    known = sum(d["count"] for d in defects.values())
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain), "traced_passes": len(traced),
        "wall_s": time.monotonic() - started,
        "machine": runner.machine,
        "failed_frac": (failed + known) / max(1, attempted + known),
        "known_defects": list(defects.values()),
        "metrics": detail,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
