"""Run one diffkit CLI invocation in a fresh interpreter and report on it.

Usage: child.py INVOCATION_ID TRACE [ARGV...]

Imports `diffkit.cli` from the checkout's `src/`, calls `main(argv)`
with its standard output captured, and prints one JSON object: the
monotonic time at which `diffkit.cli` was ready and the CPU time spent
until then, the wall and CPU time spent inside `main`, the CPU time of
the reference computation of `reference.py` (the mean of one run before
the import and one after `main`), the exit code, the captured report,
any traceback, and the process's peak resident set size as `main`
returned. With TRACE=1 the per-layer wrappers
from `tracer.py` are installed after the import and their spans and
counts are included. With no ARGV the child only imports and exits,
which compiles the package's bytecode before anything is timed.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    invocation, trace, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    before = 0.0
    if argv:
        # before diffkit is imported, so that the memory the reference
        # uses is free again for the program and never sets the peak
        from reference import reference

        before = reference()
    import diffkit.cli as cli

    ready, ready_cpu = time.monotonic(), time.process_time() - before
    import io
    import json
    import resource
    import traceback
    from contextlib import redirect_stdout

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(invocation)
        tracer.install()
    out = {"ready": ready, "ready_cpu": ready_cpu, "python": sys.version.split()[0],
           "numpy": sys.modules["numpy"].__version__}
    if argv:
        captured = io.StringIO()
        error = None
        with redirect_stdout(captured):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = cli.main(argv)
            except Exception:  # an uncaught error is an outcome to report
                code, error = 1, traceback.format_exc()
            c1, t1 = time.process_time(), time.perf_counter()
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.update(verdict_s=t1 - t0, verdict_cpu_s=c1 - c0,
                   reference_s=(before + reference()) / 2, code=code,
                   report=captured.getvalue(), error=error)
    else:
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
