"""One pass over a workload's op list, in a fresh interpreter.

    python3 passrun.py SRC_DIR TRACE SPANS_FILE < argv-lists.json

SRC_DIR holds the `weitzenboeck` package; TRACE is 0 or 1; SPANS_FILE
receives the spans of a traced pass (ignored when TRACE is 0).  Each op
runs in-process through `weitzenboeck.cli.main(argv)` with stdout and
stderr captured.  Before the first op, between ops at least every
CALIBRATE_EVERY_S, and after the last op, the pass times the host-speed
calibration (calibrate.py).  One JSON object goes to stdout: the import
time, the pass wall time (op iterations only, calibration excluded),
per-op start and seconds, exit codes and output, peak RSS, the
calibration points and, when traced, the per-layer aggregates.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import weitzenboeck  # noqa: E402
import weitzenboeck.cli  # noqa: E402

setup_s = time.perf_counter() - t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402

CALIBRATE_EVERY_S = 0.25  # the host's speed drifts within seconds; see calibrate.py


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = weitzenboeck.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed op, not a failed pass
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue()


def main():
    traced = sys.argv[2] == "1"
    ops = json.load(sys.stdin)
    calibration = []  # (start, seconds): host speed before, between and after ops
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    op_start, op_s, rcs, stdouts = [], [], [], []
    wall_s = 0.0
    for i, argv in enumerate(ops):
        if not calibration or time.perf_counter() - calibration[-1][0] >= CALIBRATE_EVERY_S:
            calibration.append((time.perf_counter(), calibrate.calibration_s()))
        if tracer:
            tracer.op = i
        start = time.perf_counter()
        elapsed, rc, out = run_op(argv)
        wall_s += time.perf_counter() - start
        op_start.append(start)
        op_s.append(elapsed)
        rcs.append(rc)
        stdouts.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if ops:
        calibration.append((time.perf_counter(), calibrate.calibration_s()))
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_start": op_start,
        "op_s": op_s,
        "rc": rcs,
        "stdout": stdouts,
        "peak_rss_mb": peak_rss_mb,
        "calibration": calibration,
    }
    if tracer:
        result["trace"] = spans.aggregate(tracer.spans)
        tracer.write(sys.argv[3])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
