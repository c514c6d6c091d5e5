"""End-to-end and per-layer benchmark of the weitzenboeck CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of census_open, verify_complete, verify_incomplete,
express_k12, or `all` (each in turn).  Run it from the repository root;
the package is imported from ./src.

Load model: a closed loop with one client in one process and no extra
threads.  The seed generates an op list (workloads.py); a pass runs the
whole list in a fresh interpreter (passrun.py), each op in-process through
`weitzenboeck.cli.main(argv)`.  Every op's output is checked against a
reference the library did not produce (reference.py); a wrong output, a
wrong exit code or an exception is a failed op.

--trace 0 repeats passes while the next one still fits in S seconds, and
until at least 100 op samples exist, and reports the end-to-end metrics:
setup_s (median import time of `weitzenboeck` and `weitzenboeck.cli`, over
every pass and three import-only interpreters per pass), wall_s (median
pass time), op_ms_p50 / op_ms_p90 (over all op samples) and peak_rss_mb
(median over passes).  Every time is scaled to a reference host speed:
the pass process times a fixed calibration workload between its ops
(calibrate.py), each op time is multiplied by calibrate.REFERENCE_S over
the mean of the calibrations either side of it, and pass-level times by
the op-time-weighted mean of those factors; raw times and the factors
are kept in the run record.

--trace 1 alternates untraced and traced passes (spans.py) and reports
per-layer metrics, the tracing overhead, and whether the traced stdout
was byte-identical to the untraced one.

A per-workload table goes to stdout, a run record to perfbench/out/, and
the last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OP_SAMPLES = 100  # so that at least 10 samples lie beyond op_ms_p90
PASS_TIMEOUT_S = 150
SETUP_PROBES_PER_PASS = 3  # extra import-only interpreters per pass, to steady setup_s

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"), ("peak_rss_mb", "MB")]

# layer -> extra counts reported beside .calls and .self_s
LAYER_COUNTS = {
    "cli.main": [],
    "poly.parse": ["terms"],
    "poly.mul": ["terms_out"],
    "derivation.apply": ["terms_in"],
    "kernel.graded_monomials": ["monomials"],
    "kernel.derivation_matrix": ["cells", "nonzeros"],
    "kernel.rref": ["cells", "rank"],
    "kernel.nullspace": ["total_s", "kernel_dim"],
    "kernel.span_dimension": ["total_s", "rows", "rank"],
    "kernel.generator_products": ["products"],
    "kernel.completeness_check": [],
    "kernel.express_in_generators": [],
}


def run_pass(argvs: list[list[str]], traced: bool, spans_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), str(SRC), "1" if traced else "0", str(spans_path)],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if argvs:
        # each op is scaled by the calibrations on either side of it, the pass by their op-weighted mean
        times = [t for t, _ in result["calibration"]]
        cal = [c for _, c in result["calibration"]]
        nxt = [bisect.bisect_right(times, t) for t in result["op_start"]]
        result["op_scale"] = [2 * calibrate.REFERENCE_S / (cal[j - 1] + cal[j]) for j in nxt]
        result["scale"] = sum(s * f for s, f in zip(result["op_s"], result["op_scale"])) / sum(result["op_s"])
    return result


def count_failures(ops, passes) -> int:
    return sum(not workloads.check(op, rc, out) for p in passes for op, rc, out in zip(ops, p["rc"], p["stdout"]))


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    op_ms = [s * 1000 * f for p in passes for s, f in zip(p["op_s"], p["op_scale"])]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"setup_s": len(setups), "wall_s": len(passes), "op_ms_p50": len(op_ms), "op_ms_p90": len(op_ms), "peak_rss_mb": len(passes)}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, samples


def layer_values(p: dict, pieces: int) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit); times are scaled like wall_s."""
    agg = p["trace"]
    layers = agg["layers"]
    out = {}
    for layer, counts in LAYER_COUNTS.items():
        stats = layers.get(layer, {})
        out[f"{layer}.calls"] = (stats.get("calls", 0), "count")
        out[f"{layer}.self_s"] = (stats.get("self_s", 0.0), "s")
        for key in counts:
            out[f"{layer}.{key}"] = (stats.get(key, 0), "s" if key.endswith("_s") else "count")
    rref_calls = layers.get("kernel.rref", {}).get("calls", 0)
    for share, stats in agg["rref_under"].items():
        out[f"kernel.rref.under_{share}_s"] = (stats["self_s"], "s")
    out["kernel.rref.calls_per_piece"] = (rref_calls / pieces if pieces else 0.0, "ratio")
    products = layers.get("kernel.generator_products", {}).get("products", 0)
    useful = layers.get("kernel.span_dimension", {}).get("rank", 0) + agg["rref_under"]["express"]["rank"]
    out["kernel.generator_products.useful_ratio"] = (useful / products if products else 0.0, "ratio")
    return {name: (value * p["scale"] if unit == "s" else value, unit) for name, (value, unit) in out.items()}


def traced_metrics(untraced: list[dict], traced: list[dict], pieces: int) -> tuple[dict, dict]:
    per_pass = [layer_values(p, pieces) for p in traced]
    metrics = {name: {"value": statistics.median(v[name][0] for v in per_pass), "unit": unit} for name, (_, unit) in per_pass[0].items()}
    traced_wall = statistics.median(p["wall_s"] * p["scale"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] * p["scale"] for p in untraced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall - 1, "unit": "ratio"}
    metrics["trace.bookkeeping_s"] = {"value": statistics.median(p["trace"]["bookkeeping_s"] * p["scale"] for p in traced), "unit": "s"}
    metrics["trace.remainder_s"] = {"value": statistics.median((p["wall_s"] - p["trace"]["root_s"]) * p["scale"] for p in traced), "unit": "s"}
    samples = {name: len(traced) for name in metrics}
    samples["trace.untraced_wall_s"] = len(untraced)
    return metrics, samples


def accounting_ok(p: dict) -> bool:
    """Self times + bookkeeping + untraced remainder add up to the traced pass wall time."""
    agg = p["trace"]
    total = sum(layer["self_s"] for layer in agg["layers"].values()) + agg["bookkeeping_s"] + (p["wall_s"] - agg["root_s"])
    return agg["negative_self_s"] > -1e-6 and p["wall_s"] - agg["root_s"] >= 0 and abs(total - p["wall_s"]) < 1e-6


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.build(name, seed)
    argvs = [op.argv for op in ops]
    pieces = sum(op.pieces for op in ops)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    untraced, traced, setups = [], [], []
    start = time.perf_counter()

    def more() -> bool:
        if not untraced or (trace and not traced):
            return True
        if not trace and len(untraced) * len(ops) < MIN_OP_SAMPLES:
            return True
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / len(untraced) <= seconds  # the next round still fits

    while more():
        untraced.append(run_pass(argvs, False, spans_path))
        scale = untraced[-1]["scale"]
        setups.append(untraced[-1]["setup_s"] * scale)
        if trace:
            traced.append(run_pass(argvs, True, spans_path))
        else:
            setups.extend(run_pass([], False, spans_path)["setup_s"] * scale for _ in range(SETUP_PROBES_PER_PASS))
    passes = untraced + traced
    failed = count_failures(ops, passes)
    notes = []
    if trace:
        metrics, samples = traced_metrics(untraced, traced, pieces)
        reference = (untraced[0]["rc"], untraced[0]["stdout"])
        identical = all((p["rc"], p["stdout"]) == reference for p in passes)
        balanced = all(accounting_ok(p) for p in traced)
        notes.append(f"traced stdout byte-identical to untraced: {identical}")
        notes.append(f"self times + bookkeeping + remainder = traced wall_s: {balanced}")
        correct = failed == 0 and identical and balanced
    else:
        metrics, samples = end_to_end(untraced, setups)
        correct = failed == 0
    attempted = len(ops) * len(passes)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "ops_per_pass": len(ops),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "raw_pass_wall_s": {"untraced": [p["wall_s"] for p in untraced], "traced": [p["wall_s"] for p in traced]},
        "scale": {"untraced": [p["scale"] for p in untraced], "traced": [p["scale"] for p in traced]},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "correct": correct,
        "metrics": metrics,
        "samples": samples,
        "notes": notes,
    }


def print_table(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}")
    print(
        f"python {record['python']}  nproc {record['nproc']}  commit {record['commit']}  "
        f"ops/pass {record['ops_per_pass']}  passes {record['passes']['untraced']} untraced + {record['passes']['traced']} traced"
    )
    print(f"{'metric':44} {'value':>14}  {'unit':6} samples")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        text = f"{value:14.6g}" if isinstance(value, float) else f"{value:14d}"
        print(f"{name:44} {text}  {metric['unit']:6} {record['samples'][name]}")
    print(f"{'fail_ratio':44} {record['fail_ratio']:14.6g}  {'ratio':6} {record['failed']}/{record['attempted']} ops")
    scales = record["scale"]["untraced"] + record["scale"]["traced"]
    raw = record["raw_pass_wall_s"]["untraced"]
    print(
        f"times above are scaled to the reference host speed (calibrate.py): factor median {statistics.median(scales):.4f}, "
        f"range {min(scales):.4f}-{max(scales):.4f}; raw untraced pass wall median {statistics.median(raw):.4f} s"
    )
    for note in record["notes"]:
        print(note)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weitzenboeck" / "__init__.py").is_file():
        print(f"error: no weitzenboeck package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
        print_table(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
