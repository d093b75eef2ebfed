#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig9-memwall --seed 0 \
        --seconds 40 --trace 0

Builds kilobench (perfbench/kilobench.cc) against the simulator
sources of this checkout into .bench_build/, runs the workload in one
kilobench process, checks every simulated output, and prints a few
human-readable lines followed by one JSON object as the last line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 reports its per-layer
metrics and writes the per-layer file (self time per span, counts,
ratios with their bases, tracing overhead) under .bench_build/out/.
Exits 0 only when every check passed; 2 when it cannot run at all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("fig9-memwall", "fig9-perfect-l2", "sampled-longtrace")
KILOBENCH_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; returns the kilobench binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        die("simulator sources (CMakeLists.txt, src/) not found in "
            + str(ROOT))
    bdir = BUILD / "perfbench"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "kilobench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return bdir / "kilobench"


def run_kilobench(exe, args):
    workdir = BUILD / "run" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(exe), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--dir", str(workdir)],
            stdout=subprocess.PIPE, stderr=sys.stderr, cwd=ROOT,
            timeout=KILOBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("kilobench exceeded %d s" % KILOBENCH_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        die("kilobench exited with %d" % proc.returncode)
    return proc.stdout.decode().splitlines()


def split(lines):
    """Group kilobench's "<type> <job> <object>" lines by type. A job's
    row, stats and phases records are attached to the job itself; the
    row keeps its exact text for rows_fnv."""
    by = {t: [] for t in ("setup", "pass", "job", "span", "probe", "end")}
    jobs, extra = {}, []
    for line in lines:
        t, job, text = line.split(" ", 2)
        r = json.loads(text)
        if t in by:
            r["job"] = int(job)
            by[t].append(r)
            if t == "job":
                jobs[r["job"]] = r
        else:
            extra.append((t, int(job), r, text))
    for t, job, r, text in extra:
        jobs[job][t] = r
        if t == "row":
            jobs[job]["row_text"] = text
    for j in by["job"]:
        j.setdefault("stats", {})
        j.setdefault("phases", {})
    by["span"] += metrics.phase_spans(by["span"], by["job"])
    return by


def deterministic(workload, jobs):
    """Outputs that repeat exactly for a given seed."""
    first = [j for j in jobs if j["pass"] == jobs[0]["pass"]]
    out = {}
    if workload == "fig9-memwall":
        out["paper_ipc_err_pct"] = metrics.paper_ipc_err_pct(first)
    if workload == "sampled-longtrace":
        out["sampled_ipc_sigma_pct"] = metrics.sampled_sigma_pct(first)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="0 keeps each preset's own generator seed")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    by = split(run_kilobench(build(), args))
    if not by["pass"] or not by["job"] or not by["end"]:
        die("kilobench printed no results")
    failed, problems, rows_fnv = metrics.check_run(by["job"])
    for p in problems:
        print("CHECK FAILED: " + p)
    print("rows_fnv %s" % rows_fnv)
    det = deterministic(args.workload, by["job"])
    for k, v in det.items():
        print("%s %.6f" % (k, v))

    plain = [p for p in by["pass"] if not p["traced"]]
    if args.trace:
        traced = [p for p in by["pass"] if p["traced"]]
        ids = {p["pass"] for p in traced}
        values, bases = metrics.per_layer(
            traced, [j for j in by["job"] if j["pass"] in ids],
            by["span"], by["probe"][0] if by["probe"] else {}, plain)
        values["paper_ipc_err_pct"] = det.get("paper_ipc_err_pct", 0.0)
        values["sampled_ipc_sigma_pct"] = det.get("sampled_ipc_sigma_pct",
                                                  0.0)
        write_layer_file(args, by, traced, plain, values, bases, rows_fnv,
                         det, declared)
    else:
        ids = {p["pass"] for p in plain}
        setups = [s["ns"] for s in by["setup"]] or \
            [p["setup_ns"] for p in plain]
        values = metrics.end_to_end(
            plain, [j for j in by["job"] if j["pass"] in ids], setups,
            by["end"][0]["peak_rss_kb"])

    out = {}
    for m in declared:
        if m["name"] not in values:
            die("metric %s was not measured" % m["name"])
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(by["job"]),
                      "failed": failed, "metrics": out}))
    sys.exit(0 if correct else 1)


def write_layer_file(args, by, traced, plain, values, bases, rows_fnv, det,
                     declared):
    """Per-layer file: self time per span name (passes and probes
    apart), every per-layer metric with its unit and ratio base, and
    the tracing overhead."""
    ids = {p["pass"] for p in traced}
    n = len(traced)

    def table(spans, per):
        return {name: {"count": t["count"] / per,
                       "total_ms": t["total_ns"] / 1e6 / per,
                       "self_ms": t["self_ns"] / 1e6 / per}
                for name, t in sorted(metrics.span_table(spans).items())}

    pass_spans = [s for s in by["span"] if s["pass"] in ids]
    probe_spans = [s for s in by["span"] if s["pass"] not in ids]
    units = {m["name"]: m["unit"] for m in declared}
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "rows_fnv": rows_fnv,
        "deterministic": det,
        "passes": {"untraced_wall_s": [p["wall_ns"] / 1e9 for p in plain],
                   "traced_wall_s": [p["wall_ns"] / 1e9 for p in traced]},
        "tracing_overhead_pct": values["bench.tracing_overhead_pct"],
        "spans_per_traced_pass": table(pass_spans, n),
        "probe_spans": table(probe_spans, 1),
        "probe_counts": by["probe"][0] if by["probe"] else {},
        "metrics": {k: dict({"value": v, "unit": units.get(k, "")},
                            **bases.get(k, {}))
                    for k, v in values.items()},
    }
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("%s-seed%d-layers.json" % (args.workload, args.seed))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print("layers %s" % path.relative_to(ROOT))


if __name__ == "__main__":
    main()
