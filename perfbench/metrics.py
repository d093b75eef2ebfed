"""Metric math and output checks over kilobench's raw records.

Pure functions only: perfbench/run.py feeds them the JSON records that
kilobench prints, and perfbench/test_metrics.py feeds them hand-made
ones. Times in records are nanoseconds.
"""

import math
import statistics

KINDS = ("ooo", "kilo", "dkip")

# Suite-average IPC the paper reports for Figure 9 at MEM-400, keyed by
# (suite, machine); bench_fig09 prints the same nine cells as its
# "paper reference" line. The paper gives no R10-768 INT average.
PAPER_FIG9_AVG_IPC = {
    ("int", "r10-64"): 1.19,
    ("int", "r10-256"): 1.32,
    ("int", "kilo"): 1.38,
    ("int", "dkip"): 1.33,
    ("fp", "r10-64"): 1.26,
    ("fp", "r10-256"): 1.71,
    ("fp", "r10-768"): 2.3,
    ("fp", "kilo"): 2.23,
    ("fp", "dkip"): 2.37,
}

STALL_PREFIX = "stall_"


def fnv1a64(texts):
    """FNV-1a 64 over the texts joined by newlines, as 16 hex digits."""
    h = 0xCBF29CE484222325
    for b in "\n".join(texts).encode():
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def paper_ipc_err_pct(jobs):
    """Mean |model - paper| / paper over the nine Figure 9 suite-average
    cells, in percent. Model averages are rounded to two decimals, the
    precision bench_fig09 prints its AVG rows with, so the value can be
    re-derived from that table."""
    sums, counts = {}, {}
    for j in jobs:
        key = (j["suite"], j["machine"])
        sums[key] = sums.get(key, 0.0) + j["row"]["ipc"]
        counts[key] = counts.get(key, 0) + 1
    errs = []
    for key, paper in PAPER_FIG9_AVG_IPC.items():
        model = float("%.2f" % (sums[key] / counts[key]))
        errs.append(abs(model - paper) / paper)
    return 100.0 * sum(errs) / len(errs)


def mips(insts, ns):
    """Millions of instructions per host second."""
    return 1e3 * insts / ns if ns > 0 else 0.0


def pooled_mips(jobs):
    """Per machine kind: all its instructions over all its host time
    (a pooled ratio, not a mean of per-job ratios)."""
    out = {}
    for kind in KINDS:
        mine = [j for j in jobs if j["kind"] == kind]
        out[kind] = mips(sum(j["insts"] for j in mine),
                         sum(j["run_ns"] for j in mine))
    return out


def self_times(spans):
    """Span id -> self time: duration minus the part of the span's
    interval covered by its children (children may overlap each other
    or stick out of the parent; each covered ns counts once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0, None, None
        kids = sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                      for c in children.get(s["id"], []))
        for lo, hi in kids:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


SAMPLE_PHASES = ("fingerprint", "cluster", "simulate", "reconstruct")


def phase_spans(spans, jobs):
    """Child spans of each sample.run span for the runSampled phases.
    obs::Profiler reports only phase durations, and runSampled runs the
    phases back to back in this order, so they are laid end to end from
    the parent's start (ids continue past the largest recorded id)."""
    phases = {j["job"]: j.get("phases", {}) for j in jobs}
    next_id = max((s["id"] for s in spans), default=0) + 1
    out = []
    for s in spans:
        if s["name"] != "sample.run":
            continue
        t = s["start"]
        for ph in SAMPLE_PHASES:
            ns = phases.get(s["job"], {}).get(ph, 0)
            out.append(dict(s, id=next_id, parent=s["id"],
                            name="sample." + ph, start=t, end=t + ns))
            next_id += 1
            t += ns
    return out


def span_table(spans):
    """Span name -> {count, total_ns, self_ns}."""
    selfs = self_times(spans)
    table = {}
    for s in spans:
        t = table.setdefault(s["name"],
                             {"count": 0, "total_ns": 0, "self_ns": 0})
        t["count"] += 1
        t["total_ns"] += s["end"] - s["start"]
        t["self_ns"] += selfs[s["id"]]
    return table


def check_job(j):
    """Problems with one job's outputs; empty when it is correct."""
    row = j["row"]
    bad = []
    if j["aborted"]:
        bad.append("aborted")
    if j["mode"] == "exact":
        if row["committed"] < j["measure_insts"]:
            bad.append("committed %d < measureInsts %d"
                       % (row["committed"], j["measure_insts"]))
        slots = sum(v for k, v in row.items() if k.startswith(STALL_PREFIX))
        if slots + row["committed"] != j["width"] * row["cycles"]:
            bad.append("sum(stall_*) + committed = %d != %d x %d"
                       % (slots + row["committed"], j["width"],
                          row["cycles"]))
    else:
        if not j["sigmas_finite"] or not math.isfinite(j["ipc_sigma"]) \
                or j["ipc_sigma"] < 0:
            bad.append("error bars not finite")
        if j["detail"] + j["warm"] >= j["represented"]:
            bad.append("detail %d + warm %d >= represented %d"
                       % (j["detail"], j["warm"], j["represented"]))
    return bad


def pass_fingerprints(jobs):
    """Pass number -> rows_fnv of that pass's rows in run order."""
    rows = {}
    for j in jobs:
        rows.setdefault(j["pass"], []).append(j["row_text"])
    return {p: fnv1a64(r) for p, r in sorted(rows.items())}


def check_run(jobs):
    """(failed job count, problem strings, rows_fnv of the first pass).
    Every pass must reproduce the first pass's rows exactly."""
    problems, failed = [], 0
    for j in jobs:
        bad = check_job(j)
        if bad:
            failed += 1
            problems += ["%s/%s pass %d: %s" % (j["preset"], j["machine"],
                                                j["pass"], b) for b in bad]
    fps = pass_fingerprints(jobs)
    first = next(iter(fps.values()), None)
    for p, fp in fps.items():
        if fp != first:
            failed += sum(1 for j in jobs if j["pass"] == p)
            problems.append("pass %d rows_fnv %s != %s" % (p, fp, first))
    return failed, problems, first


def end_to_end(passes, jobs, setups_ns, peak_rss_kb):
    """End-to-end metrics over the untraced passes and their jobs.
    Each host-time metric is computed per pass and the run reports the
    median over its passes (three or more in a 40 s run), so one pass
    caught in a slow host phase does not set the run's value. setup_s is the median of @p setups_ns, the setups the run
    timed; wall_s is that plus the median pass time outside setup."""
    per_pass = []
    for p in passes:
        mine = [j for j in jobs if j["pass"] == p["pass"]]
        run_ns = p["wall_ns"] - p["setup_ns"]
        m = {"run_s": run_ns / 1e9,
             "sim_mips": mips(sum(j["insts"] for j in mine), run_ns)}
        for kind, v in pooled_mips(mine).items():
            m["mips_" + kind] = v
        per_pass.append(m)
    out = {k: statistics.median(m[k] for m in per_pass)
           for k in per_pass[0]}
    out["setup_s"] = statistics.median(setups_ns) / 1e9
    out["wall_s"] = out.pop("run_s") + out["setup_s"]
    out["peak_rss_mb"] = peak_rss_kb / 1024.0
    return out


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(passes, jobs, spans, probe, untraced_passes):
    """Per-layer metrics over the traced passes plus the probes.
    Returns (metrics, bases): bases maps each ratio to its numerator
    and denominator. Counts and times are per pass."""
    n = len(passes)
    jobs_by_id = {j["job"]: j for j in jobs}
    traced = {p["pass"] for p in passes}
    pass_spans = [s for s in spans if s["pass"] in traced]
    probe_spans = [s for s in spans if s["pass"] not in traced]
    tab = span_table(pass_spans)
    ptab = span_table(probe_spans)

    def total(name, table=tab):
        return table.get(name, {}).get("total_ns", 0)

    def stat(name, among=jobs):
        return sum(j["stats"].get(name, 0) for j in among)

    m, bases = {}, {}

    def put_ratio(name, num, den, num_label, den_label, scale=1.0):
        m[name] = scale * ratio(num, den)
        bases[name] = {"num": num, "den": den,
                       "base": "%s / %s" % (num_label, den_label)}

    m["sim.ctor_ms"] = total("sim.ctor") / n / 1e6
    m["sim.warmup_ms"] = total("sim.warmup") / n / 1e6
    m["sim.finish_ms"] = total("sim.finish") / n / 1e6
    measure_ns = {k: 0 for k in KINDS}
    for s in pass_spans:
        if s["name"] == "sim.measure":
            measure_ns[jobs_by_id[s["job"]]["kind"]] += s["end"] - s["start"]
    exact = [j for j in jobs if j["mode"] == "exact"]
    for k in KINDS:
        m["sim.measure_ms." + k] = measure_ns[k] / n / 1e6
    for k in KINDS:
        mine = [j for j in exact if j["kind"] == k]
        put_ratio("core.host_ns_per_inst." + k, measure_ns[k],
                  stat("committed", mine), "measure-span ns",
                  "committed insts")
        put_ratio("core.host_ns_per_cycle." + k, measure_ns[k],
                  stat("cycles", mine), "measure-span ns",
                  "simulated cycles")

    slots = sum(j["width"] * j["stats"].get("cycles", 0) for j in jobs)
    m["core.sim_cycles"] = stat("cycles") / n
    put_ratio("core.commit_per_fetch", stat("committed"), stat("fetched"),
              "committed", "fetched")
    put_ratio("core.stall_mem_share", stat("stall_mem"), slots,
              "stall_mem slots", "commitWidth x cycles")
    put_ratio("core.stall_issue_share", stat("stall_issue"), slots,
              "stall_issue slots", "commitWidth x cycles")
    m["core.dispatch_blocked_iq"] = stat("dispatch_blocked_iq") / n

    dk = [j for j in jobs if j["kind"] == "dkip"]
    m["dkip.llib_inserted"] = (stat("llib_inserted_int", dk)
                               + stat("llib_inserted_fp", dk)) / n
    for c in ("analyze_stall_cycles", "llrf_conflict_stalls",
              "checkpoints_taken"):
        m["dkip." + c] = stat(c, dk) / n
    ki = [j for j in jobs if j["kind"] == "kilo"]
    m["kilo_proc.sliq_inserted"] = (stat("sliq_inserted_int", ki)
                                    + stat("sliq_inserted_fp", ki)) / n
    m["kilo_proc.analyze_stall_cycles"] = stat("analyze_stall_cycles", ki) / n

    m["mem.accesses"] = stat("mem_accesses") / n
    m["mem.l2_misses"] = stat("l2_misses") / n
    m["mem.mem_fills"] = stat("mem_fills") / n
    m["mem.mshr_merges"] = stat("mshr_merges") / n
    m["mem.mshr_peak"] = max((j["stats"].get("mshr_peak", 0) for j in jobs),
                             default=0)
    put_ratio("mem.merge_ratio", stat("mshr_merges"),
              stat("mshr_merges") + stat("mem_fills"), "mshr_merges",
              "mshr_merges + mem_fills")
    put_ratio("mem.access_ns", total("mem.access", ptab),
              probe.get("mem_ops", 0), "mem.access ns", "accesses")
    put_ratio("mem.warm_access_ns", total("mem.warm_access", ptab),
              probe.get("warm_ops", 0), "mem.warm_access ns", "accesses")
    put_ratio("mem.prewarm_ms", total("mem.prewarm", ptab),
              ptab.get("mem.prewarm", {}).get("count", 0),
              "mem.prewarm ns", "prewarmed hierarchies", 1e-6)

    put_ratio("pred.lookup_train_ns", total("pred.lookup_train", ptab),
              probe.get("branches", 0), "pred.lookup_train ns", "branches")
    put_ratio("pred.mispredict_rate", stat("mispredicts"), stat("branches"),
              "mispredicts", "branches")
    put_ratio("wload.gen_ns_per_op", total("wload.gen", ptab),
              probe.get("gen_ops", 0), "wload.gen ns", "ops generated")

    put_ratio("trace.write_ns_per_op", total("trace.write", ptab),
              probe.get("write_ops", 0), "trace.write ns", "ops written")
    put_ratio("trace.bytes_per_op", probe.get("trace_bytes", 0),
              probe.get("trace_ops", 0), "trace file bytes", "trace ops")
    put_ratio("trace.read_ns_per_op", total("trace.read", ptab),
              probe.get("read_ops", 0), "trace.read ns", "ops decoded")
    put_ratio("trace.skip_ns_per_op", total("trace.skip", ptab),
              probe.get("skip_ops", 0), "trace.skip ns", "ops skipped")

    sampled = [j for j in jobs if j["mode"] == "sampled"]
    for ph in SAMPLE_PHASES:
        m["sample.%s_ms" % ph] = sum(j["phases"].get(ph, 0)
                                     for j in sampled) / n / 1e6
    for c in ("detail", "warm", "skipped"):
        m["sample.%s_insts" % c] = sum(j[c] for j in sampled) / n
    put_ratio("sample.detail_share", sum(j["detail"] for j in sampled),
              sum(j["represented"] for j in sampled), "detail insts",
              "represented ops")

    put_ratio("stats.snapshot_us", total("stats.snapshot"),
              tab.get("stats.snapshot", {}).get("count", 0),
              "stats.snapshot ns", "calls", 1e-3)
    put_ratio("stats.row_us", total("stats.row"),
              tab.get("stats.row", {}).get("count", 0),
              "stats.row ns", "calls", 1e-3)

    traced_wall = sum(p["wall_ns"] for p in passes) / n
    plain_wall = (sum(p["wall_ns"] for p in untraced_passes)
                  / len(untraced_passes))
    put_ratio("bench.tracing_overhead_pct", traced_wall - plain_wall,
              plain_wall, "traced - untraced pass wall ns",
              "untraced pass wall ns", 100.0)
    return m, bases


def sampled_sigma_pct(sampled):
    """Mean over sampled jobs of the predicted IPC uncertainty, %."""
    if not sampled:
        return 0.0
    return 100.0 * sum(j["ipc_sigma"] for j in sampled) / len(sampled)
