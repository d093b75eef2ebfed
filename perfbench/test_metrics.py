#!/usr/bin/env python3
"""Self-tests of the benchmark's metric math and output checks.

    python3 perfbench/test_metrics.py

Needs no build: every case feeds hand-made records to metrics.py.
"""

import copy
import json
import math
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402
import run  # noqa: E402


def exact_job(**kw):
    """A correct exact job: 4-wide, 100k committed over 50k cycles with
    100k stall slots."""
    row = {"ipc": 2.0, "cycles": 50000, "committed": 100000,
           "stall_mem": 60000, "stall_issue": 40000}
    row.update(kw.pop("row", {}))
    j = {"pass": 0, "job": 1, "mode": "exact", "preset": "swim",
         "suite": "fp", "machine": "dkip", "kind": "dkip", "setup_ns": 10,
         "run_ns": 1000, "insts": 120000, "measure_insts": 100000,
         "width": 4, "aborted": 0, "row": row, "stats": {}}
    j.update(kw)
    j["row_text"] = json.dumps(j["row"], sort_keys=True)
    return j


def sampled_job(**kw):
    j = {"pass": 0, "job": 1, "mode": "sampled", "preset": "mcf",
         "suite": "int", "machine": "kilo", "kind": "kilo", "setup_ns": 0,
         "run_ns": 1000, "insts": 20000000, "represented": 20000000,
         "detail": 1300000, "warm": 1200000, "skipped": 17500000,
         "ipc_sigma": 0.02, "sigmas_finite": 1, "aborted": 0,
         "row": {"ipc": 0.5}, "stats": {}, "phases": {}}
    j.update(kw)
    j["row_text"] = json.dumps(j["row"], sort_keys=True)
    return j


class PaperError(unittest.TestCase):
    def table(self, scale):
        """One job per paper cell whose IPC is paper x scale."""
        return [{"suite": s, "machine": m, "row": {"ipc": v * scale}}
                for (s, m), v in metrics.PAPER_FIG9_AVG_IPC.items()]

    def test_exact_match_is_zero(self):
        self.assertAlmostEqual(metrics.paper_ipc_err_pct(self.table(1.0)),
                               0.0)

    def test_uniform_offset(self):
        # Every cell 10% high; two-decimal rounding moves some cells by
        # <= 0.005 / paper, so allow a quarter percentage point.
        self.assertAlmostEqual(metrics.paper_ipc_err_pct(self.table(1.1)),
                               10.0, delta=0.25)

    def test_averages_per_suite_and_rounds_like_bench_fig09(self):
        jobs = self.table(1.0)
        # Two INT r10-64 presets averaging 1.194 -> printed 1.19: no error.
        jobs = [j for j in jobs if (j["suite"], j["machine"])
                != ("int", "r10-64")]
        jobs += [{"suite": "int", "machine": "r10-64", "row": {"ipc": x}}
                 for x in (1.0, 1.388)]
        self.assertAlmostEqual(metrics.paper_ipc_err_pct(jobs), 0.0)
        jobs[-1]["row"]["ipc"] = 1.6   # mean 1.30: |1.30-1.19|/1.19
        self.assertAlmostEqual(metrics.paper_ipc_err_pct(jobs),
                               100.0 * (0.11 / 1.19) / 9)

    def test_ignores_cells_the_paper_lacks(self):
        jobs = self.table(1.0) + [{"suite": "int", "machine": "r10-768",
                                   "row": {"ipc": 9.0}}]
        self.assertAlmostEqual(metrics.paper_ipc_err_pct(jobs), 0.0)


class Pooling(unittest.TestCase):
    def test_pooled_not_mean_of_ratios(self):
        jobs = [{"kind": "ooo", "insts": 1000, "run_ns": 1000},
                {"kind": "ooo", "insts": 1000, "run_ns": 3000},
                {"kind": "dkip", "insts": 500, "run_ns": 250}]
        p = metrics.pooled_mips(jobs)
        # 2000 insts / 4000 ns = 0.5 inst/ns = 500 MIPS (the mean of
        # the per-job ratios would be 666.7).
        self.assertAlmostEqual(p["ooo"], 500.0)
        self.assertAlmostEqual(p["dkip"], 2000.0)
        self.assertEqual(p["kilo"], 0.0)

    def test_end_to_end_is_median_over_passes(self):
        passes = [{"pass": 0, "wall_ns": 10e9, "setup_ns": 1e9},
                  {"pass": 1, "wall_ns": 20e9, "setup_ns": 2e9},
                  {"pass": 2, "wall_ns": 11e9, "setup_ns": 3e9}]
        jobs = []
        for p, ns in ((0, 9e9), (1, 18e9), (2, 8e9)):
            jobs.append({"pass": p, "kind": "kilo", "insts": 9e6,
                         "run_ns": ns})
        m = metrics.end_to_end(passes, jobs,
                               [p["setup_ns"] for p in passes], 2048)
        self.assertAlmostEqual(m["setup_s"], 2.0)
        # Median time outside setup (9 s, not the mean 11.7) plus setup.
        self.assertAlmostEqual(m["wall_s"], 11.0)
        self.assertAlmostEqual(m["sim_mips"], 1.0)     # 9e6 / 9 s
        self.assertAlmostEqual(m["mips_kilo"], 1.0)
        self.assertEqual(m["mips_ooo"], 0.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)

    def test_setup_timed_apart_from_the_passes(self):
        # The sampled workload's passes hold no setup; its setups are
        # timed before them and reported as their median.
        passes = [{"pass": p, "wall_ns": 4e9, "setup_ns": 0}
                  for p in range(3)]
        jobs = [{"pass": p, "kind": "dkip", "insts": 8e6, "run_ns": 4e9}
                for p in range(3)]
        m = metrics.end_to_end(passes, jobs, [3e9, 1e9, 1.5e9], 1024)
        self.assertAlmostEqual(m["setup_s"], 1.5)
        self.assertAlmostEqual(m["wall_s"], 5.5)
        self.assertAlmostEqual(m["sim_mips"], 2.0)


def span(i, parent, start, end, name="x"):
    return {"id": i, "parent": parent, "start": start, "end": end,
            "name": name, "pass": 0, "job": 1}


class SelfTime(unittest.TestCase):
    def test_leaf_is_whole_duration(self):
        self.assertEqual(metrics.self_times([span(1, 0, 5, 25)]), {1: 20})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 100),
                 span(2, 1, 10, 40), span(3, 1, 30, 60),  # overlap
                 span(4, 1, 90, 120),                     # sticks out
                 span(5, 2, 15, 20)]                      # grandchild
        st = metrics.self_times(spans)
        # Children cover [10,60] and [90,100]: 60 of 100 ns.
        self.assertEqual(st[1], 40)
        self.assertEqual(st[2], 25)
        self.assertEqual(st[5], 5)

    def test_nested_child_inside_child(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 1, 10, 20)]
        self.assertEqual(metrics.self_times(spans)[1], 50)

    def test_span_table_sums_by_name(self):
        spans = [span(1, 0, 0, 10, "a"), span(2, 0, 20, 40, "a"),
                 span(3, 2, 25, 30, "b")]
        t = metrics.span_table(spans)
        self.assertEqual(t["a"], {"count": 2, "total_ns": 30, "self_ns": 25})
        self.assertEqual(t["b"]["self_ns"], 5)

    def test_sample_phases_become_children(self):
        run = span(7, 3, 1000, 2000, "sample.run")
        job = {"job": 1, "phases": {"fingerprint": 100, "cluster": 10,
                                    "simulate": 800, "reconstruct": 5}}
        kids = metrics.phase_spans([run], [job])
        self.assertEqual([(k["name"], k["start"], k["end"]) for k in kids],
                         [("sample.fingerprint", 1000, 1100),
                          ("sample.cluster", 1100, 1110),
                          ("sample.simulate", 1110, 1910),
                          ("sample.reconstruct", 1910, 1915)])
        self.assertEqual(metrics.self_times([run] + kids)[7], 85)


class PerLayer(unittest.TestCase):
    def test_counts_times_and_bases_per_traced_pass(self):
        traced = [{"pass": 1, "wall_ns": 110}, {"pass": 3, "wall_ns": 130}]
        plain = [{"pass": 0, "wall_ns": 100}, {"pass": 2, "wall_ns": 100}]
        jobs = []
        for p, job in ((1, 10), (3, 20)):
            jobs.append(exact_job(
                **{"pass": p, "job": job,
                   "stats": {"committed": 100, "cycles": 50,
                             "fetched": 125, "stall_mem": 80,
                             "mem_fills": 3, "mshr_merges": 1,
                             "llib_inserted_int": 2,
                             "llib_inserted_fp": 5}}))
        spans = [span(1, 0, 0, 4e6, "sim.measure"),
                 span(2, 0, 0, 6e6, "sim.measure"),
                 span(3, 0, 0, 900, "mem.access")]
        spans[0].update({"pass": 1, "job": 10})
        spans[1].update({"pass": 3, "job": 20})
        spans[2].update({"pass": 4, "job": 30})   # a probe span
        m, bases = metrics.per_layer(traced, jobs, spans,
                                     {"mem_ops": 300}, plain)
        self.assertAlmostEqual(m["sim.measure_ms.dkip"], 5.0)
        self.assertAlmostEqual(m["core.host_ns_per_inst.dkip"], 5e4)
        self.assertEqual(bases["core.host_ns_per_inst.dkip"]["den"], 200)
        self.assertAlmostEqual(m["dkip.llib_inserted"], 7.0)
        self.assertAlmostEqual(m["core.commit_per_fetch"], 0.8)
        self.assertAlmostEqual(m["core.stall_mem_share"], 0.4)
        self.assertAlmostEqual(m["mem.merge_ratio"], 0.25)
        self.assertAlmostEqual(m["mem.access_ns"], 3.0)
        self.assertAlmostEqual(m["bench.tracing_overhead_pct"], 20.0)
        self.assertEqual(m["trace.read_ns_per_op"], 0.0)


class Records(unittest.TestCase):
    def test_split_attaches_row_stats_and_phases_to_their_job(self):
        row = '{"machine":"dkip","ipc":1.5}'
        lines = ['setup 0 {"ns":7}',
                 'job 3 {"pass":0,"mode":"sampled","kind":"dkip"}',
                 'row 3 ' + row,
                 'phases 3 {"fingerprint":5,"simulate":9}',
                 'stats 3 {"committed":100}',
                 'span 3 {"pass":0,"id":1,"parent":0,"name":"sample.run",'
                 '"start":0,"end":20}',
                 'pass 0 {"pass":0,"traced":0,"wall_ns":30,"setup_ns":0}']
        by = run.split(lines)
        job = by["job"][0]
        self.assertEqual(job["job"], 3)
        self.assertEqual(job["row_text"], row)
        self.assertEqual(job["row"]["ipc"], 1.5)
        self.assertEqual(job["stats"], {"committed": 100})
        self.assertEqual(by["setup"], [{"ns": 7, "job": 0}])
        # The phases become child spans of sample.run.
        self.assertEqual([s["name"] for s in by["span"]],
                         ["sample.run"] + ["sample." + p
                                           for p in metrics.SAMPLE_PHASES])


class Checks(unittest.TestCase):
    def test_good_jobs_pass(self):
        jobs = [exact_job(), sampled_job(job=2)]
        failed, problems, fp = metrics.check_run(jobs)
        self.assertEqual((failed, problems), (0, []))
        self.assertEqual(len(fp), 16)

    def assertFires(self, job, text):
        bad = metrics.check_job(job)
        self.assertTrue(any(text in b for b in bad), bad)

    def test_short_commit(self):
        self.assertFires(exact_job(row={"committed": 99999}),
                         "< measureInsts")

    def test_aborted(self):
        self.assertFires(exact_job(aborted=1), "aborted")
        self.assertFires(sampled_job(aborted=1), "aborted")

    def test_stall_slot_sum(self):
        self.assertFires(exact_job(row={"stall_mem": 60001}), "sum(stall_*)")
        self.assertFires(exact_job(width=8), "sum(stall_*)")

    def test_sampled_error_bars(self):
        self.assertFires(sampled_job(sigmas_finite=0), "not finite")
        self.assertFires(sampled_job(ipc_sigma=math.nan), "not finite")
        self.assertFires(sampled_job(ipc_sigma=math.inf), "not finite")

    def test_sampled_detail_budget(self):
        self.assertFires(sampled_job(detail=19000000), "represented")

    def test_rows_fnv_must_repeat_across_passes(self):
        a = exact_job()
        b = copy.deepcopy(a)
        b["pass"] = 1
        self.assertEqual(metrics.check_run([a, b])[0], 0)
        b["row_text"] = b["row_text"].replace("50000", "50001")
        failed, problems, _ = metrics.check_run([a, b])
        self.assertEqual(failed, 1)
        self.assertIn("rows_fnv", problems[0])

    def test_fnv_reference_value(self):
        # FNV-1a 64 of "a" (published test vector).
        self.assertEqual(metrics.fnv1a64(["a"]), "af63dc4c8601ec8c")


if __name__ == "__main__":
    unittest.main()
