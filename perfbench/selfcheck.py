"""Self-checks of the benchmark's own arithmetic and plumbing.

    python3 perfbench/selfcheck.py

Covers the percentile rule, self time on a synthetic span tree, the oracle
on known answers, the checks rejecting wrong answers, BENCHMARK.json against
the metrics the code reports, and a tiny-size smoke run of every workload
(untraced and traced) with the answer checks on.
"""

from __future__ import annotations

import json
import os
import tempfile
import unittest

import oracle
import run
import spans
import stats
import workloads


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 0.9), 90)
        with self.assertRaises(ValueError):
            stats.percentile(xs[:99], 0.9)

    def test_p50(self):
        self.assertEqual(stats.percentile(range(1, 21), 0.5), 10)
        with self.assertRaises(ValueError):
            stats.percentile(range(1, 20), 0.5)


class Passes(unittest.TestCase):
    @staticmethod
    def rec(*ts, loop=10.0, probe=run.REF_PROBE_S):
        ops = [{"outcome": "skipped", "t": (0.0, 0.0)} if t is None
               else {"outcome": "ok", "t": (1.0, 1.0 + t)} for t in ts]
        return {"ops": ops, "loop_s": loop, "probes": [probe, 9.0, probe]}

    def test_median_pass_per_op_and_skips(self):
        passes = [self.rec(3.0, None, 1.0), self.rec(2.0, 5.0, 4.0),
                  self.rec(0.5, None, 2.0)]
        self.assertEqual(run.op_latencies(passes), {0: 2.0, 1: 5.0, 2: 2.0})

    def test_median_wall(self):
        passes = [self.rec(loop=t) for t in (4.0, 9.0, 5.0, 6.0)]
        self.assertEqual(run.median_wall(passes), 5.5)

    def test_times_scale_to_the_reference_speed(self):
        # a pass on a host twice as slow reads as the same pass on a quiet host
        slow = self.rec(4.0, loop=8.0, probe=2 * run.REF_PROBE_S)
        self.assertEqual(run.slowdown(slow), 2.0)
        self.assertEqual(run.op_latencies([slow]), {0: 2.0})
        self.assertEqual(run.median_wall([slow]), 4.0)


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        self.assertEqual(spans.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_and_overhanging_children(self):
        # children [1,5] and [4,7] cover 6 of the root; [9,12] only 1 of it
        parent = [-1, 0, 0, 0]
        start = [0.0, 1.0, 4.0, 9.0]
        end = [10.0, 5.0, 7.0, 12.0]
        self.assertEqual(spans.self_times(parent, start, end)[0], 3.0)

    def test_round_trip_through_a_span_file(self):
        tracer = spans.Tracer()
        tracer.names.append("leaf")
        for i in range(3):
            tracer.begin_op(i)
            tracer._close(tracer._open(1))
            tracer.end_op()
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.bin")
            tracer.write(path)
            names, (nid, parent, op, start, end) = spans.read_spans(path)
        self.assertEqual(names, ["op", "leaf"])
        self.assertEqual(list(nid), [0, 1] * 3)
        self.assertEqual(list(parent), [-1, 0, -1, 2, -1, 4])
        self.assertEqual(list(op), [0, 0, 1, 1, 2, 2])
        selfs = spans.self_times(parent, start, end)
        self.assertTrue(all(s >= 0 for s in selfs))
        self.assertAlmostEqual(sum(selfs), sum(end[i] - start[i] for i in (0, 2, 4)))


class Oracle(unittest.TestCase):
    def setUp(self):
        self.grig = workloads.load_rec(run.ROOT, "grigorchuk")
        self.act = oracle.action_for(self.grig, 6)

    def test_generators_move_and_relators_do_not(self):
        for g in range(1, 5):
            self.assertFalse(self.act.is_identity((g,)))
        for rel in self.grig.facts["cover_relators"]:
            self.assertTrue(self.act.is_identity(oracle.parse_word(rel, self.grig.gens)))
        self.assertTrue(self.act.is_identity(oracle.lysenok("v", 2)))

    def test_section_perm(self):
        # b = (a, c): its sections act on level k as a and c do
        b, a, c = 2, 1, 3
        self.assertEqual(self.act.section_perm((b,), 0, 3), self.act.perm((a,), 3))
        self.assertEqual(self.act.section_perm((b,), 1, 3), self.act.perm((c,), 3))

    def test_growth(self):
        # the first Grigorchuk group's spheres have 1, 4, 6, 12 elements
        self.assertEqual(self.act.ball_sizes(3), [1, 5, 11, 23])
        self.assertEqual(oracle.f2_ball_sizes(3), [1, 5, 17, 53])


class ChecksBite(unittest.TestCase):
    def test_wrong_answers_fail(self):
        spec = workloads.build("tree", 3, run.ROOT, tiny=True)
        good = [{"outcome": "ok", "answer": op["expect"] if "expect" in op and op["kind"] != "cli"
                 else {"rc": 0, "doc": {"gamma": op["expect"]["gamma"]}}} for op in spec["ops"]]
        self.assertEqual(set(workloads.check(spec, good)), {"ok"})
        flipped = [dict(r) for r in good]
        i = next(k for k, op in enumerate(spec["ops"]) if op["kind"] == "wp")
        flipped[i]["answer"] = not flipped[i]["answer"]
        self.assertTrue(workloads.check(spec, flipped)[i].startswith("failed"))
        flipped[i] = {"outcome": "timeout"}
        self.assertTrue(workloads.check(spec, flipped)[i].startswith("failed"))
        flipped[i] = {"outcome": "budget"}
        self.assertEqual(workloads.check(spec, flipped)[i], "undecided")

    def test_decreasing_chain_fails(self):
        spec = workloads.build("converge", 3, run.ROOT, tiny=True)
        results = []
        for op in spec["ops"]:
            if "chain" in op:
                v = op["radius"] - op["level"]  # decreases along the chain
                doc = {"v": v, "at_least": False, "d": 2.718281828459045 ** -v}
            else:
                rows = [{"n": n, "v": n, "at_least": False, "d": 2.718281828459045 ** -n}
                        for n in range(5)]
                doc = {"rows": rows, "non_decreasing": True}
            results.append({"outcome": "ok", "answer": {"rc": 0, "doc": doc}})
        verdicts = workloads.check(spec, results)
        for op, v in zip(spec["ops"], verdicts):
            self.assertEqual(v.startswith("failed"), "chain" in op, (op, v))


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         spans.per_layer_metrics())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.NAMES))


class SmokeRun(unittest.TestCase):
    """Tiny op lists through real workers, answers checked."""

    def _run(self, name, mode, path=None):
        spec = workloads.build(name, 5, run.ROOT, tiny=True)
        rec = run.run_worker(spec, mode, 120.0, path)
        verdicts = workloads.check(spec, rec["ops"])
        self.assertFalse([v for v in verdicts if v.startswith("failed")], name)
        return spec, rec, verdicts

    def test_untraced(self):
        for name in workloads.NAMES:
            with self.subTest(name):
                _, rec, verdicts = self._run(name, "pass")
                self.assertGreater(verdicts.count("ok"), 0)
                self.assertGreater(rec["setup"][1] - rec["setup"][0], 0)
                latencies = run.op_latencies([rec])
                self.assertEqual(len(latencies), len(verdicts) - verdicts.count("skipped"))
                self.assertTrue(all(t > 0 for t in latencies.values()))
                self.assertGreaterEqual(run.median_wall([rec]), sum(latencies.values()))
                self.assertGreater(run.slowdown(rec), 0)

    def test_traced(self):
        expected = {name for name, _, _ in spans.per_layer_metrics()}
        with tempfile.TemporaryDirectory() as d:
            for name in workloads.NAMES:
                with self.subTest(name):
                    path = os.path.join(d, f"{name}.bin")
                    spec, rec, _ = self._run(name, "trace", path)
                    layers = spans.layer_metrics(path, rec["counts"])
                    self.assertEqual(set(layers), expected)
                    names, (nid, *_rest) = spans.read_spans(path)
                    ops_traced = sum(1 for k in nid if names[k] == "op")
                    self.assertEqual(ops_traced, sum(op["outcome"] != "skipped"
                                                     for op in rec["ops"]))
                    if name == "converge":
                        # every dist op starts from cold caches, so it rebuilds
                        # and completes the cover even with the wrappers installed
                        dists = sum("chain" in op for op in spec["ops"])
                        self.assertGreaterEqual(layers["rewriting.complete.calls"], dists)


if __name__ == "__main__":
    unittest.main()
