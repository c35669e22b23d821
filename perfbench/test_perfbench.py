"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench

from the root of a checkout. They take about a minute: the last class runs
every workload end to end on a few small requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import propfox  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SYNTHETIC = ("divisor-chain", "point-queries", "long-words")


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for w in workloads.WORKLOADS:
            a = json.dumps(workloads.batch(w, 7, 1))
            b = json.dumps(workloads.batch(w, 7, 1))
            self.assertEqual(a.encode(), b.encode(), w)
            if w != "corpus":  # the corpus is the same on every seed
                self.assertNotEqual(a, json.dumps(workloads.batch(w, 8, 1)), w)

    def test_batches_are_whole_cycles(self):
        for w in SYNTHETIC:
            self.assertEqual(workloads.BATCH[w] % len(workloads.CLASSES[w]), 0, w)

    def test_planted_zeros_are_zeros_of_the_divisor(self):
        # The smallest class of each workload, on a few seeds.
        for w in SYNTHETIC:
            for seed in (1, 2, 3):
                i = len(workloads.CLASSES[w]) * seed + (1 if w == "long-words" else 0)
                req = workloads.GENERATORS[w](seed, i)
                pres = propfox.parse_presentation(req["pres"])
                phi = (
                    propfox.parse_representation(req["rep"], pres)
                    if req["rep"]
                    else propfox.Representation.trivial(pres.n_generators)
                )
                Q = propfox.alexander_matrix(pres, phi)
                delta = propfox.fitting_delta(Q, req["ell"]).delta
                found = dict(propfox.rational_roots(delta))
                for z, m in req["planted"]:
                    self.assertGreaterEqual(found.get(Fraction(z), 0), m, (w, seed, z))
                    self.assertEqual(delta.eval_at(Fraction(z)), 0)


class Worker(unittest.TestCase):
    def test_time_limit_records_timeout(self):
        def slow(tr, req):
            time.sleep(5)

        with mock.patch.dict(worker.HANDLERS, {"slow": slow}):
            old = worker.signal.signal(worker.signal.SIGALRM, worker._on_alarm)
            try:
                status, secs = worker.run_one(worker.Tracer(False), {"kind": "slow"}, 0.2)
            finally:
                worker.signal.signal(worker.signal.SIGALRM, old)
        self.assertEqual(status, "timeout")
        self.assertLess(secs, 2)

    def test_wrong_answer_is_a_failure(self):
        req = dict(workloads.GENERATORS["point-queries"](1, 0), planted=[["1/3", 1]])
        status, _ = worker.run_one(worker.Tracer(False), req, 30)
        self.assertTrue(status.startswith("wrong"), status)

    def test_spans_carry_layer_and_request(self):
        tr = worker.Tracer(True)
        tr.request = 5
        status, _ = worker.run_one(tr, workloads.GENERATORS["point-queries"](1, 0), 30)
        self.assertEqual(status, "ok")
        layers = {s[1] for s in tr.spans}
        self.assertLessEqual({"presentation", "fox", "fitting", "zeros"}, layers)
        self.assertTrue(all(s[0] == 5 and s[3] <= s[4] for s in tr.spans))


class QuickRun(unittest.TestCase):
    """Every workload end to end, through run.py, on one small batch."""

    def quick(self, workload: str, trace: int) -> dict:
        batch = workloads.batch

        def small(w, seed, b):
            full = batch(w, seed, b)
            return full if w == "corpus" else full[:2]

        out = io.StringIO()
        with mock.patch.dict(workloads.MIN_BATCHES, {workload: 1}), mock.patch.object(
            run, "COLD_PER_BATCH", 1
        ), mock.patch.object(run.workloads, "batch", small), contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace)])
        self.assertEqual(code, 0)
        lines = out.getvalue().splitlines()
        self.assertTrue(lines[0].startswith("environment: python"))
        return json.loads(lines[-1])

    def test_every_workload(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            names = {m["name"]: m["unit"] for m in spec[key]}
            for w in workloads.WORKLOADS:
                res = self.quick(w, trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], (w, trace))
                self.assertEqual(res["failed"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, names, (w, trace))

    def test_refuses_without_the_program(self):
        with mock.patch.object(run, "ROOT", HERE / "no-such-checkout"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
                code = run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"])
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
