#!/usr/bin/env python3
"""Self-tests of the pipeline benchmark.

    python3 pipeline_bench/test_run.py

Covers the tail-percentile rule, the HYPATIA_* refusal, the digest
bookkeeping and the reference-speed scaling of run.py, the probe binary
and — through the C++ pipeline_bench_selftest binary, built on demand —
the output digests themselves.
"""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = list(range(100))
        value, pct = run.tail(samples)
        self.assertEqual(value, 89)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_order_of_input_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        self.assertEqual(run.tail(samples), run.tail(sorted(samples)))
        self.assertEqual(run.tail(samples)[0], 1.0)

    def test_smallest_sample_count(self):
        value, pct = run.tail([3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11])
        self.assertEqual(value, 1)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail(list(range(10)))

    def test_percentile_grows_with_samples(self):
        self.assertAlmostEqual(run.tail(list(range(79)))[1], 100.0 * 69 / 79)
        self.assertAlmostEqual(run.tail(list(range(1000)))[1], 99.0)


class KnobRefusal(unittest.TestCase):
    def test_lists_only_hypatia_variables(self):
        env = {"HYPATIA_SNAPSHOT_MODE": "rebuild", "HYPATIA_CKPT_DIR": "/x",
               "PATH": "/bin", "NOT_HYPATIA_X": "1"}
        self.assertEqual(run.hypatia_knobs(env),
                         ["HYPATIA_CKPT_DIR", "HYPATIA_SNAPSHOT_MODE"])
        self.assertEqual(run.hypatia_knobs({"PATH": "/bin"}), [])

    def test_run_refuses_before_building(self):
        for knob in ("HYPATIA_SNAPSHOT_MODE", "HYPATIA_ROUTE_ALGO",
                     "HYPATIA_SGP4_KERNEL", "HYPATIA_CKPT_INTERVAL_S"):
            env = dict(os.environ, **{knob: "1"})
            out = subprocess.run(
                [sys.executable, run.__file__, "--workload", "gen2_sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                env=env, capture_output=True, text=True, timeout=30)
            self.assertEqual(out.returncode, 2, knob)
            self.assertEqual(out.stdout, "", knob)
            self.assertIn(knob, out.stderr)


class DigestBookkeeping(unittest.TestCase):
    def episodes(self, *digests):
        return [{"mode": "plain", "digest": d} for d in digests] + [
            {"mode": "setup", "digest": "ignored"}]

    def test_first_run_records_reference(self):
        with tempfile.TemporaryDirectory() as tmp:
            ref = os.path.join(tmp, "digests", "w-1.txt")
            seen, reference, bad = run.check_digests(self.episodes("aa", "aa"), ref)
            self.assertEqual((seen, reference, bad), (["aa"], "aa", []))
            seen, reference, bad = run.check_digests(self.episodes("aa"), ref)
            self.assertEqual(bad, [])
            seen, reference, bad = run.check_digests(self.episodes("ab"), ref)
            self.assertEqual(reference, "aa")
            self.assertEqual(len(bad), 1)

    def test_disagreeing_episodes_all_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            ref = os.path.join(tmp, "w-1.txt")
            _, reference, bad = run.check_digests(self.episodes("aa", "bb"), ref)
            self.assertIsNone(reference)
            self.assertEqual(len(bad), 2)
            self.assertFalse(os.path.exists(ref))


class ReferenceSpeed(unittest.TestCase):
    REF = {"alu_s": run.REF_ALU_S, "mem_s": run.REF_MEM_S}

    def test_reference_probe_has_slowness_one(self):
        self.assertAlmostEqual(run.slowness(self.REF), 1.0)

    def test_slowness_is_geometric_mean_of_kernels(self):
        probe = {"alu_s": 2 * run.REF_ALU_S, "mem_s": 8 * run.REF_MEM_S}
        self.assertAlmostEqual(run.slowness(probe), 4.0)

    def test_run_slowness_is_first_quartile_of_samples(self):
        samples = [{"alu_s": k * run.REF_ALU_S, "mem_s": k * run.REF_MEM_S}
                   for k in (5, 1, 4, 2, 3, 6, 7)]
        self.assertAlmostEqual(run.run_slowness(samples), 2.0)
        self.assertAlmostEqual(run.run_slowness(samples[:1]), 5.0)

    def test_end_to_end_divides_times_by_run_slowness(self):
        twice = {"alu_s": 2 * run.REF_ALU_S, "mem_s": 2 * run.REF_MEM_S}
        steps = [0.01 * (k + 1) for k in range(20)]
        plain = [{"step_s": steps, "setup_s": 0.5},
                 {"step_s": [s * 1.5 for s in steps], "setup_s": 0.7}]
        setups = [{"setup_s": 0.5}]
        raw = {"step_virtual_s": 0.1, "peak_rss_mb": 10.0, "probes": [twice] * 5}
        values, notes = run.end_to_end(raw, plain, setups)
        wall = notes["wall"]
        self.assertAlmostEqual(wall["rtf"], 20 * 0.1 / sum(steps))
        self.assertAlmostEqual(values["rtf"], 2 * wall["rtf"])
        self.assertAlmostEqual(values["step_p50_ms"], wall["step_p50_ms"] / 2)
        self.assertAlmostEqual(values["step_tail_ms"], wall["step_tail_ms"] / 2)
        self.assertAlmostEqual(values["setup_s"], 0.25)
        self.assertEqual(values["peak_rss_mb"], 10.0)


class OutputDigests(unittest.TestCase):
    def test_cpp_digest_selftest(self):
        run.build()
        out = subprocess.run([os.path.join(run.BUILD_DIR, "pipeline_bench_selftest")],
                             capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stdout)

    def test_probe_samples_both_kernels(self):
        run.build()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "probe.txt")
            with open(path, "w") as out:
                subprocess.run([run.PROBE, "--seconds", "0.5"], stdout=out,
                               check=True, timeout=30)
            probes = run.read_probes(path)
        self.assertGreater(len(probes), 1)
        for probe in probes:
            self.assertGreater(probe["alu_s"], 0.0)
            self.assertGreater(probe["mem_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
