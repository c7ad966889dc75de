"""Self-tests of the benchmark.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They cover the seeded generator, the oracle, the metric names against
BENCHMARK.json, the one-command-in-flight client, and the refusal to run
without the orbitspace sources. The whole runs take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"


def setUpModule():
    SCRATCH.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:
        pass


def cli(argv):
    """Run the orbitspace CLI from the sources under test."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitspace", *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout


def first(commands, label_start):
    return next(c for c in commands if c.label.startswith(label_start))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            a, b = SCRATCH / f"{workload}-a", SCRATCH / f"{workload}-b"
            cmds_a = workloads.build(workload, 11, a)
            cmds_b = workloads.build(workload, 11, b)
            files = sorted(p.name for p in a.iterdir())
            self.assertEqual(files, sorted(p.name for p in b.iterdir()))
            for name in files:
                self.assertEqual((a / name).read_bytes(), (b / name).read_bytes(), name)
            strip = lambda cmds, d: [[x.replace(str(d), "") for x in c.argv] for c in cmds]  # noqa: E731
            self.assertEqual(strip(cmds_a, a), strip(cmds_b, b))
            self.assertEqual([c.check[:2] for c in cmds_a], [c.check[:2] for c in cmds_b])

    def test_other_seed_gives_other_inputs(self):
        for workload in workloads.WORKLOADS:
            a, b = SCRATCH / f"{workload}-s1", SCRATCH / f"{workload}-s2"
            workloads.build(workload, 1, a)
            workloads.build(workload, 2, b)
            differs = [p.name for p in a.iterdir() if p.read_bytes() != (b / p.name).read_bytes()]
            self.assertTrue(differs, workload)


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.closure = workloads.build("closure", 3, SCRATCH / "oracle-closure")
        cls.tables = workloads.build("tables", 3, SCRATCH / "oracle-tables")

    def test_rejects_every_one_byte_mutation_of_an_orbits_report(self):
        command = first(self.closure, "orbits S6")
        rc, out = cli(command.argv)
        self.assertIsNone(oracle.verify(command.check, rc, out))
        for i in range(len(out)):
            for byte in {(out[i] + 1) % 256, ord(" "), ord("\t")} - {out[i]}:
                mutated = out[:i] + bytes([byte]) + out[i + 1 :]
                self.assertIsNotNone(oracle.verify(command.check, rc, mutated), (i, byte))

    def test_rejects_a_wrong_exit_code(self):
        command = first(self.closure, "orbits S5")
        rc, out = cli(command.argv)
        self.assertIsNotNone(oracle.verify(command.check, 2, out))

    def test_accepts_real_witnesses_and_rejects_fabricated_ones(self):
        for kind, fake in (
            ("NotAssociative", lambda e: {"a": e, "b": e, "c": e}),
            ("CompatibilityViolated", lambda e: {"a": e, "b": e, "point": 0}),
        ):
            command = first(self.tables, f"validate conj-S5 {kind}")
            rc, out = cli(command.argv)
            self.assertEqual(rc, 2)
            self.assertIsNone(oracle.verify(command.check, rc, out))
            doc = json.loads(out)
            mul = command.check[2][1]
            doc["witness"] = fake(workloads.identity_of(mul))
            forged = oracle.render(doc).encode()
            self.assertIn("witness", oracle.verify(command.check, rc, forged))
            doc = json.loads(out)
            doc["error"] = "NoInverse"
            self.assertIsNotNone(oracle.verify(command.check, rc, oracle.render(doc).encode()))

    def test_rejects_a_fabricated_free_check_witness(self):
        command = first(self.closure, "free-check A6")
        rc, out = cli(command.argv)
        self.assertIsNone(oracle.verify(command.check, rc, out))
        doc = json.loads(out)
        doc["witness"]["element"] = 0
        self.assertIsNotNone(oracle.verify(command.check, rc, oracle.render(doc).encode()))


def descendants(pid):
    found, stack = [], [pid]
    while stack:
        parent = stack.pop()
        try:
            children = Path(f"/proc/{parent}/task/{parent}/children").read_text().split()
        except OSError:
            continue
        found += [int(c) for c in children]
        stack += [int(c) for c in children]
    return found


def is_command(pid):
    try:
        argv = Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")
    except OSError:
        return False
    return b"orbitspace" in argv or any(a.endswith(b"tracer.py") for a in argv)


class RunTest(unittest.TestCase):
    """Whole runs on the shorter workload, watched from /proc."""

    def watched_run(self, args, cwd=ROOT):
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", *args],
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        peak = [0]
        done = threading.Event()

        def watch():
            while not done.is_set():
                alive = sum(is_command(p) for p in descendants(proc.pid))
                peak[0] = max(peak[0], alive)
                time.sleep(0.002)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            out, err = proc.communicate(timeout=170)
        finally:
            done.set()
            watcher.join(timeout=5)
        self.assertFalse(watcher.is_alive())
        return proc.returncode, out.decode(), err.decode(), peak[0]

    def check_run(self, trace, expected):
        args = ["--workload", "closure", "--seed", "5", "--seconds", "1", "--trace", str(trace)]
        rc, out, err, peak = self.watched_run(args)
        self.assertEqual(rc, 0, err)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out + err)
        self.assertEqual(result["failed"], 0)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        if Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists():
            self.assertGreaterEqual(peak, 1)
            self.assertLessEqual(peak, os.cpu_count())

    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.check_run(0, {m["name"]: m["unit"] for m in spec["end_to_end"]})

    def test_traced_run_prints_every_per_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.check_run(1, {m["name"]: m["unit"] for m in spec["per_layer"]})

    def test_refuses_to_run_without_the_sources(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        args = ["--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0"]
        rc, out, err, _ = self.watched_run(args, cwd=bare)
        self.assertNotEqual(rc, 0)
        self.assertEqual(out, "")
        self.assertEqual(sorted(p.name for p in bare.iterdir()), ["BENCHMARK.json", "perfbench"])


if __name__ == "__main__":
    unittest.main()
