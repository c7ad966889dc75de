"""Benchmark for the orbitspace CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single closed-loop client runs one ``python -m orbitspace ...`` process per
command, one command in flight at a time, over a pass of seeded inputs that
``workloads.py`` writes for the workload. Passes repeat until S seconds have
passed (at least two passes untraced, one traced). Every report is checked
by ``oracle.py``.

With ``--trace 0`` it prints the end-to-end metrics, in reference-speed
seconds. On a shared host, load from other tenants slows every process by up
to a factor of two, in phases that can outlast a run. So ``spawn.py`` times a
fixed reference loop just before and just after each command, and each
sample is scaled by REFERENCE_LOOP_S over that time: the command's time on
the host running at the speed it has when quiet. Each command then counts
once, at the median of its scaled samples across the run's passes. The raw
figures are printed beside the result.

With ``--trace 1`` each command is also run through ``tracer.py`` (the same
command in-process with its layers wrapped in spans); the traced output must
equal the untraced output byte for byte, and the per-layer metrics come from
the spans.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exits 2 without a result when
the orbitspace sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads

END_TO_END = {
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cmd_cpu_p50_s": "s",
    "cmds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer self times: metric -> span names whose self time is summed
SELF_TIME = {
    "groups.from_generators_s": ("groups.from_generators",),
    "groups.group_from_table_s": ("groups.group_from_table",),
    "groups.subgroup_generated_s": ("groups.FiniteGroup.subgroup_generated",),
    "actions.validate_action.self_s": ("actions.validate_action",),
    "actions.orbits_s": ("actions.GroupAction.orbits",),
    "actions.burnside_dimension_s": ("actions.GroupAction.burnside_dimension",),
    "actions.are_equivalent_s": ("actions.are_equivalent",),
    "spaces.fourier_s": ("spaces.fourier_projection", "spaces.fourier_coefficients"),
    "spaces.bessel_check_s": ("spaces.bessel_check",),
    "spaces.decompose_s": ("spaces.decompose",),
    "spaces.is_invariant_s": ("spaces.is_invariant",),
    "resind.induce_s": ("resind.induce",),
    "resind.invariant_subset_s": ("resind.invariant_subset",),
    "resind.reciprocity_check.self_s": ("resind.reciprocity_check",),
    "jsonio.json_load_s": ("cli._read_json",),
    "jsonio.action_from_json.self_s": ("jsonio.action_from_json",),
    "jsonio.function_from_json_s": ("jsonio.function_from_json", "jsonio.subset_function_from_json"),
    "jsonio.to_json_s": (
        "jsonio.action_to_json",
        "jsonio.group_to_json",
        "jsonio.function_to_json",
        "jsonio.scalar_to_json",
        "jsonio.rational_to_json",
        "jsonio.subset_function_to_json",
        "jsonio.partition_to_json",
    ),
    "cli.render_s": ("cli._render",),
    "corpus.build.self_s": ("corpus.build",),
    "partitions.group_from_partition.self_s": ("partitions.group_from_partition",),
    "cli.main.self_s": ("cli.main",),
}

# per-layer counts: metric -> span name whose calls are counted
SPAN_CALLS = {
    "actions.orbits_calls": "actions.GroupAction.orbits",
    "spaces.is_invariant_calls": "spaces.is_invariant",
}

# per-layer counts: metric -> counter kept by tracer.py
COUNTERS = {
    "groups.compose_calls": "groups.compose",
    "groups.elements": "groups.elements",
    "actions.fix_calls": "actions.fix",
    "scalars.gr_created": "scalars.gr_created",
    "jsonio.bytes_in": "jsonio.bytes_in",
    "cli.bytes_out": "cli.bytes_out",
}

PER_LAYER = dict.fromkeys(SELF_TIME, "s")
PER_LAYER.update(dict.fromkeys([*SPAN_CALLS, *COUNTERS], "count"))
PER_LAYER["jsonio.bytes_in"] = "bytes"
PER_LAYER["cli.bytes_out"] = "bytes"
PER_LAYER["groups.closure_yield"] = "ratio"
PER_LAYER["actions.orbits_per_cmd"] = "1/cmd"
PER_LAYER["trace.overhead_s"] = "s"

# re-anchor numbers in ROADMAP.md for the rows the traced run reproduces
BASELINES = {
    "from_generators S6": ("groups.from_generators on S6, order 720", 0.63),
    "validate_action conj S5": ("validate_action on conjugation S5", 0.060),
    "corpus build symmetric n=6": ("CLI corpus build symmetric --param n=6", 1.3),
}

SETUP = workloads.Command("corpus list", ["corpus", "list"], ("names", 0, None))
# reference_loop's time in spawn.py on the machine the benchmark was written
# on (2 CPUs, Python 3.11.7) with the host quiet
REFERENCE_LOOP_S = 0.012
SETUP_SLOTS = 5
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 90


@dataclass
class Sample:
    wall: float
    cpu: float
    maxrss_kb: int
    rc: int
    out: bytes
    err: bytes
    ref: float

    @property
    def scale(self) -> float:
        """The factor that turns this sample's times into reference-speed
        seconds."""
        return REFERENCE_LOOP_S / self.ref


class Runner:
    """Runs one command process at a time through spawn.py and collects its
    wall time, CPU time, peak RSS, exit code and output."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        spawner = [sys.executable, str(root / "perfbench" / "spawn.py"), str(COMMAND_TIMEOUT_S)]
        self.spawner = subprocess.Popen(
            spawner, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env, text=True
        )

    def run(self, argv, spans_path=None, command_id="") -> Sample:
        if spans_path is None:
            cmd = [sys.executable, "-m", "orbitspace", *argv]
        else:
            tracer = str(self.root / "perfbench" / "tracer.py")
            cmd = [sys.executable, tracer, str(spans_path), command_id, "--", *argv]
        out_path, err_path = self.work / "stdout.bin", self.work / "stderr.bin"
        request = {"argv": cmd, "stdout": str(out_path), "stderr": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the spawn process ended")
        reply = json.loads(line)
        return Sample(
            reply["wall"],
            reply["cpu"],
            reply["maxrss_kb"],
            reply["rc"],
            out_path.read_bytes(),
            err_path.read_bytes(),
            reply["ref"],
        )

    def close(self):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()


class Verdicts:
    """Oracle results, remembered per (command, exit code, output digest) so
    that a pass repeating the same bytes is not checked again."""

    def __init__(self):
        self.cache = {}
        self.failures = []

    def check(self, key, command, sample: Sample):
        key = (key, sample.rc, hashlib.sha256(sample.out).digest())
        if key not in self.cache:
            self.cache[key] = oracle.verify(command.check, sample.rc, sample.out)
        reason = self.cache[key]
        if reason is not None:
            detail = sample.err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
            self.failures.append(f"{command.label}: {reason} {detail[0]}".strip())
        return reason is None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(per_pass: int) -> int:
    """The highest whole percentile with at least ten of the pass's commands
    beyond it."""
    return max(50, math.floor(100 * (per_pass - 10) / per_pass))


def warm_up(runner, verdicts):
    """One untimed ``corpus list``: it fills ``__pycache__`` as any first
    start after an install would."""
    sample = runner.run(SETUP.argv)
    return verdicts.check("setup", SETUP, sample)


def pass_plan(commands):
    """The order of one untraced pass: the workload's commands, with
    SETUP_SLOTS ``corpus list`` set-ups spread evenly among them."""
    before = {round(k * len(commands) / SETUP_SLOTS): k for k in range(SETUP_SLOTS)}
    plan = []
    for i, command in enumerate(commands):
        if i in before:
            plan.append(("setup", before[i], SETUP))
        plan.append(("command", i, command))
    return plan


def run_plain(commands, runner, verdicts, seconds):
    """Whole passes until ``seconds`` have passed, and at least MIN_PASSES;
    returns every sample, grouped by command and by set-up slot."""
    samples = {"command": [[] for _ in commands], "setup": [[] for _ in range(SETUP_SLOTS)]}
    plan = pass_plan(commands)
    failed, passes = 0, 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for kind, i, command in plan:
            sample = runner.run(command.argv)
            failed += not verdicts.check(i if kind == "command" else "setup", command, sample)
            sample.out = b""  # keep memory flat; the verdict is cached by digest
            samples[kind][i].append(sample)
        passes += 1
    return samples, failed, passes


def self_times(spans):
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    totals, calls = defaultdict(float), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        totals[name] += end - start - children[i]
        calls[name] += 1
    return totals, calls


def first_span(spans, name):
    return next((end - start for n, start, end, _ in spans if n == name), None)


def run_traced(commands, runner, verdicts, seconds, work):
    """Each command untraced and traced, in alternating order; returns the
    span totals and counts summed over all passes. ``commands`` is the
    workload's pass followed by the layer probes."""
    plain, traced = [[] for _ in commands], [[] for _ in commands]
    failed, passes = 0, 0
    totals, calls, counts = defaultdict(float), Counter(), Counter()
    baselines = defaultdict(list)
    spans_path = work / "spans.json"
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, command in enumerate(commands):
            result = {}
            for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
                path = spans_path if use_tracer else None
                result[use_tracer] = runner.run(command.argv, path, f"{passes}:{i}")
            base, with_spans = result[False], result[True]
            ok = verdicts.check(i, command, base)
            if (with_spans.rc, with_spans.out) != (base.rc, base.out):
                verdicts.failures.append(f"{command.label}: traced output differs from untraced")
                ok = False
            failed += 2 * (not ok)
            plain[i].append(base.wall * base.scale)
            traced[i].append(with_spans.wall * with_spans.scale)
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            spans = doc["spans"]
            t, c = self_times(spans)
            for name, value in t.items():
                totals[name] += value
            calls.update(c)
            counts.update(doc["counts"])
            for tag in command.tags:
                if tag == "from_generators S6":
                    baselines[tag].append(first_span(spans, "groups.from_generators"))
                elif tag == "validate_action conj S5":
                    baselines[tag].append(first_span(spans, "actions.validate_action"))
                else:
                    baselines[tag].append(base.wall)
        passes += 1
    return {
        "totals": totals,
        "calls": calls,
        "counts": counts,
        "passes": passes,
        "plain": plain,
        "traced": traced,
        "failed": failed,
        "baselines": baselines,
    }


def layer_metrics(trace, per_pass):
    passes = trace["passes"]
    totals, calls, counts = trace["totals"], trace["calls"], trace["counts"]
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(totals.get(n, 0.0) for n in names) / passes
    for metric, name in SPAN_CALLS.items():
        out[metric] = calls.get(name, 0) / passes
    for metric, key in COUNTERS.items():
        out[metric] = counts.get(key, 0) / passes
    compose_calls = counts.get("groups.compose", 0)
    out["groups.closure_yield"] = (
        counts.get("groups.closure_elements", 0) / compose_calls if compose_calls else 0.0
    )
    out["actions.orbits_per_cmd"] = out["actions.orbits_calls"] / len(trace["plain"])
    workload_traced, workload_plain = trace["traced"][:per_pass], trace["plain"][:per_pass]
    out["trace.overhead_s"] = statistics.median(
        map(statistics.median, workload_traced)
    ) - statistics.median(map(statistics.median, workload_plain))
    return out


def _args(argv):
    parser = argparse.ArgumentParser(description="orbitspace CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure(args, commands, runner, work):
    """One run; returns (metrics, units, attempted, failed, notes)."""
    verdicts = Verdicts()
    failed = int(not warm_up(runner, verdicts))
    attempted = 1
    per_pass = len(commands)
    notes = [f"workload {args.workload}, seed {args.seed}: {per_pass} commands per pass"]
    if args.trace:
        probes = workloads.layer_probes(work)
        trace = run_traced(commands + probes, runner, verdicts, args.seconds, work)
        attempted += 2 * (per_pass + len(probes)) * trace["passes"]
        failed += trace["failed"]
        metrics, units = layer_metrics(trace, per_pass), PER_LAYER
        notes.append(
            f"  {trace['passes']} passes, each command untraced and traced, "
            f"each pass followed by {len(probes)} layer probes"
        )
        for tag, values in sorted(trace["baselines"].items()):
            what, anchor = BASELINES[tag]
            notes.append(f"  baseline {what}: {statistics.median(values):.3f} s (re-anchor {anchor} s)")
    else:
        samples, plain_failed, passes = run_plain(commands, runner, verdicts, args.seconds)
        attempted += (per_pass + SETUP_SLOTS) * passes
        failed += plain_failed
        commands_run = samples["command"]
        wall = [statistics.median(s.wall * s.scale for s in runs) for runs in commands_run]
        cpu = [statistics.median(s.cpu * s.scale for s in runs) for runs in commands_run]
        setup = [s.wall * s.scale for runs in samples["setup"] for s in runs]
        tail_p = tail_percentile(per_pass)
        metrics = {
            "cmd_p50_s": statistics.median(wall),
            "cmd_tail_s": percentile(wall, tail_p),
            "cmd_cpu_p50_s": statistics.median(cpu),
            "cmds_per_s": per_pass / sum(wall),
            "peak_rss_mb": max(s.maxrss_kb for runs in commands_run for s in runs) / 1024,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
        raw_wall = [statistics.median(s.wall for s in runs) for runs in commands_run]
        refs = [s.ref for runs in commands_run for s in runs]
        notes.append(
            f"  {passes} passes, {per_pass * passes} command samples; each command counts once, "
            f"at the median of its samples, each scaled to the reference speed; cmd_tail_s is "
            f"p{tail_p} of the {per_pass} commands; setup_s is the median of {SETUP_SLOTS} "
            f"corpus-list slots in each pass"
        )
        notes.append(
            f"  reference loop: median {statistics.median(refs) * 1000:.2f} ms against "
            f"{REFERENCE_LOOP_S * 1000:.2f} ms at the reference speed; unscaled cmd_p50_s "
            f"{statistics.median(raw_wall):.6f} s, cmd_tail_s {percentile(raw_wall, tail_p):.6f} s, "
            f"setup_s {statistics.median(s.wall for runs in samples['setup'] for s in runs):.6f} s"
        )
    notes += [f"  {name:40s} {value:14.6f} {units[name]}" for name, value in metrics.items()]
    notes.append(f"  {'fail_ratio':40s} {failed / attempted:14.6f} ({failed} of {attempted} commands)")
    notes += [f"  FAILED {reason}" for reason in verdicts.failures[:10]]
    return metrics, units, attempted, failed, notes


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    if not (root / "src" / "orbitspace" / "cli.py").is_file():
        print("perfbench: no orbitspace sources under ./src; run from a checkout root", file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = None
    try:
        runner = Runner(root, work)
        commands = workloads.build(args.workload, args.seed, work)
        metrics, units, attempted, failed, notes = measure(args, commands, runner, work)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("\n".join(notes))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
