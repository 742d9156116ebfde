#!/usr/bin/env python3
"""Benchmark of the unicsim command line, driven as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One closed-loop client runs the workload's
subcommands one process at a time (``python3 -m unicsim SUB -c CONFIG``),
pass after pass, for about S seconds and at least two passes, so every run
also checks that two passes with the same seed write byte-identical files.
``UNIC_SIM_THREADS`` is fixed at 1: with one busy thread a pass's time does
not depend on how the host schedules two of them on a shared machine, and
``maxrate``'s peak RSS does not depend on which sweep points overlap.
Outputs are checked after the last pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics:
  wall_s       median wall time of one pass, first spawn to last exit
  peak_rss_mb  median over passes of the highest peak RSS of its processes
  setup_s      median over set-up probes of the summed set-up time of the
               workload's subcommands: interpreter start, ``import unicsim``
               and config load/validation, up to the first call into a layer.
               One probe follows each pass (at least five in a run), so the
               probes sample the whole run, as the passes do.
``--trace 1`` alternates untraced passes with passes run under
``perfbench/spans.py`` and reports the per-layer metrics (medians over
traced passes) plus the per-subcommand wall time and peak RSS of the
untraced passes.

The last stdout line is the result JSON; the line before it, and a record
under ``.perfbench_out/``, give the environment, every pass and every
failed check.  An invocation fails when it exits non-zero, fails an output
check, or writes files that differ from the first pass of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 165.0  # every run must exit within 180 s
SETUP_REPEATS = 5  # at least this many set-up probes per untraced run
THREADS = 1  # UNIC_SIM_THREADS of every subcommand; see the module docstring
SUBCOMMANDS = ("design", "spectrum", "waveform", "simulate", "characterize", "sweep", "maxrate")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# name -> (unit, better)
PER_LAYER = {
    "apd.simulate_s": ("s", "lower"),
    "apd.gates": ("count", "higher"),
    "apd.ns_per_gate": ("ns/gate", "lower"),
    "apd.events.photon": ("count", "higher"),
    "apd.events.dark": ("count", "higher"),
    "apd.events.afterpulse": ("count", "higher"),
    "apd.write_s": ("s", "lower"),
    "apd.write_rows": ("count", "higher"),
    "acquisition.tdc_s": ("s", "lower"),
    "acquisition.tdc_in": ("count", "higher"),
    "acquisition.tdc_kept": ("count", "higher"),
    "acquisition.kept_ratio": ("ratio", "higher"),
    "acquisition.us_per_click": ("us/click", "lower"),
    "acquisition.reduce_s": ("s", "lower"),
    "acquisition.write_s": ("s", "lower"),
    "characterize.self_s": ("s", "lower"),
    "characterize.runs": ("count", "higher"),
    "characterize.workers": ("count", "higher"),
    "characterize.overlap": ("ratio", "higher"),
    "network.eval_s": ("s", "lower"),
    "network.points": ("count", "higher"),
    "network.ns_per_point": ("ns/point", "lower"),
    "network.null_metrics_s": ("s", "lower"),
    "network.write_s": ("s", "lower"),
    "network.write_rows": ("count", "higher"),
    "waveform.synth_s": ("s", "lower"),
    "waveform.impulses": ("count", "higher"),
    "waveform.filter_s": ("s", "lower"),
    "waveform.samples": ("count", "higher"),
    "waveform.ns_per_sample": ("ns/sample", "lower"),
    "waveform.write_s": ("s", "lower"),
    "waveform.write_bytes": ("bytes", "lower"),
    **{f"cli.{sub}.{key}": (unit, "lower") for sub in SUBCOMMANDS
       for key, unit in (("wall_s", "s"), ("peak_rss_mb", "MB"))},
    "cli.self_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.thread_s": ("s", "lower"),
    "trace.headline_share": ("ratio", "lower"),
}


@dataclass
class Invocation:
    label: str  # "pass <i> <mode> <sub>" or "setup <i> <sub>"
    rc: int
    wall_s: float
    rss_mb: float
    problems: list = field(default_factory=list)

    @property
    def sub(self) -> str:
        return self.label.split()[-1]


@dataclass
class Pass:
    mode: str
    wall_s: float
    invocations: list
    layers: dict | None = None  # per-layer metrics of a traced pass


@dataclass
class Outputs:
    """One distinct set of output files of a step, checked at the end of the run."""

    step: object
    out: Path
    hashes: dict
    invocations: list


def _hashes(out: Path) -> dict:
    hashes = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            hashes[path.relative_to(out).as_posix()] = digest.hexdigest()
    return hashes


class Runner:
    """Runs the passes of one benchmark run inside its own directory.

    The output checks read whole files into memory, so they run after the
    last pass: a child's ru_maxrss includes the RSS of the process that
    spawned it, and this process must stay small while it spawns.  Passes
    whose files match an earlier pass byte for byte share its check.
    """

    def __init__(self, workload, seed: int, run_dir: Path, threads: int):
        self.workload = workload
        self.steps = workload.build(seed)
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, UNIC_SIM_THREADS=str(threads),
                        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.outputs: list[Outputs] = []
        self.configs = {}
        run_dir.mkdir(parents=True)
        for step in self.steps:
            path = run_dir / f"{step.sub}.json"
            path.write_text(json.dumps(step.config, indent=2))
            self.configs[step.sub] = path

    def _argv(self, sub: str, mode: str, out: Path, record: Path) -> list:
        cli = [sub, "-c", str(self.configs[sub]), "--output-dir", str(out)]
        if mode == "plain":
            return [sys.executable, "-m", "unicsim", *cli]
        return [sys.executable, str(BENCH / "spans.py"), mode, str(record), "--", *cli]

    def _spawn(self, argv: list, log_path: Path) -> tuple:
        """(exit code, wall s, peak RSS MB, spawn time) of one child process."""
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, t0

    def setup_probe(self, index: int) -> tuple[float | None, list]:
        """Summed set-up time of the workload's subcommands, and their invocations."""
        total, invs = 0.0, []
        for step in self.steps:
            base = self.run_dir / f"setup{index}-{step.sub}"
            record = base.with_suffix(".json")
            rc, wall, rss, t0 = self._spawn(self._argv(step.sub, "setup", base, record), base.with_suffix(".log"))
            inv = Invocation(f"setup {index} {step.sub}", rc, wall, rss)
            reached = json.loads(record.read_text()).get("reached") if record.exists() else None
            if rc != 0 or reached is None:
                inv.problems.append(f"set-up probe did not reach a layer call (exit {rc}); see {base}.log")
                total = None
            elif total is not None:
                total += reached - t0
            invs.append(inv)
        return total, invs

    def run_pass(self, index: int, mode: str) -> Pass:
        pass_dir = self.run_dir / f"pass{index}-{mode}"
        pass_dir.mkdir()
        invs = []
        t0 = time.monotonic()
        for step in self.steps:
            out = pass_dir / step.sub
            rc, wall, rss, _ = self._spawn(self._argv(step.sub, mode, out, pass_dir / f"{step.sub}.spans.json"),
                                           pass_dir / f"{step.sub}.log")
            invs.append(Invocation(f"pass {index} {mode} {step.sub}", rc, wall, rss))
        result = Pass(mode, time.monotonic() - t0, invs)

        for step, inv in zip(self.steps, invs):
            if inv.rc != 0:
                log = (pass_dir / f"{step.sub}.log").read_text(errors="replace")[-2000:]
                inv.problems.append(f"exit {inv.rc}: {log}")
            else:
                self._keep_outputs(step, inv, pass_dir / step.sub)
        if mode == "trace" and all(inv.rc == 0 for inv in invs):
            records = [json.loads((pass_dir / f"{step.sub}.spans.json").read_text()) for step in self.steps]
            metrics, per_module = layer_metrics(records)
            metrics["trace.headline_share"] = self.workload.share(metrics, per_module, result.wall_s)
            result.layers = metrics
            for inv, r in zip(invs, records):
                inv.problems += [f"counter failed: {e}" for e in r["counter_errors"]]
        return result

    def _keep_outputs(self, step, inv: Invocation, out: Path) -> None:
        hashes = _hashes(out)
        earlier = [o for o in self.outputs if o.step.sub == step.sub]
        for o in earlier:
            if o.hashes == hashes:
                o.invocations.append(inv)
                shutil.rmtree(out)
                return
        if earlier:
            ref = earlier[0].hashes
            inv.problems.append("outputs differ from the first pass of this run: "
                                f"{sorted(k for k in hashes.keys() | ref.keys() if hashes.get(k) != ref.get(k))}")
        self.outputs.append(Outputs(step, out, hashes, [inv]))

    def check_kept(self) -> None:
        """Run each distinct output set's check and charge it to every invocation that wrote it."""
        for o in self.outputs:
            problems = check_outputs(o.step, o.out)
            for inv in o.invocations:
                inv.problems += problems


def check_outputs(step, out: Path) -> list:
    """Problems found by the step's output check; a check that raises is one."""
    try:
        return step.check(out, step.config)
    except Exception:  # a malformed output file fails its check; the run goes on
        return [f"output check raised:\n{traceback.format_exc()}"]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def environment(threads: int) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "unicsim").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                                 env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:  # no git on this machine
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "UNIC_SIM_THREADS": threads, "git_commit": commit,
            "src_sha256": src.hexdigest()}


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, full record) of one benchmark run."""
    run_id = f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    runner = Runner(workload, seed, OUT / run_id, THREADS)
    invocations, setups = [], []
    passes: list[Pass] = []

    def probe():
        total, invs = runner.setup_probe(len(invocations))
        invocations.extend(invs)
        if total is not None:
            setups.append(total)

    try:
        modes = ("plain", "trace") if trace else ("plain",)
        runner.setup_probe(-1)  # warm-up: loads the interpreter and package files; not counted
        start = time.monotonic()
        while True:
            cycle = time.monotonic()
            for mode in modes:
                passes.append(runner.run_pass(len(passes), mode))
            if not trace:
                probe()
            now = time.monotonic()
            # Stop once less than half a cycle of the run is left, so a run
            # lasts about `seconds` whatever the length of its passes.
            if (now - start + (now - cycle) / 2 >= seconds and len(passes) >= 2) \
                    or now + (now - cycle) > runner.deadline:
                break
        while not trace and len(setups) < SETUP_REPEATS and time.monotonic() + 10 < runner.deadline:
            probe()
        runner.check_kept()
    finally:
        shutil.rmtree(runner.run_dir, ignore_errors=True)

    invocations += [inv for p in passes for inv in p.invocations]
    problems = [f"{inv.label}: {msg}" for inv in invocations for msg in inv.problems]
    failed = sum(1 for inv in invocations if inv.problems)
    plain = [p for p in passes if p.mode == "plain"]
    traced = [p for p in passes if p.mode == "trace" and p.layers is not None]

    if trace:
        names = traced[0].layers if traced else ()
        values = {name: _median(p.layers[name] for p in traced) for name in names}
        for sub in SUBCOMMANDS:
            runs = [inv for p in plain for inv in p.invocations if inv.sub == sub]
            values[f"cli.{sub}.wall_s"] = _median(inv.wall_s for inv in runs)
            values[f"cli.{sub}.peak_rss_mb"] = _median(inv.rss_mb for inv in runs)
        values["trace.wall_s"] = _median(p.wall_s for p in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - _median(p.wall_s for p in plain)
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {"wall_s": _median(p.wall_s for p in plain),
                  "peak_rss_mb": _median(max(inv.rss_mb for inv in p.invocations) for p in plain),
                  "setup_s": _median(setups)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    result = {"correct": failed == 0, "attempted": len(invocations), "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(THREADS), "failed_frac": failed / len(invocations),
        "pass_wall_s": [[p.mode, p.wall_s] for p in passes], "setup_s": setups,
        "invocations": [[inv.label, inv.rc, inv.wall_s, inv.rss_mb] for inv in invocations],
        "problems": problems,
    }
    if trace:
        share = values.get("trace.headline_share", 0.0)
        record["prediction"] = {"share": share, "predicted_at_least": workload.predicted,
                                "met": share >= workload.predicted}
    (OUT / f"{run_id}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unicsim" / "__init__.py").is_file():
        print(f"perfbench: no unicsim package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "invocations"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
