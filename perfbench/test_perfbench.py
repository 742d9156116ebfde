"""Self-tests of the benchmark: its checks catch bad outputs, tracing does not
change outputs, and the metrics it reports are the ones BENCHMARK.json names.

    python3 -m pytest perfbench

They run the real CLI on the workloads' own inputs and take under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from run import BENCH, ROOT, SRC, check_outputs

sys.path.insert(0, str(SRC))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def _cli(step, out: Path) -> None:
    cfg = out.parent / f"{step.sub}.json"
    cfg.write_text(json.dumps(step.config))
    env = dict(os.environ, PYTHONPATH=str(SRC), UNIC_SIM_THREADS="2")
    subprocess.run([sys.executable, "-m", "unicsim", step.sub, "-c", str(cfg), "--output-dir", str(out)],
                   env=env, check=True, capture_output=True)


def _steps(workload: str) -> dict:
    return {s.sub: s for s in WORKLOADS[workload].build(SEED)}


def _rewrite_json(path: Path, **changes) -> None:
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))


def _drop_last_line(path: Path) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-8])


def _scale_eta(path: Path) -> None:
    report = json.loads(path.read_text())
    _rewrite_json(path, eta_net=report["eta_net"] + 10 * report["eta_net_sigma"])


@pytest.mark.parametrize("workload, sub, name, tamper", [
    ("chain-filter", "design", "design.json", lambda p: _rewrite_json(p, n=41)),
    ("chain-filter", "waveform", "waveform.bin", _truncate),
    ("carved-saturation", "simulate", "events.csv", _drop_last_line),
    ("carved-saturation", "maxrate", "maxrate.json", lambda p: _rewrite_json(p, points=[])),
    ("pulsed-characterize", "characterize", "run_report.json", _scale_eta),
])
def test_tampered_output_fails_its_check(tmp_path, workload, sub, name, tamper):
    step = _steps(workload)[sub]
    out = tmp_path / sub
    _cli(step, out)
    assert check_outputs(step, out) == []
    tamper(out / name)
    assert check_outputs(step, out) != []


def test_traced_and_untraced_passes_write_identical_files(tmp_path):
    runner = run.Runner(WORKLOADS["carved-saturation"], SEED, tmp_path / "run", threads=2)
    plain = runner.run_pass(0, "plain")
    traced = runner.run_pass(1, "trace")
    runner.check_kept()
    problems = [p for inv in plain.invocations + traced.invocations for p in inv.problems]
    assert problems == []  # includes the hash comparison with the first pass
    assert len(runner.outputs) == len(runner.steps)  # one distinct output set per subcommand
    steps = {s.sub: s.config for s in runner.steps}
    flux = steps["maxrate"]["maxrate"]["flux_list"]
    layers = traced.layers
    assert layers["apd.gates"] == steps["simulate"]["n_gates"] + len(flux) * steps["maxrate"]["n_gates"]
    assert layers["characterize.runs"] == len(flux)
    assert layers["apd.write_rows"] > 0 and 0 < layers["acquisition.kept_ratio"] < 1
    assert layers["trace.thread_s"] > layers["acquisition.tdc_s"] > 0


def test_pass_with_different_bytes_fails(tmp_path):
    runner = run.Runner(WORKLOADS["chain-filter"], SEED, tmp_path / "run", threads=2)
    invs = []
    for i, text in enumerate(["a", "a", "b"]):
        out = tmp_path / f"pass{i}"
        out.mkdir()
        (out / "design.json").write_text(text)
        invs.append(run.Invocation(f"pass {i} plain design", 0, 0.0, 0.0))
        runner._keep_outputs(runner.steps[0], invs[-1], out)
    assert [bool(inv.problems) for inv in invs] == [False, False, True]
    assert [len(o.invocations) for o in runner.outputs] == [2, 1]


def test_tracer_wraps_every_namespace_and_restores_it():
    from unicsim import apd, characterize

    original = apd.simulate
    patched = spans.install(spans.Tracer().wrap)
    try:
        assert apd.simulate is not original
        assert characterize.simulate is apd.simulate  # bound by `from .apd import simulate`
    finally:
        spans.restore(patched)
    assert apd.simulate is original and characterize.simulate is original


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain-filter", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
