"""Span tracer for the benchmark's traced run and set-up probe.

Run as a script, this file executes one ``unicsim`` subcommand in-process
after wrapping every public function of the five layer modules (``network``,
``waveform``, ``apd``, ``acquisition``, ``characterize``) in every module
namespace that binds it, so calls made through a module attribute
(``cli`` -> ``apd.simulate``) and through a name imported with ``from ...
import`` (``characterize`` -> ``simulate``) are both seen.  Nothing under
``src/`` is modified; the originals are restored before the process exits.

    python3 perfbench/spans.py trace OUT.json -- SUBCOMMAND -c CONFIG [...]
    python3 perfbench/spans.py setup OUT.json -- SUBCOMMAND -c CONFIG [...]

``trace`` records one span per wrapped call (name, start, end, parent,
thread, thread CPU time, and a few counts) and writes them to OUT.json.
``setup`` stops the subcommand at its first call into a layer and writes the
``time.monotonic()`` reading of that moment, so the caller can time
interpreter start, ``import unicsim`` and config load/validation.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("network", "waveform", "apd", "acquisition", "characterize")
# Private functions that `cli` calls through the module attribute; they are
# the only way to see the characterize driver of the `characterize` command.
ENTRY_POINTS = {"characterize": ("_characterize_streams",)}
ROOT_SPAN = "cli.main"


def _file_counts(path) -> dict:
    size = os.path.getsize(path)
    if not str(path).endswith(".csv"):
        return {"bytes": size}
    with open(path, "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    return {"bytes": size, "rows": rows}


# Counts taken from a call's bound arguments and result, after its span ends.
COUNTERS = {
    "apd.simulate": lambda a, r: {"gates": int(a["n_gates"]), **r.counts()},
    "apd.write_events_csv": lambda a, r: {"rows": len(a["stream"])},
    "acquisition.tdc": lambda a, r: {"in": len(a["clicks"]), "kept": len(r)},
    "network.unic_response": lambda a, r: {"points": int(a["grid"].n_points)},
    "waveform.add_impulses": lambda a, r: {"impulses": len(a["times"])},
    "waveform.apply_response": lambda a, r: {"samples": len(a["w"])},
}


def _counter(name):
    if name in COUNTERS:
        return COUNTERS[name]
    if name.split(".")[1].startswith("write_"):
        return lambda a, r: _file_counts(a["path"])
    return None


def layer_functions():
    """{qualified name: function} for every public function of each layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"unicsim.{layer}")
        for attr in (*mod.__all__, *ENTRY_POINTS.get(layer, ())):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn):
                out[f"{layer}.{attr}"] = fn
    return out


def install(wrap) -> list:
    """Replace each layer function, in every unicsim namespace, by wrap(name, fn).

    Returns the (module, attribute, original) triples that `restore` puts back.
    """
    wrapped = {id(fn): wrap(name, fn) for name, fn in layer_functions().items()}
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "unicsim" or mod_name.startswith("unicsim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrapped[id(value)])
    return patched


def restore(patched) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


class Tracer:
    """Collects spans in memory; the parent of a span is the span open in its
    context, and pools created by layers copy that context into workers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pool_workers: list[int] = []
        self.counter_errors: list[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("span", default=None)

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        counter = _counter(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._lock:
                sid = next(self._ids)
            parent = self._current.get()
            token = self._current.set(sid)
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), time.thread_time()
                self._current.reset(token)
                span = {"id": sid, "parent": parent, "name": name, "thread": threading.get_ident(),
                        "t0": t0, "t1": t1, "cpu": c1 - c0, "counts": {}}
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                try:
                    span["counts"] = counter(sig.bind(*args, **kwargs).arguments, result)
                except (KeyError, TypeError, AttributeError, OSError) as e:
                    self.counter_errors.append(f"{name}: {type(e).__name__}: {e}")
            return result

        return traced

    def pool_class(self):
        tracer = self

        class ContextPool(ThreadPoolExecutor):
            """Thread pool whose tasks run in the submitter's context."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                with tracer._lock:
                    tracer.pool_workers.append(self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

        return ContextPool


class _FirstLayerCall(Exception):
    """Raised by the set-up probe at the first call into a layer."""


def _stop(name, fn):
    @functools.wraps(fn)
    def stop(*args, **kwargs):
        raise _FirstLayerCall(name)

    return stop


def _write(path, record) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


def main(argv) -> int:
    if len(argv) < 4 or argv[0] not in ("trace", "setup") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, out, cli_args = argv[0], argv[1], argv[3:]
    from unicsim import characterize, cli

    if mode == "setup":
        patched = install(_stop)
        try:
            rc = cli.main(cli_args)
        except _FirstLayerCall as e:
            _write(out, {"reached": time.monotonic(), "layer": e.args[0]})
            return 0
        finally:
            restore(patched)
        _write(out, {"reached": None, "rc": rc})
        return 1

    tracer = Tracer()
    cpu_at_main = time.process_time()
    patched = install(tracer.wrap)
    patched.append((characterize, "ThreadPoolExecutor", characterize.ThreadPoolExecutor))
    characterize.ThreadPoolExecutor = tracer.pool_class()
    try:
        rc = tracer.wrap(ROOT_SPAN, cli.main)(cli_args)
    finally:
        restore(patched)
    _write(out, {"rc": rc, "cpu_at_main": cpu_at_main, "spans": tracer.spans,
                 "pool_workers": tracer.pool_workers, "counter_errors": tracer.counter_errors})
    return rc


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class _Process:
    """Span tree of one traced subcommand process."""

    def __init__(self, record):
        self.record = record
        self.spans = record["spans"]
        self.by_id = {s["id"]: s for s in self.spans}
        self.children: dict = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def self_time(self, s) -> float:
        kids = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"])) for c in self.children.get(s["id"], ())]
        return (s["t1"] - s["t0"]) - _union((a, b) for a, b in kids if b > a)

    def ancestors(self, s):
        while s["parent"] is not None:
            s = self.by_id[s["parent"]]
            yield s

    def outermost(self, module):
        """Spans of `module` with no ancestor in the same module."""
        return [s for s in self.spans if _module(s) == module
                and not any(_module(a) == module for a in self.ancestors(s))]


def _module(span) -> str:
    return span["name"].split(".")[0]


def _func(span) -> str:
    return span["name"].split(".", 1)[1]


def _dur(spans) -> float:
    return sum(s["t1"] - s["t0"] for s in spans)


def _count(spans, key) -> int:
    return sum(s["counts"].get(key, 0) for s in spans)


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(records) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics summed over the traced processes of one pass, and the
    time spent in each layer module (its outermost spans)."""
    procs = [_Process(r) for r in records]
    every = [s for p in procs for s in p.spans]
    top = {m: [s for p in procs for s in p.outermost(m)] for m in LAYERS}

    def named(name):
        return [s for s in every if s["name"] == name]

    def is_write(span):
        return _func(span).startswith("write_") or _func(span) == "design_report"

    m: dict[str, float] = {}
    sims = named("apd.simulate")
    m["apd.simulate_s"] = _dur(sims)
    m["apd.gates"] = _count(sims, "gates")
    m["apd.ns_per_gate"] = _ratio(m["apd.simulate_s"], m["apd.gates"], 1e9)
    for kind in ("photon", "dark", "afterpulse"):
        m[f"apd.events.{kind}"] = _count(sims, kind)
    writes = named("apd.write_events_csv")
    m["apd.write_s"] = _dur(writes)
    m["apd.write_rows"] = _count(writes, "rows")

    tdcs = named("acquisition.tdc")
    m["acquisition.tdc_s"] = _dur(tdcs)
    m["acquisition.tdc_in"] = _count(tdcs, "in")
    m["acquisition.tdc_kept"] = _count(tdcs, "kept")
    m["acquisition.kept_ratio"] = _ratio(m["acquisition.tdc_kept"], m["acquisition.tdc_in"])
    m["acquisition.us_per_click"] = _ratio(m["acquisition.tdc_s"], m["acquisition.tdc_kept"], 1e6)
    m["acquisition.reduce_s"] = _dur(s for s in top["acquisition"] if _func(s) in ("classify", "histogram"))
    m["acquisition.write_s"] = _dur(s for s in top["acquisition"] if is_write(s))

    m["characterize.self_s"] = sum(p.self_time(s) for p in procs for s in p.spans
                                   if _module(s) == "characterize")
    m["characterize.runs"] = sum(1 for p in procs for s in p.spans if s["name"] == "apd.simulate"
                                 and any(_module(a) == "characterize" for a in p.ancestors(s)))
    m["characterize.workers"] = max((w for r in records for w in r["pool_workers"]), default=0)
    drivers = [(p, s) for p in procs for s in p.spans
               if s["name"] in ("characterize.efficiency_sweep", "characterize.count_rate_vs_flux")]
    child_cpu = sum(c["cpu"] for p, s in drivers for c in p.children.get(s["id"], ()))
    m["characterize.overlap"] = _ratio(child_cpu, _dur(s for _, s in drivers))

    net = top["network"]
    m["network.eval_s"] = _dur(s for s in net if not is_write(s) and _func(s) != "null_metrics")
    m["network.points"] = _count(named("network.unic_response"), "points")
    m["network.ns_per_point"] = _ratio(m["network.eval_s"], m["network.points"], 1e9)
    m["network.null_metrics_s"] = _dur(s for s in net if _func(s) == "null_metrics")
    m["network.write_s"] = _dur(s for s in net if is_write(s))
    m["network.write_rows"] = _count([s for s in net if is_write(s)], "rows")

    wav = top["waveform"]
    synth = ("synth_capacitive", "synth_avalanche", "add_impulses", "add_noise")
    m["waveform.synth_s"] = _dur(s for s in wav if _func(s) in synth)
    m["waveform.impulses"] = _count(named("waveform.add_impulses"), "impulses")
    filters = named("waveform.apply_response")
    m["waveform.filter_s"] = _dur(filters)
    m["waveform.samples"] = _count(filters, "samples")
    m["waveform.ns_per_sample"] = _ratio(m["waveform.filter_s"], m["waveform.samples"], 1e9)
    m["waveform.write_s"] = _dur(s for s in wav if is_write(s))
    m["waveform.write_bytes"] = _count([s for s in wav if is_write(s)], "bytes")

    m["cli.self_s"] = sum(p.self_time(s) for p in procs for s in p.spans if s["name"] == ROOT_SPAN)
    m["cli.cpu_s"] = sum(r["cpu_at_main"] for r in records)
    m["trace.thread_s"] = sum(p.self_time(s) for p in procs for s in p.spans)
    return m, {mod: _dur(top[mod]) for mod in LAYERS}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
