"""Allocation bounds of the long-record, readout-chain and counting kernels.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
counts every whole-array temporary it holds.  Each kernel bound is stated in
records (or complex arrays) of the input's size; the counting bound is stated
against the same run over one gate block.
"""

import copy
import hashlib
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from test_golden import CONFIG, GOLDEN

from unicsim import acquisition, apd, characterize, cli, network, presets, waveform

SPEC = waveform.GateWaveSpec(1.25e9, 0.42, ((2, 0.084, 0.0),))  # the README gate response


def _traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_capacitive_holds_one_record():
    w, peak = _traced_peak(waveform.synth_capacitive, SPEC, 2e-5, 4e10)  # 8e5 samples
    # the record and one 2**13-sample block's temporaries (64 KB each); a
    # record-sized `t` beside it (1.49 records) fails the bound
    assert peak <= 1.25 * w.samples.nbytes


def test_wrapping_a_record_allocates_no_mask():
    samples = np.linspace(-1.0, 1.0, 1 << 20)
    w, peak = _traced_peak(waveform.Waveform, 4e10, 0.0, samples)
    assert np.shares_memory(w.samples, samples)
    assert peak < 0.01 * samples.nbytes


def test_wrapping_a_response_allocates_no_mask():
    values = np.exp(1j * np.linspace(0.0, 1.0, 1_000_001))
    resp, peak = _traced_peak(network.TwoPortResponse, network.FrequencyGrid(1e9, 2e9, values.size), values)
    assert np.shares_memory(resp.values, values)
    assert peak < 0.01 * values.nbytes


@pytest.mark.parametrize("wrap, arrays", [
    (lambda a: waveform.Waveform(4e10, 0.0, *a), [np.zeros(8)]),
    (lambda a: apd.EventStream(*a), [np.arange(8), np.arange(8.0), np.zeros(8, np.uint8), np.ones(8)]),
    (lambda a: acquisition.Histogram(1e-11, 8e-11, *a), [np.zeros(8, np.int64)]),
    (lambda a: network.TwoPortResponse(network.FrequencyGrid(0.0, 1.0, 8), *a), [np.ones(8, complex)]),
], ids=["Waveform", "EventStream", "Histogram", "TwoPortResponse"])
def test_wrapping_leaves_the_callers_arrays_writable(wrap, arrays):
    wrapped = wrap(arrays)
    views = [v for v in vars(wrapped).values() if isinstance(v, np.ndarray)]
    assert len(views) == len(arrays)
    for a, v in zip(arrays, views):
        assert np.shares_memory(a, v) and not v.flags.writeable
        assert a.flags.writeable


def test_count_rate_vs_flux_holds_one_block():
    det = presets.get_preset("apd1_minus30C")
    acq = acquisition.AcquisitionConfig()  # the README's 2 ns TDC dead time
    _, one = _traced_peak(characterize.count_rate_vs_flux, det, acq, [3.0], apd._CHUNK, 1)
    _, eight = _traced_peak(characterize.count_rate_vs_flux, det, acq, [3.0], 8 * apd._CHUNK, 1)
    assert eight <= 1.1 * one


def test_characterize_and_sweep_hold_one_block(monkeypatch):
    # R = 2 at flux 3: the TDC keeps about 0.16 stamps a gate, which the two
    # runs of a characterization tally a block at a time; one worker, so
    # that sweep points do not overlap by chance
    monkeypatch.setenv("UNIC_SIM_THREADS", "1")
    det = presets.get_preset("apd1_minus30C")
    src = apd.SourceConfig(mode="pulsed", laser_rate=det.f_g / 2, mu=3.0, illuminated_gate_phase=1)
    acq = acquisition.AcquisitionConfig()  # the README's 2 ns TDC dead time
    runs = {
        "characterize": lambda n: characterize._characterize_streams(det, src, acq, n, 1),
        "sweep": lambda n: characterize.efficiency_sweep([("a", det), ("b", det)], src, acq, n, 1),
    }
    for name, run in runs.items():
        _, one = _traced_peak(run, apd._CHUNK)
        _, eight = _traced_peak(run, 8 * apd._CHUNK)
        assert eight <= 1.1 * one, name


def test_one_dense_counting_block_holds_little_more_than_its_events():
    # flux 3 on every gate clicks about 47% of a block's 2**20 gates: the four
    # event arrays (8 + 8 + 1 + 8 bytes an event) take about 12 MB, and the
    # draws, the stamps and the dead-time slices must fit beside them
    det = presets.get_preset("apd1_minus30C")
    src = apd.SourceConfig(mode="cw_carved", laser_rate=det.f_g, mu=3.0)
    _, peak = _traced_peak(characterize._run, det, src, acquisition.TdcSpec(), apd._CHUNK, 1)
    assert peak <= 16 << 20


def _simulate_config(out, n_gates, mu, emit):
    raw = copy.deepcopy(CONFIG)
    raw.update(n_gates=n_gates, emit=emit, output_dir=str(out),
               source={"mode": "cw_carved", "laser_rate": 1.25e9, "mu": mu})
    return raw


def test_streamed_simulate_holds_one_block(tmp_path):
    # events.csv, timestamps.bin and summary.json are written a block at a time
    def peak(blocks):
        raw = _simulate_config(tmp_path / str(blocks), blocks * apd._CHUNK, 0.5, ["csv", "json"])
        return _traced_peak(cli.cmd_simulate, cli.parse("simulate", raw))[1]

    one = peak(1)
    assert peak(8) <= 1.1 * one


def test_first_block_does_not_grow_with_the_run():
    det = presets.get_preset("apd1_minus30C")
    src = apd.SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1)

    def first_block(n_gates):
        return next(apd.simulate_blocks(det, src, n_gates, 1))

    _, short = _traced_peak(first_block, 2**21)
    _, long = _traced_peak(first_block, 2**40)
    assert long <= short + 64 * 1024


def test_write_waveform_binary_copies_no_record(tmp_path):
    w = waveform.synth_capacitive(SPEC, 2e-5, 4e10)
    _, peak = _traced_peak(waveform.write_waveform_binary, tmp_path / "w.bin", w)
    assert peak < 0.1 * w.samples.nbytes


def test_chain_evaluation_holds_one_complex_array():
    net = cli.parse("spectrum", copy.deepcopy(CONFIG)).network  # two stages and a band-stop
    grid = network.metrics_grid(1e9, 2e9, 1e3)  # 1e6 + 1 points
    resp, peak = _traced_peak(network.chain_response, cli._chain(net), grid)
    # the response, and the part values and temporaries of one 2**12-point
    # block (64 KB per complex array); 1 MB blocks would not fit
    assert peak <= resp.values.nbytes + (2 << 20)


def _waveform_config(out, duration):
    raw = copy.deepcopy(CONFIG)
    raw["waveform"]["duration"] = duration
    raw.update(emit=["json"], output_dir=str(out))
    return cli.parse("waveform", raw)


def test_streamed_waveform_holds_no_record(tmp_path):
    # 4.24e6 samples: the overlap-add path; synthesis, filter, write and rms
    _, peak = _traced_peak(cli.cmd_waveform, _waveform_config(tmp_path / "one", 1.06e-4))
    segment = 8 << 17  # a 2**17-sample segment
    # a budget that does not grow with the record: the impulse response's
    # spectrum and the transform of a segment pair (4 segments each), the
    # piece buffer that also holds the carry, the head, the synthesis's
    # segment buffer and 64 KB block temporaries (about 12 segments); the
    # chain response, its bins and the impulse response are dropped before
    # the loop, and holding them again fails the bound, as do the
    # synthesis's segment-sized scratch buffers (about 14)
    assert peak <= 13 * segment
    _, twice = _traced_peak(cli.cmd_waveform, _waveform_config(tmp_path / "two", 2.12e-4))
    assert twice <= 1.1 * peak


def _metrics_points() -> float:
    """The metrics-grid points the null metrics read, about 1.2e5: the
    +/-_NULL_SEARCH window around f_g at the grid's 1 kHz step, and the
    100 kHz background lattice."""
    lo, hi = network._BACKGROUND_BAND
    return 2 * network._NULL_SEARCH / network.metrics_grid().step + (hi - lo) / network._BACKGROUND_STRIDE


# two float arrays of those points, each held as its blocks and as their
# concatenation (the frequencies and |H| of the window), with a 25% margin:
# about 4.8 MB, where one float array over the 2e6 + 1 point grid takes 16 MB
_METRICS_BOUND = 1.25 * 2 * 2 * 8 * _metrics_points()


def test_spectrum_metrics_hold_two_float_arrays(tmp_path, monkeypatch):
    raw = copy.deepcopy(CONFIG)
    raw.update(emit=["json"], output_dir=str(tmp_path))
    cfg = cli.parse("spectrum", raw)
    _, peak = _traced_peak(cli.cmd_spectrum, cfg)
    assert peak <= _METRICS_BOUND
    # a grid-sized float array held beside the metrics fails the bound
    metrics = network.chain_null_metrics

    def holding_a_grid_array(parts, grid, f_g):
        held = np.ones(grid.n_points)
        result = metrics(parts, grid, f_g)
        del held
        return result

    monkeypatch.setattr(network, "chain_null_metrics", holding_a_grid_array)
    _, peak = _traced_peak(cli.cmd_spectrum, cfg)
    assert peak > _METRICS_BOUND


def test_spectrum_metrics_grid_does_not_follow_fine_step(tmp_path):
    # the null metrics take the 1 kHz metrics grid whatever fine_step is: at
    # 10 Hz the grid would hold 100 times the points
    raw = copy.deepcopy(CONFIG)
    raw["network"]["spectrum"]["fine_step"] = 10.0
    raw.update(emit=["json"], output_dir=str(tmp_path))
    _, peak = _traced_peak(cli.cmd_spectrum, cli.parse("spectrum", raw))
    assert peak <= _METRICS_BOUND
    digest = hashlib.sha256((tmp_path / "null_metrics.json").read_bytes()).hexdigest()
    assert digest == GOLDEN["spectrum"]["null_metrics.json"]  # the golden config's step is 1 kHz


# A child's ru_maxrss counts the resident set of the process that forked it,
# so each measured child is started by a fresh interpreter, not by pytest.
_LAUNCH = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(usage.ru_maxrss, usage.ru_minflt)
"""


def _process_usage(*args) -> tuple[int, int]:
    """The peak resident set (kB) and the minor page faults of
    `python *args`, run to completion."""
    run = subprocess.run([sys.executable, "-c", _LAUNCH, sys.executable, *args],
                         capture_output=True, text=True, check=True)
    peak_kb, faults = run.stdout.split()
    return int(peak_kb), int(faults)


def _process_peak_kb(*args) -> int:
    """The peak resident set (kB) of `python *args`, run to completion."""
    return _process_usage(*args)[0]


def test_waveform_process_peak_stays_under_half_a_record(tmp_path):
    # tracemalloc does not see pocketfft's or the allocator's memory; the
    # bound is half the 8e6-sample record at every length, as no filtered
    # record is held whole
    imports = _process_peak_kb("-c", "import unicsim.cli")
    record_kb = 8 * 8_000_000 / 1024
    for n in (8_000_000, 1 << 20, (1 << 22) - 64):
        raw = copy.deepcopy(CONFIG)
        raw["waveform"]["duration"] = n / raw["waveform"]["sample_rate"]
        raw.update(emit=["json"], output_dir=str(tmp_path / str(n)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        peak = _process_peak_kb("-m", "unicsim", "waveform", "-c", str(path))
        assert peak - imports < record_kb / 2, n
        assert (tmp_path / str(n) / "waveform.bin").stat().st_size == 24 + 8 * n


def test_waveform_process_takes_few_page_faults(tmp_path):
    # every FFT of the filter writes into its own input, so numpy's buffers
    # are one row or column and no transform-sized array is allocated and
    # freed per segment: the 8e6-sample record took about 90k minor faults
    # when each segment had its own rfft/irfft results, and about 9k now
    pytest.importorskip("resource")
    raw = copy.deepcopy(CONFIG)
    raw["waveform"]["duration"] = 8e6 / raw["waveform"]["sample_rate"]
    raw.update(emit=["json"], output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    _, faults = _process_usage("-m", "unicsim", "waveform", "-c", str(path))
    assert faults < 40_000


def test_simulate_process_peak_stays_within_one_block(tmp_path):
    # 8e6 carved gates at mu = 3: 3.8e6 events, about 95 MB as whole arrays
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_simulate_config(tmp_path / "out", 8_000_000, 3.0, ["json"])))
    peak = _process_peak_kb("-m", "unicsim", "simulate", "-c", str(path))
    imports = _process_peak_kb("-c", "import numpy.random, unicsim.cli")
    # the four event arrays of a block on which every gate fires
    block_kb = (8 + 8 + 1 + 8) * apd._CHUNK / 1024
    assert peak - imports < block_kb
