"""Allocation bounds of the long-record, readout-chain and counting kernels.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
counts every whole-array temporary it holds.  Each kernel bound is stated in
records (or complex arrays) of the input's size; the counting bound is stated
against the same run over one gate block.
"""

import copy
import tracemalloc

import numpy as np
import pytest
from test_golden import CONFIG

from unicsim import acquisition, apd, characterize, cli, network, presets, waveform

SPEC = waveform.GateWaveSpec(1.25e9, 0.42, ((2, 0.084, 0.0),))  # the README gate response


def _traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_capacitive_holds_two_records():
    w, peak = _traced_peak(waveform.synth_capacitive, SPEC, 2e-5, 4e10)  # 8e5 samples
    # `t` and the record
    assert peak <= 2.05 * w.samples.nbytes


def test_wrapping_a_record_allocates_no_mask():
    samples = np.linspace(-1.0, 1.0, 1 << 20)
    w, peak = _traced_peak(waveform.Waveform, 4e10, 0.0, samples)
    assert np.shares_memory(w.samples, samples)
    assert peak < 0.01 * samples.nbytes


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


def test_block_keys_do_not_grow_with_the_run():
    det = presets.get_preset("apd1_minus30C")
    src = apd.SourceConfig(mode="pulsed", laser_rate=1e7, mu=0.1)

    def first_block(n_gates):
        return next(apd._blocks(det, src, n_gates, 1))

    _, short = _traced_peak(first_block, 2**21)
    _, long = _traced_peak(first_block, 2**40)
    assert long <= short + 64 * 1024


def test_write_waveform_binary_copies_no_record(tmp_path):
    w = waveform.synth_capacitive(SPEC, 2e-5, 4e10)
    _, peak = _traced_peak(waveform.write_waveform_binary, tmp_path / "w.bin", w)
    assert peak < 0.1 * w.samples.nbytes


def test_chain_evaluation_holds_three_complex_arrays():
    net = cli.parse("spectrum", copy.deepcopy(CONFIG)).network  # two stages and a band-stop
    grid = network.metrics_grid(1e9, 2e9, 1e3)  # 1e6 + 1 points
    resp, peak = _traced_peak(cli._chain_responses, net, grid)
    # the interferometer, the band-stop and their product; the frequencies
    # and float scratch of one block are freed before the product is made
    assert peak <= 3.25 * resp.values.nbytes
