"""Allocation bounds of the long-record and readout-chain kernels.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
counts every whole-array temporary it holds.  Each bound is stated in
records (or complex arrays) of the input's size.
"""

import copy
import tracemalloc

import numpy as np
from test_golden import CONFIG

from unicsim import cli, network, waveform

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
    assert w.samples is samples
    assert peak < 0.01 * samples.nbytes


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
