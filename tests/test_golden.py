"""Byte-identity contract: every file of every subcommand, hashed.

The README example config (shrunk to 2e5 gates and a two-point flux list)
is run through all seven subcommands.  Each emitted file must match the
sha256 recorded below, so a refactor that changes any output byte fails
here.  A declared change to the random-stream contract re-records them.
"""

import copy
import hashlib
import json

import pytest

from unicsim import cli
from unicsim.characterize import read_sweep_csv

CONFIG = {
    "seed": 42,
    "n_gates": 200_000,
    "emit": ["csv", "json"],
    "network": {
        "f_g": 1.25e9,
        "coupler_tap": 0.9,
        "stages": 2,
        "saw": {"f_center": 1.25e9, "passband_20db": 35e6,
                "insertion_loss": 3.0, "group_delay": 33.845e-9},
        "band_stop": {"f_center": 2.5e9, "depth": 10.0, "width_10db": 1e8},
        "spectrum": {"f_start": 1e8, "f_stop": 2.5e9, "coarse_step": 1e5,
                     "fine_step": 1e3, "fine_span": 2e6},
    },
    "detector_preset": "apd1_minus30C",
    "source": {"mode": "pulsed", "laser_rate": 1e7, "mu": 0.1,
               "illuminated_gate_phase": 5},
    "acquisition": {"tdc": {"resolution": 1e-12, "dead_time": 2e-9},
                    "discriminator": {"threshold": 5e-6, "dead_time": 0.0},
                    "gate_offset": 0.0},
    "waveform": {"duration": 2e-7, "sample_rate": 4e10, "fundamental_amp": 0.42,
                 "harmonics": [[2, 0.084, 0.0]], "impulse_gate_stride": 50,
                 "impulse_peak": 1e-3, "impulse_fwhm": 1.5e-10,
                 "noise_rms": 0.0, "filtered": True},
    "sweep": {"scenarios": ["apd1_minus30C", "apd1_0C", "apd1_30C"]},
    "maxrate": {"flux_list": [0.1, 3.0]},
}

GOLDEN = {
    "design": {
        "design.json":
            "a177d5f20dc41c10e994d244ac67ced5fdbc8b6c71ed144dd2993c475c55eb00",
    },
    "spectrum": {
        "null_metrics.json":
            "da964cbb47cacc7769d12e3831c00c04cf8d1b1e4913da3ec330f2f2388f747a",
        "spectrum.csv":
            "be9ea635db866be9bcb14c261b42b94c5fc89678701b6fa05e10312b38ac8057",
    },
    "waveform": {
        "waveform.bin":
            "4f40af75c67dec8fdfcca5e611ecb7e1d9d3c3cc04d91dd09d6f0a51fbba8b67",
        "waveform.csv":
            "60c3fb13ffe6d6d5c6cfd3012397f01bda0891f8277a05a48cbce3770ace6192",
    },
    "simulate": {
        "events.csv":
            "efeae39294cbc061e52e429ba91ca7f373019170a3d1a9acb5b74597dc60b6db",
        "summary.json":
            "8fa11399712e2d9e478453df1b4c653e91deebcc5082fc5e5fb9be3b8e71c39e",
        "timestamps.bin":
            "85afd8fd058a5da29e19ea7c97e0fff919529a1f75ad74209e06ed64a343a38b",
    },
    "characterize": {
        "gate_counts.json":
            "9def112712a5db9cfe4a7a589d95bb4a0f97dde3403aa20f08c3fbb0da9f9553",
        "histogram.csv":
            "4da6a4c0bb64ad1beaaa9324dfeee7aa107c783efa2ca9e789a3a6a8d252455f",
        "run_report.json":
            "b2410abd593f6199a7178db01b50f2c72f239873b3f8b27872fa7ceeaa11d32d",
    },
    "sweep": {
        "sweep.csv":
            "0fb55185dfbe997942e065ae6d8ccfe620cd67d2e74b5db0ccd62accee696430",
        "sweep.json":
            "254796a37f66ecb16987f69c00482cfadd67d39d86b4ef3a4b811c359caba43c",
    },
    "maxrate": {
        "maxrate.csv":
            "b21bb314b863d9e45d6c489193e85a9a412563060a27edd3f854413074504281",
        "maxrate.json":
            "6f7cedddca2dcbca52ddf008f25b26faff537efa05137ed5745c7177dac5ff5e",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_outputs_match_recorded_sha256(tmp_path, command):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert cli.main([command, "-c", str(cfg), "--output-dir", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == GOLDEN[command]


def test_sweep_exits_0_on_every_seed(tmp_path):
    # at 2e5 gates a scenario's non-illuminated clicks often fall below the
    # dark rate; its p_a is then reported negative, with its sigma, not refused
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    p_a = []
    for seed in range(20):
        out = tmp_path / f"out{seed}"
        assert cli.main(["sweep", "-c", str(cfg), "--seed", str(seed), "--output-dir", str(out)]) == 0, seed
        p_a += [p.p_a for p in read_sweep_csv(out / "sweep.csv").points]
    assert min(p_a) < 0


# Long waveform records, recorded like GOLDEN (numpy's AVX-512 loops): every
# record past 2**17 samples takes the overlap-add path, which synthesizes the
# record, impulses and noise one segment at a time and filters two segments
# per transform; 2e5 samples are two segments, the second one short, in one
# transform, and 4.24e6 samples are 33 segments in 17.
LONG_RECORDS = {
    "overlap-add 2 segments": ({"duration": 5e-6}, ["csv", "json"], {
        "waveform.bin":
            "a7c822153473f5088f28540679aa9249af96930b6c1bcbaee1738ee697b3d128",
        "waveform.csv":
            "ac0b53f48a67cf444a5c37826fcaf338bfb7d40a6be4a0c2723cf3c447460e67",
    }),
    "overlap-add": ({"duration": 1.06e-4}, ["json"], {
        "waveform.bin":
            "06d57bb506ae4df9dac4c2ed0d0b117745388d35907b30be5361ee9b6d868951",
    }),
    "overlap-add with noise": ({"duration": 1.06e-4, "noise_rms": 1e-4}, ["json"], {
        "waveform.bin":
            "7c36ac7728c31b0a232536f6ceb21cce2cad4decca86bf55c549fb2e8f28188e",
    }),
}


@pytest.mark.parametrize("name", list(LONG_RECORDS))
def test_long_waveform_matches_recorded_sha256(tmp_path, name):
    overrides, emit, golden = LONG_RECORDS[name]
    config = copy.deepcopy(CONFIG)
    config["waveform"].update(overrides)
    config["emit"] = emit
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["waveform", "-c", str(cfg), "--output-dir", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == golden


# The dense-event path, recorded like GOLDEN: a gate-synchronous carved
# source at mu = 3 clicks on about half the gates, so the events writer, the
# carved photon draws and the TDC dead time (2 ns) all run on dense streams.
CARVED = {
    "events.csv":
        "bd3f17fb647bd59af28f9c1f123557bca3d2a74f802d4cef0f1c057ee704d1cf",
    "summary.json":
        "26e49d26fb92e9941488432b7c7ecee393d12e8e9babd33f78bfc812f0a5f9e9",
    "timestamps.bin":
        "e73526d759421db23daea116fbabc4e855461e096a3059cedcbe767c1a514dc9",
}


def test_carved_simulate_matches_recorded_sha256(tmp_path):
    config = copy.deepcopy(CONFIG)
    config["source"] = {"mode": "cw_carved", "laser_rate": 1.25e9, "mu": 3.0}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["simulate", "-c", str(cfg), "--output-dir", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == CARVED
