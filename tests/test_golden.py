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
            "73d3ac675ad93b7e64a8a3fca1a3b6f70a002d7161dd00d00e15b38b8be1e33f",
        "spectrum.csv":
            "0c303ef2137df7335589603d21f6bdabcda34cc6f1fc04e4b3317de9911a3053",
    },
    "waveform": {
        "waveform.bin":
            "a04cfdda38cf19983fded9bd2b1a628d89e9f8c579b92116cb7a1febed50818d",
        "waveform.csv":
            "1fccd20d6417913324c328014448bb300a34be5e43fa08ef02f5352944ef3830",
    },
    "simulate": {
        "events.csv":
            "08644a10893b81184df899c81bfec1825670bb4a31e92d373ea87e4f002d5a00",
        "summary.json":
            "a5b94e5f4376f48e6dd19cd69799faae40a7c66bcface1e7a50bfd4b80a69c13",
        "timestamps.bin":
            "f734557a5f0c82a62030ea62c663369d20d480189f758f53a03122c84d248476",
    },
    "characterize": {
        "gate_counts.json":
            "d28f872b55c94167a731125431beb670eae3a14e38de41cd8bfb5f27eb01a140",
        "histogram.csv":
            "803a6cff3a612800f180efd841189b8cf2cb7b466619d154c8d0e4588ef41447",
        "run_report.json":
            "7c9cc0fe89252a99725cf42bdaef012c5e707c5272c34dab5439b73fc89a6927",
    },
    "sweep": {
        "sweep.csv":
            "8deaa5bea729f7224ef362f699ba79fd1f97f439b840f0419ef7dc0cc6fba00b",
        "sweep.json":
            "7a5edf733cabde3eef59228af4c586644fe67c51ec5e10c769c40f7fb8182a17",
    },
    "maxrate": {
        "maxrate.csv":
            "d1d227daa6b29cc88e975f45426ebd85c18da5448ae4122e200ed722b2c1f16f",
        "maxrate.json":
            "3166a8493d041a473d71d831f4c0a875dd9916bfba6fd0545322c243532863b3",
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
# record, impulses and noise one segment at a time; 2e5 samples are two
# segments, the second one short, and 4.24e6 samples are 33.
LONG_RECORDS = {
    "overlap-add 2 segments": ({"duration": 5e-6}, ["csv", "json"], {
        "waveform.bin":
            "57c2c8beaafd10b082504d0a51b29f96eaa8b1ca8823aa29519da1f3716dd8ae",
        "waveform.csv":
            "e1652d422a28f81e518d6ac0907943e2d2b8986d8fedfb955afd803b35ab89f3",
    }),
    "overlap-add": ({"duration": 1.06e-4}, ["json"], {
        "waveform.bin":
            "509e8dbf9e95144fb21f5f91d79e1f5024ed1aee1a6ac5c2bb91ea71d88fb15d",
    }),
    "overlap-add with noise": ({"duration": 1.06e-4, "noise_rms": 1e-4}, ["json"], {
        "waveform.bin":
            "f0df9120aae84f205130d464942751fe419e444694ef16e285c2860885ed1a96",
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
        "41c37d0f56ed2cf25228ba3e8b97107322565b5421b2a777c14a5d20658d7b82",
    "summary.json":
        "165d175440a0df614cac1f181727deccef3ef8c6aedb695ec2c98b80103d39fc",
    "timestamps.bin":
        "09bd529af29800e5df447cdd4c89ada3492f5e8e657cf721b547e26feeef5e87",
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
