"""The benchmark recorder's annotation carry-forward (no benchmarks run)."""

import importlib.util
from pathlib import Path

_RECORD_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _RECORD_PATH)
_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_record)


def test_carry_annotations_recomputes_speedups():
    fresh = {
        "benchmarks": {
            "test_a": {"mean_s": 0.5, "min_s": 0.4, "rounds": 3},
            "test_new": {"mean_s": 1.0, "min_s": 0.9, "rounds": 2},
        }
    }
    baseline = {
        "seed_commit": "abc123",
        "aggregate_note": "history",
        "benchmarks": {
            "test_a": {
                "mean_s": 1.0,  # measured key: must NOT be carried
                "min_s": 0.9,
                "rounds": 5,
                "seed_mean_s": 5.0,
                "pr4_mean_s": 1.0,
                "speedup_vs_seed": 5.0,  # stale ratio: recomputed, not copied
            },
            "test_gone": {"mean_s": 9.9, "seed_mean_s": 1.0},
        },
    }
    carried = _record.carry_annotations(fresh, baseline)
    assert carried == 1
    entry = fresh["benchmarks"]["test_a"]
    assert entry["mean_s"] == 0.5  # fresh measurement intact
    assert entry["seed_mean_s"] == 5.0
    assert entry["pr4_mean_s"] == 1.0
    assert entry["speedup_vs_seed"] == 10.0
    assert entry["speedup_vs_pr4"] == 2.0
    # Entries without a baseline counterpart are left untouched.
    assert fresh["benchmarks"]["test_new"] == {
        "mean_s": 1.0, "min_s": 0.9, "rounds": 2
    }
    # File-level history metadata rides along when absent, and the
    # aggregate headline is recomputed from the carried seed speedups.
    assert fresh["seed_commit"] == "abc123"
    assert fresh["aggregate_note"] == "history"
    assert fresh["aggregate_speedup_vs_seed"] == 10.0


def test_carry_preserves_non_timing_annotations():
    fresh = {"benchmarks": {"test_a": {"mean_s": 2.0, "min_s": 1.5, "rounds": 1}}}
    baseline = {
        "benchmarks": {"test_a": {"mean_s": 4.0, "note": "n=2 premium"}}
    }
    assert _record.carry_annotations(fresh, baseline) == 1
    assert fresh["benchmarks"]["test_a"]["note"] == "n=2 premium"
    assert "speedup_vs_note" not in fresh["benchmarks"]["test_a"]


def test_distill_copies_numeric_extra_info_as_measured_keys():
    raw = {
        "benchmarks": [
            {
                "name": "test_service_mixed_load_90_10",
                "stats": {"mean": 0.4, "min": 0.38, "rounds": 3},
                "extra_info": {
                    "hot_latency_p99_s": 0.002,
                    "cold_latency_p99_s": 0.9,
                    "label": "not a number",
                    "flag": True,
                },
            },
            {
                "name": "test_service_cold_depth10_check",
                "stats": {"mean": 0.8, "min": 0.7, "rounds": 3},
                "extra_info": {"cold_s": 0.75, "speedup_vs_cold": 7000.0},
            },
            {
                "name": "test_sharded",
                "stats": {"mean": 2.0, "min": 1.9, "rounds": 1},
                "extra_info": {"extension_workers": 2},
            },
        ]
    }
    entries = _record.distill(raw)
    assert entries["test_service_mixed_load_90_10"] == {
        "mean_s": 0.4,
        "min_s": 0.38,
        "rounds": 3,
        "extension_workers": 1,
        "hot_latency_p99_s": 0.002,
        "cold_latency_p99_s": 0.9,
    }
    assert entries["test_service_cold_depth10_check"]["cold_s"] == 0.75
    assert entries["test_service_cold_depth10_check"]["speedup_vs_cold"] == 7000.0
    assert entries["test_sharded"]["extension_workers"] == 2


def test_carry_never_copies_a_stale_extra_info_measurement():
    fresh = {
        "measured_extra_keys": ["cold_s"],
        "benchmarks": {
            "test_cold": {"mean_s": 0.5, "min_s": 0.4, "rounds": 3, "cold_s": 0.45},
            "test_quiet": {"mean_s": 1.0, "min_s": 0.9, "rounds": 3},
        },
    }
    baseline = {
        "measured_extra_keys": ["cold_s", "hot_latency_p99_s"],
        "benchmarks": {
            "test_cold": {"mean_s": 0.9, "cold_s": 0.88, "seed_mean_s": 2.0},
            "test_quiet": {"mean_s": 1.0, "hot_latency_p99_s": 0.01, "note": "kept"},
        },
    }
    assert _record.carry_annotations(fresh, baseline) == 2
    assert fresh["benchmarks"]["test_cold"]["cold_s"] == 0.45
    assert fresh["benchmarks"]["test_cold"]["seed_mean_s"] == 2.0
    assert fresh["benchmarks"]["test_quiet"]["note"] == "kept"
    assert "hot_latency_p99_s" not in fresh["benchmarks"]["test_quiet"]
