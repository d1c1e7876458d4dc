"""Cache-key stability: the contract the whole result store hangs on.

A key must be a pure function of (spec, semantic options, record schema,
kernel epoch): identical across processes, immune to param-dict insertion
order and serialization round-trips, and *changed* by anything that could
change a verdict.
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.consensus.solvability import CheckOptions
from repro.schemas import RUN_RECORD
from repro.specs import AdversarySpec
from repro.store import keys
from repro.store.keys import SEMANTIC_OPTION_FIELDS, cache_key, key_payload

SPEC = AdversarySpec("random-oblivious", {"n": 2, "size": 2}, seed=11)
OPTIONS = CheckOptions(max_depth=4)


def test_key_is_deterministic_and_hex_sha256():
    key = cache_key(SPEC, OPTIONS)
    assert key == cache_key(SPEC, OPTIONS)
    assert len(key) == 64
    int(key, 16)  # hex


def test_key_survives_param_dict_orderings():
    forward = AdversarySpec("random-oblivious", {"n": 2, "size": 2}, seed=11)
    reversed_params = AdversarySpec(
        "random-oblivious", {"size": 2, "n": 2}, seed=11
    )
    assert cache_key(forward, OPTIONS) == cache_key(reversed_params, OPTIONS)


def test_key_survives_json_and_pickle_round_trips():
    expected = cache_key(SPEC, OPTIONS)
    json_spec = AdversarySpec.from_dict(json.loads(json.dumps(SPEC.to_dict())))
    json_options = CheckOptions.from_dict(
        json.loads(json.dumps(OPTIONS.to_dict()))
    )
    assert cache_key(json_spec, json_options) == expected
    pickled_spec = pickle.loads(pickle.dumps(SPEC))
    pickled_options = pickle.loads(pickle.dumps(OPTIONS))
    assert cache_key(pickled_spec, pickled_options) == expected


def test_key_is_identical_across_processes():
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.specs import AdversarySpec\n"
        "from repro.consensus.solvability import CheckOptions\n"
        "from repro.store.keys import cache_key\n"
        "spec = AdversarySpec('random-oblivious', {'size': 2, 'n': 2}, seed=11)\n"
        "print(cache_key(spec, CheckOptions(max_depth=4)))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", script, src],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == cache_key(SPEC, OPTIONS)


def test_every_semantic_option_field_changes_the_key():
    base = cache_key(SPEC, OPTIONS)
    changed = {
        "max_depth": OPTIONS.max_depth + 1,
        "max_nodes": OPTIONS.max_nodes // 2,
        "use_impossibility_provers": not OPTIONS.use_impossibility_provers,
        "use_broadcaster_certificate": not OPTIONS.use_broadcaster_certificate,
    }
    assert set(changed) == set(SEMANTIC_OPTION_FIELDS)
    for field, value in changed.items():
        assert cache_key(SPEC, OPTIONS.replace(**{field: value})) != base, field


def test_observability_options_do_not_change_the_key():
    base = cache_key(SPEC, OPTIONS)
    for variant in (
        OPTIONS.replace(layer_backend="python"),
        OPTIONS.replace(extension_workers=4),
        OPTIONS.replace(plan_cache_size=7),
        OPTIONS.replace(memo_extensions=True),
    ):
        assert cache_key(SPEC, variant) == base


def test_ignored_memo_extensions_key_leaves_the_key_unchanged():
    """Options loaded from manifests with and without the key share a key."""
    without = OPTIONS.to_dict()
    del without["memo_extensions"]
    base = cache_key(SPEC, CheckOptions.from_dict(without))
    assert base == cache_key(SPEC, OPTIONS)
    for value in (True, False, None):
        loaded = CheckOptions.from_dict({**without, "memo_extensions": value})
        assert cache_key(SPEC, loaded) == base
    assert "memo_extensions" not in json.dumps(key_payload(SPEC, OPTIONS))


def test_spec_family_params_and_seed_all_change_the_key():
    base = cache_key(SPEC, OPTIONS)
    other_seed = AdversarySpec("random-oblivious", {"n": 2, "size": 2}, seed=12)
    other_params = AdversarySpec("random-oblivious", {"n": 2, "size": 3}, seed=11)
    assert cache_key(other_seed, OPTIONS) != base
    assert cache_key(other_params, OPTIONS) != base


def test_schema_or_epoch_bump_invalidates(monkeypatch):
    base = cache_key(SPEC, OPTIONS)
    monkeypatch.setattr(keys, "KERNEL_EPOCH", keys.KERNEL_EPOCH + 1)
    assert cache_key(SPEC, OPTIONS) != base
    monkeypatch.setattr(keys, "KERNEL_EPOCH", keys.KERNEL_EPOCH - 1)
    assert cache_key(SPEC, OPTIONS) == base
    monkeypatch.setattr(keys, "RUN_RECORD", "repro.run-record/999")
    assert cache_key(SPEC, OPTIONS) != base


def test_payload_commits_to_exactly_four_ingredients():
    payload = key_payload(SPEC, OPTIONS)
    assert set(payload) == {"kernel_epoch", "record_schema", "spec", "options"}
    assert payload["record_schema"] == RUN_RECORD
    assert set(payload["options"]) == set(SEMANTIC_OPTION_FIELDS)


def test_non_serializable_payload_fails_loudly():
    bad = AdversarySpec("random-oblivious", {"n": 2, "size": 2}, seed=11)
    bad.params = {"n": 2, "size": object()}
    with pytest.raises(TypeError):
        cache_key(bad, OPTIONS)
