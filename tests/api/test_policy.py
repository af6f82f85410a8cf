"""ExecutionPolicy: validation, JSON round trip, deferred resolution.

The policy object is the single "how should this run" value the whole
stack accepts (Machine.run, ServeConfig, the bench CLIs).  These tests
pin the contract pieces the rest of the repo leans on: frozen-ness,
strict JSON round trip, pickling, and the deferred ``"auto"`` modes.
"""

import json
import pickle

import pytest

from repro.api import ExecutionPolicy


# -- construction and validation -----------------------------------------


def test_defaults_are_the_deferred_modes():
    policy = ExecutionPolicy()
    assert policy.backend == "auto"
    assert policy.check_invariants == "auto"
    # Hot-trace replay is part of every shard, not a policy choice:
    # the policy holds exactly these two fields.
    assert list(policy.to_json_dict()) == ["backend", "check_invariants"]


def test_frozen():
    policy = ExecutionPolicy()
    with pytest.raises(Exception):
        policy.backend = "vectorized"


def test_replace_returns_modified_copy():
    base = ExecutionPolicy()
    fast = base.replace(backend="vectorized", check_invariants="on")
    assert fast.backend == "vectorized"
    assert fast.check_invariants == "on"
    assert base.backend == "auto" and base.check_invariants == "auto"


@pytest.mark.parametrize("bad", [
    {"backend": "cuda"},
    {"check_invariants": "maybe"},
])
def test_validation_rejects(bad):
    with pytest.raises(ValueError):
        ExecutionPolicy(**bad)


@pytest.mark.parametrize("bad", [
    # A malformed --policy JSON must fail loudly, not misconfigure the
    # stack via truthiness: true is NOT an armed oracle.
    {"check_invariants": True},
    {"check_invariants": 1},
    {"check_invariants": None},
    {"backend": 1},
    {"backend": None},
    {"backend": ["vectorized"]},
    {"backend": "VECTORIZED"},
])
def test_validation_rejects_wrong_types(bad):
    with pytest.raises(ValueError):
        ExecutionPolicy(**bad)


@pytest.mark.parametrize("text", [
    '{"hottrace": true}',
    '{"hot_threshold": 2}',
    '{"min_trace_len": 4}',
    '{"max_traces": 7}',
])
def test_removed_hottrace_fields_are_unknown(text):
    # Hot-trace lost its switch and knobs; a policy still carrying them
    # must fail loudly rather than be silently ignored.
    with pytest.raises(ValueError, match="unknown ExecutionPolicy"):
        ExecutionPolicy.from_json(text)


# -- JSON round trip ------------------------------------------------------


@pytest.mark.parametrize("policy", [
    ExecutionPolicy(),
    ExecutionPolicy(backend="vectorized"),
    ExecutionPolicy(backend="reference", check_invariants="on"),
])
def test_json_round_trip(policy):
    assert ExecutionPolicy.from_json(policy.to_json()) == policy
    # And via the dict form, which the serve stats/report embedding
    # uses.
    assert ExecutionPolicy.from_json_dict(policy.to_json_dict()) == policy


def test_to_json_is_plain_sorted_json():
    text = ExecutionPolicy().to_json()
    data = json.loads(text)
    assert data["backend"] == "auto"
    assert list(data) == sorted(data)


def test_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown ExecutionPolicy"):
        ExecutionPolicy.from_json('{"backend": "auto", "turbo": true}')


def test_partial_json_fills_defaults():
    policy = ExecutionPolicy.from_json('{"backend": "vectorized"}')
    assert policy == ExecutionPolicy(backend="vectorized")


# -- pickling -------------------------------------------------------------


def test_policy_survives_pickle():
    # The fleet ships the policy to worker subprocesses inside the
    # pickled ServeConfig frame.
    policy = ExecutionPolicy(backend="reference", check_invariants="off")
    assert pickle.loads(pickle.dumps(policy)) == policy


# -- deferred resolution --------------------------------------------------


def test_resolved_backend_explicit_reference():
    assert ExecutionPolicy(
        backend="reference").resolved_backend() == "reference"


def test_resolved_backend_auto_follows_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert ExecutionPolicy().resolved_backend() == "reference"


def test_invariants_active_modes(monkeypatch):
    assert ExecutionPolicy(check_invariants="on").invariants_active()
    assert not ExecutionPolicy(check_invariants="off").invariants_active()
    monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    assert not ExecutionPolicy().invariants_active()
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    assert ExecutionPolicy().invariants_active()
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
    assert not ExecutionPolicy().invariants_active()

