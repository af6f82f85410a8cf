"""PredictorSpec: normalisation, serialisation, cache keys, building."""

import json

import pytest

from repro.api import (
    PredictorSpec,
    SERVABLE_FAMILIES,
    UnknownKindError,
    build_predictor,
    kind_info,
    registered_kinds,
    spec_for,
)


def test_registry_covers_every_family():
    families = {kind_info(k).family for k in registered_kinds()}
    for family in SERVABLE_FAMILIES:
        assert family in families
    # The paper's three predictor classes plus the binary substrate.
    assert {"cht.tagless", "cht.tagged", "cht.full", "cht.combined",
            "cht.storesets", "hmp.local", "hmp.hybrid", "bank.a",
            "bank.b", "bank.c", "bank.address",
            "binary.gshare"} <= set(registered_kinds())


def test_unknown_kind_raises():
    with pytest.raises(UnknownKindError):
        spec_for("cht.quantum")


def test_unknown_param_raises():
    with pytest.raises(TypeError, match="bogus"):
        spec_for("cht.tagless", bogus=3)


def test_defaults_are_normalised_in():
    spec = spec_for("cht.tagless")
    assert spec.params_dict == kind_info("cht.tagless").defaults_dict
    # Passing a default explicitly produces the *same* spec.
    assert spec == spec_for("cht.tagless", size=4096)


def test_param_order_does_not_matter():
    a = spec_for("cht.full", size=256, ways=2)
    b = spec_for("cht.full", ways=2, size=256)
    assert a == b
    assert a.cache_key() == b.cache_key()
    assert hash(a) == hash(b)


def test_json_round_trip():
    spec = spec_for("hmp.hybrid", local_size=256)
    again = PredictorSpec.from_json(spec.to_json())
    assert again == spec
    payload = json.loads(spec.to_json())
    assert payload["kind"] == "hmp.hybrid"
    assert payload["params"]["local_size"] == 256


def test_every_registered_kind_round_trips_and_builds():
    for kind in registered_kinds():
        spec = spec_for(kind)
        assert PredictorSpec.from_json(spec.to_json()) == spec
        predictor = build_predictor(spec)
        assert predictor is not None
        # build_predictor stamps the constructing spec on the object.
        assert predictor.spec == spec


def test_trivial_predictors_round_trip_through_spec():
    """AlwaysPredictor & friends (no table state) survive the spec
    serialisation cycle and still behave identically."""
    for kind, probe in (("binary.always", lambda p: p.predict(0).outcome),
                        ("cht.never", lambda p: p.lookup(0).colliding),
                        ("cht.always", lambda p: p.lookup(0).colliding),
                        ("hmp.always-hit", lambda p: p.predict_hit(0)),
                        ("hmp.always-miss", lambda p: p.predict_hit(0))):
        spec = spec_for(kind)
        rebuilt = build_predictor(PredictorSpec.from_json(spec.to_json()))
        assert probe(rebuilt) == probe(build_predictor(spec))


def test_always_predictor_outcome_param():
    assert build_predictor(
        spec_for("binary.always", outcome=True)).predict(0).outcome is True
    assert build_predictor(
        spec_for("binary.always")).predict(0).outcome is False


def test_cache_key_is_stable_and_distinct():
    a = spec_for("cht.tagless", size=2048)
    assert a.cache_key() == spec_for("cht.tagless", size=2048).cache_key()
    assert a.cache_key() != spec_for("cht.tagless", size=4096).cache_key()
    assert a.cache_key() != spec_for("cht.tagged", size=2048).cache_key()
    # Keys come from the shared envelope rules: hex SHA-256.
    assert len(a.cache_key()) == 64
    int(a.cache_key(), 16)


def test_cache_material_binds_schema():
    from repro.parallel.cache import key_material
    spec = spec_for("bank.a")
    assert spec.cache_material() == key_material("predictor-spec",
                                                 spec.to_json_dict())


def test_build_takes_no_backend():
    # The run's ExecutionPolicy picks the path, not the predictor.
    with pytest.raises(TypeError):
        build_predictor(spec_for("binary.bimodal"), backend="vectorized")
    with pytest.raises(TypeError):
        spec_for("binary.bimodal").build(backend="vectorized")


def test_spec_build_method_matches_build_predictor():
    spec = spec_for("hmp.local", size=128)
    assert type(spec.build()) is type(build_predictor(spec))


def test_params_restricted_to_json_scalars():
    with pytest.raises(TypeError):
        spec_for("cht.tagless", size=[1, 2])
