"""Backend resolution: the vectorized default, env var, degradation."""

import pytest

from repro.api import build_predictor, registered_kinds, spec_for
from repro.fastpath import backend as bk


class TestResolution:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert bk.resolve_backend("auto") == "vectorized"

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert bk.resolve_backend("auto") == "reference"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        assert bk.resolve_backend("reference") == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            bk.resolve_backend("cuda")

    def test_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(bk, "HAS_NUMPY", False)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert bk.resolve_backend("vectorized") == "reference"
        assert bk.resolve_backend("auto") == "reference"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "simd")
        with pytest.raises(ValueError):
            bk.resolve_backend("auto")


@pytest.mark.parametrize("kind", registered_kinds())
def test_predictors_carry_no_backend(kind):
    """The run's policy picks the path; a built predictor has no say."""
    assert not hasattr(build_predictor(spec_for(kind)), "backend")
