"""Backend selection: env var, default, context manager, degradation."""

import pytest

from repro.fastpath import backend as bk
from repro.predictors.bimodal import BimodalPredictor


class TestResolution:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setattr(bk, "_default", None)
        assert bk.default_backend() == "reference"
        assert bk.resolve_backend(None) == "reference"

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setattr(bk, "_default", None)
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        assert bk.default_backend() == "vectorized"

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        monkeypatch.setattr(bk, "_default", None)
        bk.set_default_backend("vectorized")
        try:
            assert bk.default_backend() == "vectorized"
        finally:
            bk._default = None

    def test_use_backend_restores(self):
        before = bk.default_backend()
        with bk.use_backend("vectorized"):
            assert bk.default_backend() == "vectorized"
        assert bk.default_backend() == before

    def test_explicit_argument_wins(self):
        with bk.use_backend("vectorized"):
            assert bk.resolve_backend("reference") == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            bk.resolve_backend("cuda")
        with pytest.raises(ValueError):
            bk.set_default_backend("")

    def test_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(bk, "HAS_NUMPY", False)
        assert bk.resolve_backend("vectorized") == "reference"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setattr(bk, "_default", None)
        monkeypatch.setenv("REPRO_BACKEND", "simd")
        with pytest.raises(ValueError):
            bk.default_backend()


class TestClassPickup:
    @pytest.fixture(autouse=True)
    def _clean_default(self, monkeypatch):
        # Neutralise any REPRO_BACKEND the invoking shell exported so
        # these assertions see the documented out-of-the-box default.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setattr(bk, "_default", None)

    def test_constructor_stores_resolved_backend(self):
        assert BimodalPredictor().backend == "reference"
        assert BimodalPredictor(backend="vectorized").backend == "vectorized"

    def test_default_pickup_via_context(self):
        with bk.use_backend("vectorized"):
            assert BimodalPredictor().backend == "vectorized"
        assert BimodalPredictor().backend == "reference"

    def test_scalar_api_identical_across_backends(self):
        ref = BimodalPredictor(n_entries=64, backend="reference")
        vec = BimodalPredictor(n_entries=64, backend="vectorized")
        for pc in range(0, 4096, 4):
            outcome = (pc // 64) % 3 == 0
            assert ref.predict(pc) == vec.predict(pc)
            ref.update(pc, outcome)
            vec.update(pc, outcome)
        assert ref._table.cells == vec._table.cells
