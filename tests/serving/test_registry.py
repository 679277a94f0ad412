"""Tests for the named release registry (including lazy archive entries)."""

import numpy as np
import pytest

from repro.core.publish import publish
from repro.errors import ReproError, ServingError
from repro.io import save_result
from repro.serving.registry import ReleaseRegistry


@pytest.fixture
def result():
    return publish(np.arange(32, dtype=np.float64), 1.0, mechanism="privelet", seed=0)


@pytest.fixture
def archive(tmp_path, result):
    path = tmp_path / "release.npz"
    save_result(path, result)
    return path


class TestInProcess:
    def test_register_and_get(self, result):
        registry = ReleaseRegistry()
        assert registry.register("a", result) == "a"
        assert registry.get("a") is result
        assert "a" in registry and len(registry) == 1

    def test_names_sorted(self, result):
        registry = ReleaseRegistry()
        registry.register("zeta", result)
        registry.register("alpha", result)
        assert registry.names == ("alpha", "zeta")

    def test_duplicate_name_rejected(self, result):
        registry = ReleaseRegistry()
        registry.register("a", result)
        with pytest.raises(ServingError, match="already registered"):
            registry.register("a", result)

    def test_invalid_name_and_value_rejected(self, result):
        registry = ReleaseRegistry()
        with pytest.raises(ServingError, match="non-empty string"):
            registry.register("", result)
        with pytest.raises(ServingError, match="PublishResult"):
            registry.register("a", object())

    def test_unknown_name_has_code(self):
        registry = ReleaseRegistry()
        with pytest.raises(ServingError) as excinfo:
            registry.get("missing")
        assert excinfo.value.code == "unknown-release"
        assert "missing" in str(excinfo.value)

    def test_describe_in_process(self, result):
        registry = ReleaseRegistry()
        registry.register("a", result)
        described = registry.describe("a")
        assert described["source"] == "memory"
        assert described["loaded"] is True
        assert described["shape"] == [32]


class TestArchiveBacked:
    def test_default_name_is_stem(self, archive):
        registry = ReleaseRegistry()
        assert registry.register_archive(archive) == "release"

    def test_lazy_until_first_get(self, archive, result):
        registry = ReleaseRegistry()
        registry.register_archive(archive, name="lazy")
        assert registry.describe("lazy")["loaded"] is False
        loaded = registry.get("lazy")
        assert registry.describe("lazy")["loaded"] is True
        assert loaded.epsilon == result.epsilon
        # Cached: same object on repeat.
        assert registry.get("lazy") is loaded

    def test_describe_without_loading(self, archive):
        registry = ReleaseRegistry()
        registry.register_archive(archive, name="lazy")
        described = registry.describe("lazy")
        assert described["representation"] == "coefficients"
        assert described["epsilon"] == 1.0
        assert described["shape"] == [32]
        assert described["source"] == str(archive)
        assert registry.describe("lazy")["loaded"] is False

    def test_missing_archive_fails_at_registration(self, tmp_path):
        registry = ReleaseRegistry()
        with pytest.raises(ReproError, match="no such archive"):
            registry.register_archive(tmp_path / "absent.npz")

    def test_non_archive_fails_at_registration(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip at all")
        registry = ReleaseRegistry()
        with pytest.raises(ReproError):
            registry.register_archive(path)

    def test_lock_for_is_per_release(self, archive, result):
        registry = ReleaseRegistry()
        registry.register("a", result)
        registry.register_archive(archive, name="b")
        assert registry.lock_for("a") is registry.lock_for("a")
        assert registry.lock_for("a") is not registry.lock_for("b")

    def test_relative_path_pinned_at_registration(
        self, archive, result, tmp_path, monkeypatch
    ):
        """Regression: lazy loading must not re-resolve against a CWD
        that changed between registration and the first query."""
        monkeypatch.chdir(archive.parent)
        registry = ReleaseRegistry()
        registry.register_archive(archive.name, name="rel")
        assert registry.describe("rel")["loaded"] is False
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        loaded = registry.get("rel")  # first touch happens *after* chdir
        assert loaded.epsilon == result.epsilon
        assert registry.describe("rel")["source"] == str(archive)

    def test_refresh_and_stale(self, archive, result):
        registry = ReleaseRegistry()
        registry.register("memory", result)
        registry.register_archive(archive, name="disk")
        assert registry.stale("memory") is False
        assert registry.stale("disk") is False
        assert registry.refresh("memory") is False
        first = registry.get("disk")
        assert registry.refresh("disk") is True
        assert registry.get("disk") is not first
