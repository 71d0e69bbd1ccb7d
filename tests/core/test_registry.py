"""Backend registry: resolution order, fallbacks, and scoping."""

import pytest

from repro.core import (
    BACKEND_ENV,
    KERNEL_FORMAT_VERSION,
    available_backends,
    backend_names,
    get_kernel,
    resolve_backend,
    resolve_backend_with_reason,
    set_default_backend,
    use_backend,
)
from repro.core import registry as registry_mod

HAVE_FUSED = "fused" in available_backends()


@pytest.fixture(autouse=True)
def clean_registry(monkeypatch):
    """Each test starts unpinned and with no RAP_BACKEND in the env."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(registry_mod, "_default", None)


class TestResolution:
    def test_python_is_the_default(self):
        assert resolve_backend() == "python"

    def test_python_always_available(self):
        assert "python" in available_backends()
        assert set(available_backends()) <= set(backend_names())

    def test_three_backends_are_registered(self):
        assert backend_names() == ("python", "fused", "native")

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fused")
        expected = "fused" if HAVE_FUSED else "python"
        assert resolve_backend() == expected

    def test_env_is_case_insensitive(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "  PyThOn ")
        assert resolve_backend() == "python"

    def test_unknown_env_value_falls_back_silently(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "cuda")
        assert resolve_backend() == "python"

    def test_explicit_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fused")
        assert resolve_backend("python") == "python"

    def test_unavailable_backend_falls_back_silently(self, monkeypatch):
        monkeypatch.setitem(registry_mod._BACKENDS, "ghost", lambda: False)
        assert resolve_backend("ghost") == "python"
        monkeypatch.setenv(BACKEND_ENV, "ghost")
        assert resolve_backend() == "python"

    def test_fallback_chain_is_one_hop_each(self, monkeypatch):
        # native -> fused -> python: each unavailable tier costs exactly
        # one hop, and the reason names every hop taken.
        monkeypatch.setitem(registry_mod._BACKENDS, "native", lambda: False)
        resolved, reason = resolve_backend_with_reason("native")
        assert resolved == ("fused" if HAVE_FUSED else "python")
        assert reason.startswith("native unavailable: ")
        monkeypatch.setitem(registry_mod._BACKENDS, "fused", lambda: False)
        resolved, reason = resolve_backend_with_reason("native")
        assert resolved == "python"
        assert [hop.split(" ")[0] for hop in reason.split("; ")] == [
            "native",
            "fused",
        ]

    @pytest.mark.parametrize("name", [None, "python", "fused", "native"])
    def test_resolve_is_the_reasoned_resolution(self, name, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert resolve_backend(name) == resolve_backend_with_reason(name)[0]


class TestDefaultPinning:
    def test_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fused")
        set_default_backend("python")
        assert resolve_backend() == "python"

    def test_none_unpins(self, monkeypatch):
        set_default_backend("python")
        set_default_backend(None)
        monkeypatch.setenv(BACKEND_ENV, "nonsense")
        assert resolve_backend() == "python"

    def test_pinning_resolves_eagerly(self, monkeypatch):
        # An unavailable pin resolves to python at pin time, so a later
        # (hypothetically successful) probe cannot flip the choice.
        monkeypatch.setitem(registry_mod._BACKENDS, "ghost", lambda: False)
        set_default_backend("ghost")
        assert registry_mod._default == "python"

    def test_use_backend_scopes_and_restores(self):
        set_default_backend("python")
        with use_backend("fused") as resolved:
            assert resolved == ("fused" if HAVE_FUSED else "python")
            assert resolve_backend() == resolved
        assert resolve_backend() == "python"

    def test_use_backend_restores_on_error(self):
        set_default_backend("python")
        with pytest.raises(RuntimeError):
            with use_backend("fused"):
                raise RuntimeError("boom")
        assert registry_mod._default == "python"


class TestKernels:
    def test_instances_are_shared(self):
        assert get_kernel() is get_kernel()

    def test_kernel_reports_its_name(self):
        assert get_kernel().name == "python"

    def test_numpy_kernel_resolves(self, monkeypatch):
        """The retired ``numpy`` name is just an unknown name: a stale
        ``RAP_BACKEND=numpy`` must not break a run (it resolves to the
        python kernel) and operators must be able to see why."""
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert resolve_backend_with_reason() == (
            "python",
            "unknown backend 'numpy'",
        )
        assert get_kernel().name == "python"
        with pytest.raises(ValueError, match="unknown backend 'numpy'"):
            resolve_backend("numpy")

    def test_kernel_is_the_oracle_on_every_backend(self):
        for backend in available_backends():
            with use_backend(backend):
                assert get_kernel().name == "python"

    def test_format_version_is_a_positive_int(self):
        assert isinstance(KERNEL_FORMAT_VERSION, int)
        assert KERNEL_FORMAT_VERSION >= 1
