"""Tests for the exception hierarchy in :mod:`repro.errors`."""

import inspect

import pytest

import repro.errors as errors_module
from repro.errors import (
    ConfigurationError,
    FaultError,
    RecoveryExhaustedError,
    ReproError,
    SimulationError,
    WorkloadError,
)

ALL_ERRORS = [
    ConfigurationError,
    FaultError,
    RecoveryExhaustedError,
    SimulationError,
    WorkloadError,
]


class TestHierarchy:
    @pytest.mark.parametrize("cls", ALL_ERRORS)
    def test_every_error_derives_from_repro_error(self, cls):
        assert issubclass(cls, ReproError)
        assert issubclass(cls, Exception)

    def test_module_exports_nothing_outside_the_family(self):
        # One `except ReproError` must catch every library error.
        for _name, obj in inspect.getmembers(errors_module, inspect.isclass):
            if issubclass(obj, Exception):
                assert issubclass(obj, ReproError) or obj is ReproError

    @pytest.mark.parametrize("cls", ALL_ERRORS)
    def test_one_handler_catches_the_whole_family(self, cls):
        with pytest.raises(ReproError, match="boom"):
            raise cls("boom")

    def test_recovery_exhausted_is_a_fault_error(self):
        assert issubclass(RecoveryExhaustedError, FaultError)

    def test_repro_error_is_not_caught_by_sibling_handlers(self):
        with pytest.raises(ConfigurationError):
            try:
                raise ConfigurationError("config")
            except WorkloadError:  # pragma: no cover — must not match
                pass


class TestFaultErrorPayload:
    def test_defaults(self):
        exc = FaultError("bad read")
        assert str(exc) == "bad read"
        assert exc.device == ""
        assert exc.line_addr == -1
        assert not exc.permanent

    def test_carries_fault_site(self):
        exc = FaultError("bad read", device="stacked", line_addr=42, permanent=True)
        assert exc.device == "stacked"
        assert exc.line_addr == 42
        assert exc.permanent

    def test_recovery_exhausted_is_always_permanent(self):
        exc = RecoveryExhaustedError("gave up", device="offchip", line_addr=7)
        assert exc.permanent
        assert exc.device == "offchip"
        assert exc.line_addr == 7
