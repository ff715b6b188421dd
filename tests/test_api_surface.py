"""API-surface and error-hierarchy tests.

Downstream users import from ``repro``/subpackage roots; these tests pin the
public surface so refactors cannot silently drop it.
"""

from __future__ import annotations

import pytest

import repro
import repro.errors as errors


class TestTopLevelApi:
    EXPECTED = {
        "ACOParams",
        "ACSParams",
        "ArrayBackend",
        "available_backends",
        "get_backend",
        "AntColonySystem",
        "AntSystem",
        "MaxMinAntSystem",
        "MMASParams",
        "RunResult",
        "ChoiceKernel",
        "make_construction",
        "make_pheromone",
        "DeviceSpec",
        "TESLA_C1060",
        "TESLA_M2050",
        "DEVICES",
        "TSPInstance",
        "load_instance",
        "paper_suite",
        "parse_tsplib",
        "uniform_instance",
    }

    def test_all_exports_present(self):
        for name in self.EXPECTED:
            assert hasattr(repro, name), f"repro.{name} missing"
            assert name in repro.__all__

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_subpackage_roots_import(self):
        import repro.backend
        import repro.core
        import repro.experiments
        import repro.rng
        import repro.seq
        import repro.simt
        import repro.tsp
        import repro.util  # noqa: F401

    def test_docstring_quickstart_runs(self):
        """The package docstring's example must actually work."""
        from repro import AntSystem, load_instance

        colony = AntSystem(load_instance("att48"), construction=8, pheromone=1)
        result = colony.run(iterations=2)
        assert result.best_length > 0


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            if name == "RunInterrupted":
                # Deliberate outlier: it must stay catchable as a plain
                # KeyboardInterrupt so Ctrl-C semantics survive for callers
                # that never heard of it (see its docstring).
                assert issubclass(cls, KeyboardInterrupt)
                assert not issubclass(cls, errors.ReproError)
                continue
            if name == "WorkerKilledError":
                # Second deliberate outlier: a simulated worker death must
                # punch through bare `except Exception` recovery blocks the
                # way a real SIGKILL would, so it derives from BaseException
                # (see its docstring).  The retry machinery catches it by
                # name.
                assert issubclass(cls, BaseException)
                assert not issubclass(cls, Exception)
                assert not issubclass(cls, errors.ReproError)
                continue
            assert issubclass(cls, errors.ReproError)

    def test_serve_errors_group(self):
        assert issubclass(errors.ServiceClosedError, errors.ServeError)
        assert issubclass(errors.ServiceOverloadedError, errors.ServeError)
        assert issubclass(errors.ServeTimeoutError, errors.ServeError)
        assert issubclass(errors.InjectedFaultError, errors.ServeError)
        assert issubclass(errors.ServeError, errors.ReproError)

    def test_subsystem_groups(self):
        assert issubclass(errors.TSPLIBFormatError, errors.TSPError)
        assert issubclass(errors.UnsupportedEdgeWeightError, errors.TSPLIBFormatError)
        assert issubclass(errors.InvalidTourError, errors.TSPError)
        assert issubclass(errors.LaunchConfigError, errors.SimtError)
        assert issubclass(errors.OccupancyError, errors.SimtError)
        assert issubclass(errors.MemoryModelError, errors.SimtError)
        assert issubclass(errors.CalibrationError, errors.ExperimentError)

    def test_format_error_carries_line_number(self):
        err = errors.TSPLIBFormatError("bad token", line_no=17)
        assert "line 17" in str(err)
        assert err.line_no == 17

    def test_single_except_catches_everything(self):
        from repro.core import ACOParams

        with pytest.raises(errors.ReproError):
            ACOParams(rho=2.0)
        with pytest.raises(errors.ReproError):
            from repro.tsp import load_instance

            load_instance("nonexistent99")


class TestRegistriesConsistent:
    def test_construction_and_pheromone_cover_paper_rows(self):
        from repro.core import CONSTRUCTION_VERSIONS, PHEROMONE_VERSIONS

        assert sorted(CONSTRUCTION_VERSIONS) == list(range(1, 9))
        assert sorted(PHEROMONE_VERSIONS) == list(range(1, 6))

    def test_devices_registry(self):
        assert set(repro.DEVICES) == {"c1060", "m2050"}
