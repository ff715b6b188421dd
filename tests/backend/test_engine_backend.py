"""Backend threading through the engines, and the choice-kernel fast path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.registry import ENV_VAR
from repro.core import ACOParams, AntSystem, BatchEngine, ChoiceKernel
from repro.core.batch import BatchColonyState
from repro.core.choice import compute_choice_batch
from repro.errors import BackendError
from repro.simt.device import TESLA_M2050
from repro.tsp import uniform_instance


@pytest.fixture(scope="module")
def instance():
    return uniform_instance(24, seed=77)


class TestEngineBackendParameter:
    def test_antsystem_explicit_numpy_identical_to_default(self, instance):
        base = AntSystem(instance, ACOParams(seed=5), construction=8, pheromone=1)
        named = AntSystem(
            instance, ACOParams(seed=5), construction=8, pheromone=1,
            backend="numpy",
        )
        r_base = base.run(iterations=3)
        r_named = named.run(iterations=3)
        assert r_base.best_length == r_named.best_length
        np.testing.assert_array_equal(r_base.best_tour, r_named.best_tour)
        np.testing.assert_array_equal(
            base.state.pheromone, named.state.pheromone
        )

    def test_batch_engine_backend_instance(self, instance):
        backend = get_backend("numpy")
        engine = BatchEngine.replicas(
            instance, ACOParams(seed=2), replicas=3, backend=backend
        )
        assert engine.backend is backend
        assert engine.state.backend is backend
        assert engine.rng.backend is backend
        batch = engine.run(iterations=2)
        assert batch.B == 3

    def test_unknown_backend_rejected(self, instance):
        with pytest.raises(BackendError, match="unknown backend"):
            BatchEngine(instance, ACOParams(seed=1), backend="tpu")

    def test_env_var_reaches_engine(self, instance, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        engine = BatchEngine(instance, ACOParams(seed=1))
        assert engine.backend.name == "numpy"

    def test_batch_state_create_accepts_backend(self, instance):
        st = BatchColonyState.create(
            [instance], [ACOParams(seed=1)], TESLA_M2050, backend="numpy"
        )
        assert st.backend.name == "numpy"
        assert isinstance(st.pheromone, np.ndarray)


class TestChoiceFastPath:
    """alpha == 1 / beta == 1 skip the power pass without changing a bit."""

    def _states(self, instance, alpha, beta):
        engine = BatchEngine(
            instance, ACOParams(seed=3, alpha=alpha, beta=beta), construction=8
        )
        return engine.state

    @pytest.mark.parametrize(
        "alpha,beta", [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (0.7, 3.2)]
    )
    def test_run_batch_matches_explicit_powers(self, instance, alpha, beta):
        bs = self._states(instance, alpha, beta)
        ChoiceKernel().run_batch(bs)
        expected = np.power(bs.pheromone, alpha) * np.power(bs.eta, beta)
        diag = np.arange(bs.n)
        expected[:, diag, diag] = 0.0
        np.testing.assert_array_equal(bs.choice_info, expected)

    def test_buffer_reused_across_iterations(self, instance):
        engine = BatchEngine(instance, ACOParams(seed=3), construction=8)
        engine.run_iteration()
        first = engine.state.choice_info
        engine.run_iteration()
        assert engine.state.choice_info is first  # same allocation, refreshed

    def test_buffer_not_shared_between_kernels(self, instance):
        a = BatchEngine(instance, ACOParams(seed=3), construction=8)
        b = BatchEngine(instance, ACOParams(seed=3), construction=8)
        a.run_iteration()
        b.run_iteration()
        assert a.state.choice_info is not b.state.choice_info

    def test_compute_choice_identity_exponents_alias_inputs(self):
        tau = np.random.default_rng(1).random((1, 6, 6))
        eta = np.random.default_rng(2).random((1, 6, 6))
        out = np.empty((1, 6, 6))
        ones = np.ones(1)
        got = compute_choice_batch(tau, eta, ones, ones, out=out)
        assert got is out
        np.testing.assert_array_equal(out, tau * eta)

    def test_compute_choice_batch_mixed_exponents(self):
        rng = np.random.default_rng(5)
        tau = rng.random((3, 4, 4))
        eta = rng.random((3, 4, 4))
        alpha = np.array([1.0, 2.0, 1.0])
        beta = np.array([2.0, 2.0, 2.0])
        got = compute_choice_batch(tau, eta, alpha, beta)
        expected = np.power(tau, alpha[:, None, None]) * np.power(
            eta, beta[:, None, None]
        )
        np.testing.assert_array_equal(got, expected)
