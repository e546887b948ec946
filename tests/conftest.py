"""Shared fixtures: expensive objects (profiles, kernel vectors, coefficient
caches) are built once per session and shared read-only."""

import numpy as np
import pytest

from epsoliton import cli
from epsoliton.grid import default_weights
from epsoliton import profile as prof
from epsoliton.profile import default_grid


@pytest.fixture(scope="session")
def weight_settings():
    """The CLI's default A, B, kappa and rho, which default_weights requires."""
    return {key: cli._SETTINGS[key][1] for key in ("A", "B", "kappa", "rho")}


@pytest.fixture(scope="session")
def grid10():
    return default_grid(0.1)


@pytest.fixture(scope="session")
def p10(grid10):
    return prof.profile_from_eps(0.1, 1.0, grid10)


@pytest.fixture(scope="session")
def w10(p10, weight_settings):
    return default_weights(p10.eps, p10.grid, **weight_settings)


@pytest.fixture(scope="session")
def lin10(p10):
    from epsoliton.linearized import LinearContext
    return LinearContext.build(p10)


@pytest.fixture(scope="session")
def kv10(lin10):
    return lin10.kv


@pytest.fixture(scope="session")
def cache10(p10):
    from epsoliton.evans import CoefficientCache
    return CoefficientCache(p10)


@pytest.fixture(scope="session")
def grid05():
    return default_grid(0.05)


@pytest.fixture(scope="session")
def p05(grid05):
    return prof.profile_from_eps(0.05, 1.0, grid05)


@pytest.fixture(scope="session")
def w05(p05, weight_settings):
    return default_weights(p05.eps, p05.grid, **weight_settings)


@pytest.fixture(scope="session")
def lin05(p05):
    from epsoliton.linearized import LinearContext
    return LinearContext.build(p05)


@pytest.fixture(scope="session")
def kv05(lin05):
    return lin05.kv


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def fail_poisson_at(monkeypatch):
    """fail_poisson_at(k) makes the k-th Poisson solve (1-based) of the
    nonlinear flow raise the RuntimeError of a solver failure, whether
    `solve_poisson` or the frozen Jacobian's pass solves it."""
    from epsoliton import dynamics
    from epsoliton.elliptic import FrozenJacobian

    def install(fail_at):
        calls = []

        def failing(solve):
            def counted(*args, **kwargs):
                calls.append(1)
                if len(calls) == fail_at:
                    raise RuntimeError("solve_poisson: fixed point failed, residual "
                                       "1e-3 after 10000 iterations")
                return solve(*args, **kwargs)
            return counted

        monkeypatch.setattr(dynamics, "solve_poisson", failing(dynamics.solve_poisson))
        monkeypatch.setattr(FrozenJacobian, "solve", failing(FrozenJacobian.solve))

    return install
