import pytest

from quatmhd.grid import build_domain
from quatmhd.operators import OperatorSet


@pytest.fixture(scope="session")
def dom8():
    return build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 8)


@pytest.fixture(scope="session")
def dom12():
    return build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 12)


@pytest.fixture(scope="session")
def dom16():
    return build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 16)


@pytest.fixture(scope="session")
def ops8(dom8):
    return OperatorSet(dom8)


@pytest.fixture(scope="session")
def ops12(dom12):
    return OperatorSet(dom12)


@pytest.fixture(scope="session")
def ops16(dom16):
    return OperatorSet(dom16)


@pytest.fixture
def prescribed_projection(monkeypatch):
    """Install a Leray projection that returns scales[k] g on its k-th call,
    whatever it is given, in place of the one the solvers call; g is a fixed
    pure field of H1 norm 1e-3 and the last scale repeats.

    Both schemes project u, then B, once per outer step, so step n of either
    scheme sets u = scales[2n-2] g and B = scales[2n-1] g. That drives the
    shared outer loop along a prescribed norm history."""
    from quatmhd.grid import h1_norm
    from quatmhd.sampling import random_pure_bump

    def install(scales):
        calls = []

        def project(f, ops):
            g = random_pure_bump(f.domain, seed=12)
            g = (1e-3 / h1_norm(g)) * g
            k = min(len(calls), len(scales) - 1)
            calls.append(k)
            return scales[k] * g

        monkeypatch.setattr("quatmhd.solvers.leray_project", project)
    return install
