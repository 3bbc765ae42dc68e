import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "qmc", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("qmc")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The arrays passed to np.linalg.eigh during the test, in order."""
    eigh = np.linalg.eigh
    calls = []

    def recording_eigh(a, *args, **kwargs):
        calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """The arrays passed to np.linalg.svd during the test, in order."""
    svd = np.linalg.svd
    calls = []

    def recording_svd(a, *args, **kwargs):
        calls.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls
