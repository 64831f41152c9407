import pytest
from hypothesis import HealthCheck, settings

from grwsim import GridSpec

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def grid():
    return GridSpec(-8.0, 8.0, 256)


@pytest.fixture
def wide_grid():
    return GridSpec(-20.0, 20.0, 1024)
