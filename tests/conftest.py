import contextlib
import warnings

import pytest
from hypothesis import HealthCheck, settings

from grwsim import GridSpec

# Hypothesis' pytest plugin imports hypothesis.extra._patching when a
# property test fails and catches only ImportError.  Where libcst is
# installed that import warns (mypy_extensions.TypedDict), the
# DeprecationWarning filter makes the warning an INTERNALERROR, and every
# failure after the first goes unreported.  Imported here once, with that
# warning ignored, the module is cached for the plugin.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

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
