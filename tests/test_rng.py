import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwsim import GENERATOR_NAME, RngStream, ValidationError, trajectory_stream


def test_generator_name_is_recorded():
    assert GENERATOR_NAME == "philox4x64"


def test_same_key_same_draws():
    a = RngStream(42, 7).generator().random(1000)
    b = RngStream(42, 7).generator().random(1000)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = RngStream(42, 0).generator().random(32)
    b = RngStream(42, 1).generator().random(32)
    assert not np.array_equal(a, b)


def test_trajectory_stream_keying():
    s = trajectory_stream(master_seed=5, trajectory_index=17)
    assert (s.seed, s.stream_id) == (5, 17)


def test_stream_rejects_out_of_range_keys():
    with pytest.raises(ValidationError):
        RngStream(-1, 0)
    with pytest.raises(ValidationError):
        RngStream(0, 2**64)
    with pytest.raises(ValidationError):
        RngStream(True, 0)


def test_draw_order_is_stable_snapshot():
    # frozen regression pin: implementation swaps would silently change
    # every seeded result in the package
    vals = RngStream(2024, 3).generator().random(4)
    assert vals == pytest.approx(
        [0.18133863263896244, 0.16848199597479874,
         0.43927401729366844, 0.4749323229952658],
        abs=0.0,
    )


@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1))
def test_streams_reproducible_for_any_key(seed, stream):
    g1 = RngStream(seed, stream).generator()
    g2 = RngStream(seed, stream).generator()
    assert np.array_equal(g1.integers(0, 2**63, 8), g2.integers(0, 2**63, 8))
