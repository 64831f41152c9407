import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grwsim import GENERATOR_NAME, RngStream, ValidationError, trajectory_stream
from grwsim.rng import _bernoulli, _Rekeyer, _skip_doubles

#: both halves of the key at 0 and at 2**64 - 1
EDGE_KEYS = [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)]

#: the ends of [0, 1], the neighbours of 1/2 and the smallest step above 0
#: and below 1
EDGE_PROBABILITIES = [
    0.0, 2.0**-53, 0.1, float(np.nextafter(0.5, 0.0)), 0.5, 1.0 - 2.0**-53, 1.0,
]


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


def _keys(count, seed):
    """The edge keys, then ``count`` keys drawn uniformly from [0, 2**64)."""
    halves = np.random.default_rng(seed).integers(0, 2**64, (count, 2), dtype=np.uint64)
    return EDGE_KEYS + [(int(a), int(b)) for a, b in halves]


def _draws(gen):
    """One of each draw the package makes, and a 32-bit pair."""
    return [
        gen.random(5), gen.exponential(2.0, 3), gen.poisson(3.5, 4),
        gen.bit_generator.random_raw(6), gen.integers(0, 2**32, 2, dtype=np.uint32),
        gen.random(),
    ]


@pytest.mark.parametrize("leftover", ["buffer", "has_uint32"])
def test_rekeyed_draws_equal_a_fresh_generator(leftover):
    """A started stream draws what ``RngStream.generator()`` draws, whatever
    the previous stream left: a part-used buffer of words, or the spare
    half of a word after a 32-bit draw."""
    rekeyer = _Rekeyer()
    for seed, stream_id in _keys(60, 7):
        stream = RngStream(seed, stream_id)
        gen = rekeyer.start(stream)
        for got, want in zip(_draws(gen), _draws(stream.generator()), strict=True):
            assert np.array_equal(got, want), (seed, stream_id)
        while gen.bit_generator.state["buffer_pos"] == 4:
            gen.bit_generator.random_raw(1)
        if leftover == "has_uint32":
            gen.integers(0, 2**32, dtype=np.uint32)
            assert gen.bit_generator.state["has_uint32"] == 1


def test_rekeyer_starts_at_a_fresh_generators_state():
    rekeyer = _Rekeyer()
    rekeyer.start(RngStream(3, 4)).integers(0, 2**32, 3, dtype=np.uint32)
    got = rekeyer.start(RngStream(5, 6)).bit_generator.state
    assert repr(got) == repr(RngStream(5, 6).generator().bit_generator.state)


@pytest.mark.parametrize("p", EDGE_PROBABILITIES)
def test_word_compare_equals_random_below_p(p):
    """``_bernoulli`` gives the bits of ``random(n) < p`` and takes the
    same words: the next draw after it is the next draw after ``random``."""
    for seed, stream_id in _keys(40, 11):
        stream = RngStream(seed, stream_id)
        gen, ref = stream.generator(), stream.generator()
        got = _bernoulli(gen, 999, p)
        assert got.dtype == bool
        assert np.array_equal(got, ref.random(999) < p), (seed, stream_id)
        assert gen.random() == ref.random()


class _Words(np.random.Philox):
    """A Philox whose raw words are the ones given."""

    def __init__(self, words):
        super().__init__(key=0)
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size=None, output=True):
        return self.words[:size]


@pytest.mark.parametrize("p", EDGE_PROBABILITIES)
def test_word_compare_is_exact_at_the_threshold(p):
    """On the words that straddle ``ceil(p * 2**53) << 11``, the compare
    equals numpy's double ``(word >> 11) * 2**-53`` below ``p``; random
    words seldom come this close."""
    k = int(np.ceil(p * 2**53))
    tops = [t for t in (0, k - 1, k, k + 1, 2**53 - 1) if 0 <= t < 2**53]
    words = np.array([(t << 11) + low for t in tops for low in (0, 2**11 - 1)],
                     dtype=np.uint64)
    got = _bernoulli(np.random.Generator(_Words(words)), words.size, p)
    assert np.array_equal(got, (words >> np.uint64(11)) * 2.0**-53 < p)


#: Philox counters (word 0 lowest): no carry, a carry out of word 0, a
#: carry through the three low words, and the full 256-bit wrap
EDGE_COUNTERS = [
    (5, 0, 0, 0),
    (2**64 - 1, 0, 0, 0),
    (2**64 - 2, 2**64 - 1, 2**64 - 1, 7),
    (2**64 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1),
]

#: words skipped: none, every count up to four blocks past a full buffer,
#: and many blocks with each remainder
SKIPS = list(range(21)) + [1000, 1001, 1002, 1003]


def _philox_at(counter, buffer_pos, spare):
    """A Philox generator whose buffer holds drawn words, at ``counter``
    and ``buffer_pos``, with a spare 32-bit half if ``spare``."""
    gen = RngStream(5, 9).generator()
    gen.bit_generator.random_raw(2)
    state = gen.bit_generator.state
    state["state"]["counter"] = np.array(counter, dtype=np.uint64)
    state["buffer_pos"] = buffer_pos
    state["has_uint32"], state["uinteger"] = (1, 123456789) if spare else (0, 0)
    gen.bit_generator.state = state
    return gen


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("buffer_pos", range(5))
@pytest.mark.parametrize("counter", EDGE_COUNTERS)
def test_skip_doubles_leaves_the_state_random_leaves(counter, buffer_pos, spare):
    """``_skip_doubles(gen, n)`` leaves the state ``gen.random(n)`` leaves,
    counter, buffer, buffer position and spare half alike, so the next
    raw word, double and Poisson counts are the same."""
    for n in SKIPS:
        gen, ref = _philox_at(counter, buffer_pos, spare), _philox_at(counter, buffer_pos, spare)
        _skip_doubles(gen, n)
        ref.random(n)
        assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state), n
        assert gen.bit_generator.random_raw() == ref.bit_generator.random_raw()
        assert gen.random() == ref.random()
        assert np.array_equal(gen.poisson(3.5, 9), ref.poisson(3.5, 9))
        assert gen.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)


def test_skip_doubles_wraps_the_counter():
    """Skipping from the last counter of ``2**256`` starts again at 0."""
    gen = _philox_at(EDGE_COUNTERS[-1], 4, False)
    _skip_doubles(gen, 4 * 10 + 1)
    assert gen.bit_generator.state["state"]["counter"].tolist() == [10, 0, 0, 0]
