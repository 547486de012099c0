"""charlier._sum, the exactly rounded sum of the float Charlier series, is
math.fsum's double bit for bit, by error-free extraction in numpy from
_EXTRACT_TERMS terms on and by fsum itself below that."""

import itertools
import math

import numpy as np
import pytest

from charlier_hermite import charlier

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _fsum(terms):
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return math.inf


# Values near ties and spread over the exponent range, subnormals, and any
# finite double, so that the sums cancel, carry and overflow.
_TERM = st.one_of(
    st.builds(math.ldexp, st.integers(-2 ** 53, 2 ** 53), st.integers(-1130, 960)),
    st.floats(-2.0 ** -1000, 2.0 ** -1000),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _term_blocks(draw):
    """Terms and some of their negations, exact or a few ulps off, at times
    one that is not finite, in a random order, cut into blocks of lists,
    tuples and memoryviews of numpy arrays, some of them empty."""
    terms = draw(st.lists(_TERM, max_size=50))
    if terms:
        negated = draw(st.lists(st.tuples(st.sampled_from(terms), st.integers(-4, 4)),
                                max_size=len(terms)))
        terms += [-t * (1.0 + k * 2.0 ** -52) for t, k in negated]
    if draw(st.integers(0, 9)) == 0:
        terms.append(draw(st.sampled_from([math.inf, -math.inf, math.nan])))
    terms = draw(st.permutations(terms))
    cuts = sorted(draw(st.lists(st.integers(0, len(terms)), max_size=4)))
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [len(terms)]):
        kind = draw(st.sampled_from([list, tuple, memoryview]))
        blocks.append(memoryview(np.array(terms[lo:hi], dtype=float)) if kind is memoryview
                      else kind(terms[lo:hi]))
    return blocks


# 1.0 and fifteen ties x = (2j + 1) 2^-98, j odd: the second round leaves
# each a residual of -2^-98, and the exact sum lies 3 2^-98 below a
# midpoint, so half the residual bound certifies the double above it.
_TIES = [1.0] + [(2 ** 47 + 3) * 2.0 ** -98] * 14 + [(2 ** 47 + 2 ** 45 - 45) * 2.0 ** -98]
# Eleven terms just under 2^10/11 in size: with sigma = 2^e only
# >= 11 max|p|, one bit short, their extracted parts round up and total
# past 2^10 on a grid too fine to be summed exactly.
_ROUND_UP = [-math.nextafter(2.0 ** 10 / 11, 0.0)] * 11


@hypothesis.example([_TIES])
@hypothesis.example([_ROUND_UP[:5], memoryview(np.array(_ROUND_UP[5:]))])
@hypothesis.example([[-0.0] * 3, (), memoryview(np.array([-0.0]))])
@hypothesis.example([[1.0, -1.0, 2.0 ** -1074, -(2.0 ** -1074)]])
@hypothesis.example([[1e308, 1e308, -1e308]])  # fsum overflows partway
@hypothesis.example([[1.7e308, -1.7e308, 3.0]])  # sigma past 2^1023
@hypothesis.example([[1.0, math.inf], [-math.inf]])
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(_term_blocks())
def test_sum_is_fsum_bit_for_bit(blocks):
    # every sum extracted: fsum's double by hex, zero sign and all, or inf
    # where fsum raises; no block is written
    before = [bytes(b) for b in blocks if isinstance(b, memoryview)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charlier, "_EXTRACT_TERMS", 1)
        got = charlier._sum(blocks)
    assert got.hex() == _fsum(itertools.chain.from_iterable(blocks)).hex(), blocks
    assert [bytes(b) for b in blocks if isinstance(b, memoryview)] == before


def test_sum_extracts_from_the_crossover(recorded):
    # with numpy loaded, _EXTRACT_TERMS - 1 terms go to fsum and
    # _EXTRACT_TERMS terms to the extraction, which copies them once
    rng = np.random.default_rng(14)
    rows = [rng.standard_normal(m - 1) * 10.0 ** rng.uniform(-20.0, 20.0, m - 1)
            for m in (charlier._EXTRACT_TERMS - 1, charlier._EXTRACT_TERMS)]
    copies = recorded(np, "concatenate")
    for terms in rows:
        assert charlier._sum([(1.0,), memoryview(terms)]).hex() == math.fsum([1.0, *terms]).hex()
    assert [len(c) for c in copies] == [charlier._EXTRACT_TERMS]
