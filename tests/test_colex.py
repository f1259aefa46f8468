from math import comb

import pytest

from hyperlag import colex_rank, colex_unrank, rset

# First 21 triples of the order, written out by hand as the ground truth.
TRIPLE_ORDER = [
    (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5),
    (2, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5), (1, 2, 6), (1, 3, 6),
    (2, 3, 6), (1, 4, 6), (2, 4, 6), (3, 4, 6), (1, 5, 6), (2, 5, 6),
    (3, 5, 6), (4, 5, 6), (1, 2, 7),
]


def test_rank_matches_reference_sequence():
    for pos, triple in enumerate(TRIPLE_ORDER, start=1):
        assert colex_rank(triple) == pos


def test_unrank_matches_reference_sequence():
    for pos, triple in enumerate(TRIPLE_ORDER, start=1):
        assert colex_unrank(pos, 3) == triple


def test_compare_reference_cases():
    assert colex_rank((2, 4, 6)) < colex_rank((1, 5, 6))
    assert colex_rank((1, 2, 3)) == colex_rank((1, 2, 3))
    assert colex_rank((1, 3, 4)) < colex_rank((2, 3, 4))
    assert colex_rank((2, 3, 4)) > colex_rank((1, 3, 4))


def test_rank_examples():
    assert colex_rank((1, 2, 3)) == 1
    assert colex_rank((2, 3, 4)) == 4
    assert colex_rank((1, 2, 5)) == 5


def test_unrank_examples():
    assert colex_unrank(1, 3) == (1, 2, 3)
    assert colex_unrank(10, 3) == (3, 4, 5)
    assert colex_unrank(17, 3) == (1, 5, 6)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_rank_unrank_bijection_exhaustive(r):
    for k in range(1, comb(12, r) + 1):
        assert colex_rank(colex_unrank(k, r)) == k


def test_rset_validation():
    assert rset([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValueError):
        rset([1, 1, 2])
    with pytest.raises(ValueError):
        rset([0, 1, 2])
    with pytest.raises(ValueError):
        rset([])


def test_unrank_rejects_bad_rank():
    with pytest.raises(ValueError):
        colex_unrank(0, 3)
