import pytest

from c2surf.counting import (
    A_closed,
    A_direct,
    A_recursive,
    B_closed,
    B_direct,
    B_recursive,
    CountMismatch,
    _exact_div,
    ab_sum_closed,
    phi_counts,
    total_count,
)
from c2surf.words import Surface

# r: (A, B, Phi-, Phi+, Phi) for the even and odd columns of the reference table
TABLE = {
    2: (3, 5, 3, 2, 5),
    4: (7, 8, 9, 5, 14),
    6: (13, 14, 17, 10, 27),
    8: (22, 20, 28, 16, 44),
    10: (34, 30, 42, 25, 67),
    12: (50, 40, 60, 35, 95),
    14: (70, 55, 82, 49, 131),
    1: (0, 1, 0, 1, 1),
    3: (1, 2, 1, 2, 3),
    5: (3, 5, 3, 5, 8),
    7: (7, 8, 7, 8, 15),
    9: (13, 14, 13, 14, 27),
    11: (22, 20, 22, 20, 42),
    13: (34, 30, 34, 30, 64),
    15: (50, 40, 50, 40, 90),
}


@pytest.mark.parametrize("r", sorted(TABLE))
def test_reference_table(r):
    a, b, pm, pp, phi = TABLE[r]
    rep = phi_counts(r)
    assert (rep.A, rep.B) == (a, b)
    assert (rep.phi_minus, rep.phi_plus, rep.phi) == (pm, pp, phi)
    assert rep.total == phi + 1


def test_three_way_agreement_large():
    for r in range(1, 2001):
        assert A_closed(r) == A_recursive(r)
        assert B_closed(r) == B_recursive(r)
        assert A_closed(r) + B_closed(r) == ab_sum_closed(r)
        if r <= 200:
            assert A_direct(r) == A_closed(r)
            assert B_direct(r) == B_closed(r)


def test_specific_values():
    assert A_closed(8) == 22
    assert A_closed(5) == 3
    assert A_closed(12) == 50
    assert B_closed(7) == 8
    assert B_closed(2) == 5
    assert B_closed(6) == 14
    assert A_recursive(4) == 7
    assert A_recursive(3) == 1
    assert A_recursive(6) == 13


def test_phi_examples():
    assert phi_counts(4).phi_minus == 9
    assert phi_counts(4).phi_plus == 5
    assert phi_counts(7).phi == 15
    assert phi_counts(10).phi == 67


def test_total_count():
    assert total_count(Surface(True, 5)) == 14
    assert total_count(Surface(False, 2)) == 6
    assert total_count(Surface(False, 7)) == 16
    for r in range(1, 400):
        assert total_count(Surface(False, r)) == phi_counts(r).total
    for g in range(0, 50):
        assert total_count(Surface(True, g)) == 4 + 2 * g


@pytest.mark.parametrize(
    "sequence",
    [A_direct, A_closed, A_recursive, B_direct, B_closed, B_recursive, ab_sum_closed],
    ids=lambda f: f.__name__,
)
def test_sequences_reject_r_below_1(sequence):
    for r in (0, -1, -4):
        with pytest.raises(ValueError, match=r"^r >= 1$"):
            sequence(r)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        A_direct(0)
    with pytest.raises(ValueError):
        phi_counts(0)
    with pytest.raises(CountMismatch, match=r"^7 is not divisible by 2$"):
        _exact_div(7, 2)
