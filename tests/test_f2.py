import pytest

from c2surf.f2 import (
    DimensionMismatch,
    F2Matrix,
    F2Vector,
    SingularMatrixError,
    group_closure,
    isometries,
    rank,
)

A4 = F2Matrix.from_rows(
    [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
)


def brute_kernel(m: F2Matrix):
    return [v for v in range(1 << m.ncols) if m.mul_vec(F2Vector(v, m.ncols)).is_zero()]


def test_rank_identity_and_zero():
    assert rank(F2Matrix.identity(4)) == 4
    assert rank(F2Matrix.zero(3, 3)) == 0


def test_rank_complement_block_via_kernel():
    # kernel solve over all 16 vectors: only 0 lies in the kernel
    assert brute_kernel(A4) == [0]
    assert rank(A4) == 4


def test_mat_mul_identity_and_permutations():
    m = F2Matrix.from_rows([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    assert F2Matrix.identity(3) @ m == m
    p = F2Matrix.permutation([1, 0, 2])
    q = F2Matrix.permutation([0, 2, 1])
    assert p @ q == F2Matrix.permutation([1, 2, 0])  # i |-> p[q[i]]


def test_complement_block_is_an_involution():
    assert A4 @ A4 == F2Matrix.identity(4)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        F2Matrix.identity(3) @ F2Matrix.identity(4)


def test_rank_of_product_bounded():
    import random

    rng = random.Random(7)
    for _ in range(50):
        a = F2Matrix(tuple(rng.randrange(16) for _ in range(4)), 4)
        b = F2Matrix(tuple(rng.randrange(16) for _ in range(4)), 4)
        assert rank(a @ b) <= min(rank(a), rank(b))
        assert rank(a) <= min(a.nrows, a.ncols)


def test_group_closure_trivial_and_small():
    assert group_closure([F2Matrix.identity(2)]) == frozenset({F2Matrix.identity(2)})
    perms2 = [F2Matrix.permutation([0, 1]), F2Matrix.permutation([1, 0])]
    assert len(group_closure(perms2)) == 2
    transpositions = [
        F2Matrix.permutation([1, 0, 2]),
        F2Matrix.permutation([0, 2, 1]),
    ]
    assert len(group_closure(transpositions)) == 6


def test_group_closure_rejects_singular():
    with pytest.raises(SingularMatrixError):
        group_closure([F2Matrix.zero(2, 2)])


def test_group_closure_is_a_group():
    gens = [F2Matrix.permutation([1, 2, 0]), A4 @ F2Matrix.identity(4)]
    gens = [F2Matrix.permutation([1, 2, 0, 3]), A4]
    g = group_closure(gens)
    ident = F2Matrix.identity(4)
    assert ident in g
    for m in list(g)[:40]:
        assert m.inverse() in g
        for n in list(g)[:10]:
            assert m @ n in g


def test_solve_roundtrip():
    import random

    rng = random.Random(3)
    for _ in range(30):
        m = F2Matrix(tuple(rng.randrange(32) for _ in range(5)), 5)
        if not m.is_invertible():
            continue
        x = F2Vector(rng.randrange(32), 5)
        assert m.inverse().mul_vec(m.mul_vec(x)) == x


def test_inverse():
    m = F2Matrix.from_rows([[1, 1], [0, 1]])
    assert m @ m.inverse() == F2Matrix.identity(2)
    with pytest.raises(SingularMatrixError):
        F2Matrix.zero(2, 2).inverse()


def test_isometries_small_counts():
    assert len(isometries(F2Matrix.identity(2))) == 2
    assert len(isometries(F2Matrix.identity(3))) == 6
    symp2 = F2Matrix.from_rows([[0, 1], [1, 0]])
    assert len(isometries(symp2)) == 6


def test_isometries_match_brute_force():
    gram = F2Matrix.identity(3)
    brute = [
        F2Matrix(tuple(rows), 3)
        for rows in __import__("itertools").product(range(8), repeat=3)
        if F2Matrix(tuple(rows), 3).transpose() @ gram @ F2Matrix(tuple(rows), 3) == gram
    ]
    assert set(brute) == set(isometries(gram))


def test_isometries_form_a_group_and_preserve_gram():
    gram = F2Matrix.from_rows([[0, 1], [1, 0]])
    group = isometries(gram)
    as_set = set(group)
    for m in group:
        assert m.transpose() @ gram @ m == gram
        assert m.inverse() in as_set
    assert F2Matrix.identity(2) in as_set


def test_isometries_bound():
    with pytest.raises(ValueError):
        isometries(F2Matrix.identity(7))
