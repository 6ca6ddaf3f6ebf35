import itertools
import random

import pytest

from c2surf.bilinear import standard_space
from c2surf.f2 import (
    DimensionMismatch,
    F2Matrix,
    SingularMatrixError,
    _adjoin,
    _solutions,
    block_diag,
    conjugators,
    group_closure,
    involutive_isometries,
    isometries,
    orbit,
    rank,
)
from c2surf.dd import isometry_generators

A4 = F2Matrix.from_rows(
    [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
)


def brute_kernel(m: F2Matrix):
    return [v for v in range(1 << m.ncols) if not m.mul_vec(v)]


def test_rank_identity_and_zero():
    assert rank(F2Matrix.identity(4)) == 4
    assert rank(F2Matrix((0, 0, 0), 3)) == 0


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
    rng = random.Random(7)
    for _ in range(50):
        a = F2Matrix(tuple(rng.randrange(16) for _ in range(4)), 4)
        b = F2Matrix(tuple(rng.randrange(16) for _ in range(4)), 4)
        assert rank(a @ b) <= min(rank(a), rank(b))
        assert rank(a) <= min(a.nrows, a.ncols)


def test_group_closure_trivial_and_small():
    assert group_closure([F2Matrix.identity(2)]) == {F2Matrix.identity(2).rows}
    perms2 = [F2Matrix.permutation([0, 1]), F2Matrix.permutation([1, 0])]
    assert len(group_closure(perms2)) == 2
    transpositions = [
        F2Matrix.permutation([1, 0, 2]),
        F2Matrix.permutation([0, 2, 1]),
    ]
    assert len(group_closure(transpositions)) == 6


def test_group_closure_rejects_singular():
    with pytest.raises(SingularMatrixError):
        group_closure([F2Matrix((0, 0), 2)])


def test_group_closure_is_a_group():
    gens = [F2Matrix.permutation([1, 2, 0]), A4 @ F2Matrix.identity(4)]
    gens = [F2Matrix.permutation([1, 2, 0, 3]), A4]
    g = {F2Matrix(rows, 4) for rows in group_closure(gens)}
    ident = F2Matrix.identity(4)
    assert ident in g
    for m in list(g)[:40]:
        assert m.inverse() in g
        for n in list(g)[:10]:
            assert m @ n in g


@pytest.mark.parametrize(
    "kind, n", [("orthogonal", n) for n in range(1, 6)] + [("symplectic", 2), ("symplectic", 4)]
)
def test_group_closure_equals_matrix_product_closure(kind, n):
    # the closure on packed rows against the one by F2Matrix products it replaced
    space = standard_space(kind, n)
    gens = isometry_generators(space)
    closure = group_closure(gens)
    assert closure == {m.rows for m in orbit(F2Matrix.identity(n), lambda m: [m @ g for g in gens])}
    assert closure == {m.rows for m in isometries(space.gram)}


def test_row_map_is_the_row_vector_product():
    # one table (up to eight rows) and two; mul_row walks the bits instead
    rng = random.Random(3)
    for ncols in (1, 5, 8, 9, 13):
        for nrows in (1, 7, 8, 9, 12):
            m = F2Matrix(tuple(rng.randrange(1 << ncols) for _ in range(nrows)), ncols)
            times_m = m.row_map()
            for _ in range(20):
                x = rng.randrange(1 << nrows)
                want = 0  # the rows of m that the set bits of x pick
                for i in range(nrows):
                    if x >> i & 1:
                        want ^= m.rows[i]
                assert times_m(x) == m.mul_row(x) == want == m.transpose().mul_vec(x)


def test_solve_roundtrip():
    import random

    rng = random.Random(3)
    for _ in range(30):
        m = F2Matrix(tuple(rng.randrange(32) for _ in range(5)), 5)
        if not m.is_invertible():
            continue
        x = rng.randrange(32)
        assert m.inverse().mul_vec(m.mul_vec(x)) == x


def test_inverse():
    m = F2Matrix.from_rows([[1, 1], [0, 1]])
    assert m @ m.inverse() == F2Matrix.identity(2)
    with pytest.raises(SingularMatrixError):
        F2Matrix((0, 0), 2).inverse()


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


def all_matrices(nrows, ncols):
    for rows in itertools.product(range(1 << ncols), repeat=nrows):
        yield F2Matrix(rows, ncols)


ELIMINATION_SHAPES = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)] + [(1, 4), (4, 1)]


@pytest.mark.parametrize("shape", ELIMINATION_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_rank_matches_brute_force_kernel(shape):
    # rank-nullity: |kernel| = 2^(ncols - rank)
    for m in all_matrices(*shape):
        assert 1 << (m.ncols - rank(m)) == len(brute_kernel(m)), m


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_matches_brute_force(n):
    # every n x n matrix: the |GL(n, 2)| = 1, 6, 168 invertible ones invert,
    # the other 1, 10, 344 raise
    ident = F2Matrix.identity(n)
    inverted = 0
    for m in all_matrices(n, n):
        if brute_kernel(m) == [0]:
            inv = m.inverse()
            assert m @ inv == ident and inv @ m == ident, m
            inverted += 1
        else:
            with pytest.raises(SingularMatrixError):
                m.inverse()
    assert (inverted, (1 << n * n) - inverted) == {1: (1, 1), 2: (6, 10), 3: (168, 344)}[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjoined_solutions_match_brute_force(n):
    # every system of up to three (mask, rhs) equations in n unknowns, each
    # adjoined in turn with its right-hand side at depth 0
    rows = [(mask, rhs) for mask in range(1 << n) for rhs in (0, 1)]
    for k in range(4):
        for eqs in itertools.product(rows, repeat=k):
            brute = {
                x
                for x in range(1 << n)
                if all((mask & x).bit_count() & 1 == rhs for mask, rhs in eqs)
            }
            system = []
            for mask, rhs in eqs:
                if system is not None:
                    system = _adjoin(system, mask | (rhs << n), n, 0)
            sol = None if system is None else _solutions(system, n, 0)
            if sol is None:
                assert brute == set(), eqs
                continue
            particular, basis = sol
            span = {particular}
            for b in basis:
                span |= {x ^ b for x in span}
            assert len(span) == 1 << len(basis) and span == brute, eqs


@pytest.mark.parametrize(
    "kind, n", [("orthogonal", n) for n in (1, 2, 3, 4)] + [("symplectic", 2), ("symplectic", 4)]
)
def test_isometries_match_brute_force_search(kind, n):
    gram = standard_space(kind, n).gram
    brute = {m for m in all_matrices(n, n) if m.transpose() @ gram @ m == gram}
    found = isometries(gram)
    assert len(found) == len(set(found))
    assert set(found) == brute


def assert_involutions_of(gram):
    """The involution search finds exactly the involutions of the whole group."""
    ident = F2Matrix.identity(gram.ncols)
    found = involutive_isometries(gram)
    assert len(found) == len(set(found))
    assert set(found) == {m for m in isometries(gram) if m @ m == ident}, gram


@pytest.mark.parametrize("n", [1, 2, 3])
def test_isometries_match_brute_force_on_every_gram(n):
    # 33 symmetric invertible grams up to 3x3 agree with brute force, and so
    # do their involutions; the other 497 (not symmetric, or degenerate) are
    # rejected by both searches
    good = 0
    for gram in all_matrices(n, n):
        if gram.is_symmetric() and brute_kernel(gram) == [0]:
            brute = [m for m in all_matrices(n, n) if m.transpose() @ gram @ m == gram]
            assert sorted(isometries(gram), key=lambda m: m.rows) == brute, gram
            assert_involutions_of(gram)
            good += 1
        else:
            with pytest.raises(ValueError):
                isometries(gram)
            with pytest.raises(ValueError):
                involutive_isometries(gram)
    assert good == {1: 1, 2: 4, 3: 28}[n]


@pytest.mark.parametrize(
    "kind, n", [("orthogonal", n) for n in range(1, 7)] + [("symplectic", 2), ("symplectic", 4)]
)
def test_involutive_isometries_are_the_involutions(kind, n):
    assert_involutions_of(standard_space(kind, n).gram)


@pytest.mark.parametrize("kind, n", [("orthogonal", 5), ("orthogonal", 6), ("symplectic", 6)])
def test_searches_follow_a_congruence(kind, n):
    # G = P^T S P with G^2 != I, so the searches, which run over G^-1, meet a
    # gram that is not its own inverse: the isometries of G are P^-1 M P for
    # the isometries M of S, and so are the involutions
    s = standard_space(kind, n).gram
    ident = F2Matrix.identity(n)
    rng = random.Random(n)
    while True:
        p = F2Matrix(tuple(rng.randrange(1 << n) for _ in range(n)), n)
        if p.is_invertible() and (g := p.transpose() @ s @ p) @ g != ident:
            break
    p_inv = p.inverse()
    searches = [involutive_isometries] + [isometries] * (kind == "orthogonal")
    for search in searches:
        found = search(g)
        assert len(found) == len(set(found))
        assert set(found) == {p_inv @ m @ p for m in search(s)}, search


def test_zero_space_has_the_empty_matrix_as_its_one_isometry():
    empty = F2Matrix((), 0)
    assert isometries(empty) == (empty,)
    assert involutive_isometries(empty) == (empty,)


def test_isometries_bound():
    with pytest.raises(ValueError):
        isometries(F2Matrix.identity(7))
    with pytest.raises(ValueError):
        involutive_isometries(F2Matrix.identity(7))


def entries(m: F2Matrix):
    return [[(r >> j) & 1 for j in range(m.ncols)] for r in m.rows]


def reference_rank(rows):
    """Rank of a list of 0/1 lists, by textbook Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_entrywise_reference(seed):
    # shapes from 0x0 up to 10 columns
    rng = random.Random(seed)
    for _ in range(150):
        p, q, r = (rng.randrange(11) for _ in range(3))
        a = F2Matrix(tuple(rng.getrandbits(q) for _ in range(p)), q)
        b = F2Matrix(tuple(rng.getrandbits(r) for _ in range(q)), r)
        ea, eb = entries(a), entries(b)
        product = a @ b
        assert product.shape == (p, r)
        assert entries(product) == [
            [sum(ea[i][k] & eb[k][j] for k in range(q)) & 1 for j in range(r)] for i in range(p)
        ]
        t = a.transpose()
        assert t.shape == (q, p)
        assert entries(t) == [[ea[i][j] for i in range(p)] for j in range(q)]
        v = rng.getrandbits(q)
        image = sum((sum(ea[i][k] & (v >> k) for k in range(q)) & 1) << i for i in range(p))
        assert a.mul_vec(v) == image
        square = F2Matrix(tuple(rng.getrandbits(q) for _ in range(q)), q)
        if reference_rank(entries(square)) == q:
            inv = square.inverse()
            es, ei = entries(square), entries(inv)
            ident = [[int(i == j) for j in range(q)] for i in range(q)]
            for x, y in ((es, ei), (ei, es)):
                assert [[sum(x[i][k] & y[k][j] for k in range(q)) & 1 for j in range(q)] for i in range(q)] == ident
            # a @ square == square @ b exactly when b is the conjugate of a
            a_sq = F2Matrix(tuple(rng.getrandbits(q) for _ in range(q)), q)
            conj = inv @ a_sq @ square
            assert list(conjugators(a_sq, conj, [square, inv])) == [m for m in (square, inv) if a_sq @ m == m @ conj]
            assert square in conjugators(a_sq, conj, [inv, square])
            for i in range(q):  # one changed entry of any row breaks the equation
                flipped = F2Matrix(conj.rows[:i] + (conj.rows[i] ^ 1 << rng.randrange(q),) + conj.rows[i + 1 :], q)
                assert list(conjugators(a_sq, flipped, [square])) == []
        else:
            with pytest.raises(SingularMatrixError):
                square.inverse()


def test_kernel_errors_unchanged():
    with pytest.raises(ValueError, match=r"^row 0x8 does not fit in 3 columns$"):
        F2Matrix((1, 8, 16), 3)
    with pytest.raises(ValueError, match=r"^row -0x1 does not fit in 3 columns$"):
        F2Matrix((2, -1), 3)
    with pytest.raises(ValueError, match=r"^row 0x1 does not fit in 0 columns$"):
        F2Matrix((0, 1), 0)
    with pytest.raises(ValueError, match=r"^negative column count$"):
        F2Matrix((), -1)
    with pytest.raises(DimensionMismatch, match=r"^inner dimensions 3 != 4$"):
        F2Matrix.identity(3) @ F2Matrix.identity(4)
    with pytest.raises(DimensionMismatch, match=r"^inner dimensions 0 != 2$"):
        F2Matrix((), 0) @ F2Matrix((0, 0), 2)
    with pytest.raises(DimensionMismatch, match=r"^vector 0x8 does not fit in 3 columns$"):
        F2Matrix.identity(3).mul_vec(0b1000)
    with pytest.raises(DimensionMismatch, match=r"^vector -0x1 does not fit in 3 columns$"):
        F2Matrix.identity(3).mul_vec(-1)
    with pytest.raises(DimensionMismatch, match=r"^shapes \(2, 2\) != \(3, 3\)$"):
        F2Matrix.identity(2) + F2Matrix.identity(3)
    with pytest.raises(DimensionMismatch, match=r"^block_diag needs square blocks$"):
        block_diag(F2Matrix.identity(2), F2Matrix((0, 0), 3))
    with pytest.raises(DimensionMismatch, match=r"^inverse of a non-square matrix$"):
        F2Matrix((0, 0), 3).inverse()
    with pytest.raises(DimensionMismatch, match=r"^need square matrices of one size, got \(3, 3\) and \(2, 2\)$"):
        next(conjugators(F2Matrix.identity(3), F2Matrix.identity(2), []))
    with pytest.raises(DimensionMismatch, match=r"^need square matrices of one size, got \(2, 3\) and \(3, 3\)$"):
        next(conjugators(F2Matrix((0, 0), 3), F2Matrix.identity(3), []))
    with pytest.raises(DimensionMismatch, match=r"^diagonal of a non-square matrix$"):
        F2Matrix((0, 0), 3).diag()
    with pytest.raises(DimensionMismatch, match=r"^ragged rows$"):
        F2Matrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError, match=r"^need at least one generator$"):
        group_closure([])
    with pytest.raises(DimensionMismatch, match=r"^generators must be square of equal dimension$"):
        group_closure([F2Matrix.identity(2), F2Matrix.identity(3)])
