import itertools
import random

import pytest

from c2surf import dd as dd_module
from c2surf.bilinear import (
    BilinearSpace,
    FormKind,
    Involution,
    omega_vector,
    standard_space,
)
from c2surf.dd import (
    DDTuple,
    _conjugation,
    block_swap_involution,
    conjugacy_classes,
    conjugacy_oracle,
    dd,
    dd_classifies,
    dd_direct_sum,
    involutions_in,
    isometry_generators,
    mirror,
)
from c2surf.f2 import F2Matrix, block_diag, group_closure, isometries, rank


def swap_on_evo2() -> Involution:
    return Involution(
        standard_space("orthogonal", 2), F2Matrix.from_rows([[0, 1], [1, 0]])
    )


def identity_on(space: BilinearSpace) -> Involution:
    return Involution(space, F2Matrix.identity(space.dim))


def test_d_invariant_basics():
    for kind, n in (("orthogonal", 3), ("symplectic", 4)):
        assert dd(identity_on(standard_space(kind, n))).d == 0
    assert dd(swap_on_evo2()).d == 1
    for r in (1, 2, 3):
        space = standard_space("orthogonal", 2 * r)
        assert dd(block_swap_involution(space)).d == r
    for kind, n in (("orthogonal", 3), ("symplectic", 4)):
        with pytest.raises(ValueError, match=r"^block swaps live on even-dimensional orthogonal spaces$"):
            block_swap_involution(standard_space(kind, n))


def test_alpha_invariant_values():
    evo4 = standard_space("orthogonal", 4)
    assert dd(block_swap_involution(evo4)).alpha == 0
    assert dd(identity_on(evo4)).alpha == 1
    assert dd(identity_on(standard_space("symplectic", 4))).alpha == 0


def test_mirror_flips_entries_on_orthonormal_grams():
    evo4 = standard_space("orthogonal", 4)
    theta = block_swap_involution(evo4)
    flipped = mirror(theta).matrix
    ones = F2Matrix(tuple((1 << 4) - 1 for _ in range(4)), 4)
    assert flipped == theta.matrix + ones
    assert mirror(swap_on_evo2()).matrix == F2Matrix.identity(2)


def test_mirror_is_an_involution_on_involutions():
    for kind, n in (("orthogonal", 4), ("orthogonal", 3), ("symplectic", 4)):
        space = standard_space(kind, n)
        for inv in involutions_in(space):
            assert mirror(mirror(inv)).matrix == inv.matrix
    symp = standard_space("symplectic", 4)
    inv = identity_on(symp)
    assert mirror(inv) is inv  # non-EVO spaces are their own mirrors


def test_mirror_formula_on_non_orthonormal_gram():
    # EVO gram that is not the identity: mirror must still be a valid involution
    gram = F2Matrix.from_rows([[1, 1], [1, 0]])
    space = BilinearSpace(gram)
    assert space.kind == FormKind.EVO
    for inv in involutions_in(space):
        m = mirror(inv)
        assert mirror(m).matrix == inv.matrix


def test_dd_spot_values():
    evo4 = standard_space("orthogonal", 4)
    assert dd(identity_on(evo4)) == DDTuple(0, 1, 1, 0)
    assert dd(identity_on(standard_space("symplectic", 4))) == DDTuple(0, 0, 0, 0)
    assert dd(swap_on_evo2()) == DDTuple(1, 0, 0, 1)
    # a |-> a, b |-> a+b on the symplectic plane
    symp2 = standard_space("symplectic", 2)
    transvection = Involution(symp2, F2Matrix.from_rows([[1, 1], [0, 1]]))
    assert dd(transvection) == DDTuple(1, 1, 1, 1)


def test_dd_direct_sum_formula():
    assert dd_direct_sum(DDTuple(0, 0, 0, 0), 1) == DDTuple(1, 0, 0, 1)
    assert dd_direct_sum(DDTuple(0, 0, 0, 0), 2) == DDTuple(2, 0, 2, 1)
    assert dd_direct_sum(DDTuple(1, 1, 1, 1), 3) == DDTuple(4, 1, 3, 1)
    with pytest.raises(ValueError):
        dd_direct_sum(DDTuple(1, 1, 0, 1), 2)  # not symplectic bookkeeping
    with pytest.raises(ValueError):
        dd_direct_sum(DDTuple(0, 0, 0, 0), 0)


def test_dd_direct_sum_against_brute_force():
    # build sigma (+) theta on V (+) W explicitly and compare
    for symp_dim in (2, 4):
        symp = standard_space("symplectic", symp_dim)
        for r in (1, 2):
            if symp_dim + 2 * r > 6:
                continue
            evo = standard_space("orthogonal", 2 * r)
            big = BilinearSpace(block_diag(symp.gram, evo.gram))
            theta = block_swap_involution(evo)
            for sigma in involutions_in(symp):
                combined = Involution(big, block_diag(sigma.matrix, theta.matrix))
                assert dd(combined) == dd_direct_sum(dd(sigma), r)


def test_dd_is_conjugation_invariant():
    rng = random.Random(2)
    for kind, n in (("orthogonal", 4), ("symplectic", 4), ("orthogonal", 5)):
        space = standard_space(kind, n)
        group = isometries(space.gram)
        invs = involutions_in(space)
        for _ in range(60):
            inv = rng.choice(invs)
            p = rng.choice(group)
            assert dd(Involution(space, p.inverse() @ inv.matrix @ p)) == dd(inv)


def test_conjugacy_oracle_small():
    evo2 = standard_space("orthogonal", 2)
    ident = identity_on(evo2)
    swap = swap_on_evo2()
    assert conjugacy_oracle(ident, ident)
    assert not conjugacy_oracle(ident, swap)
    with pytest.raises(ValueError, match=r"^involutions live on different spaces$"):
        conjugacy_oracle(ident, identity_on(standard_space("symplectic", 2)))


def test_conjugacy_oracle_detects_conjugates():
    space = standard_space("orthogonal", 4)
    group = isometries(space.gram)
    rng = random.Random(9)
    theta = block_swap_involution(space)
    for _ in range(10):
        p = rng.choice(group)
        conj = Involution(space, p.inverse() @ theta.matrix @ p)
        assert conjugacy_oracle(theta, conj)
        assert dd(conj) == dd(theta)


def test_oracle_agrees_with_dd_on_all_pairs_dim3():
    for kind, n in (("orthogonal", 2), ("orthogonal", 3), ("symplectic", 2)):
        space = standard_space(kind, n)
        invs = involutions_in(space)
        for a in invs:
            for b in invs:
                assert conjugacy_oracle(a, b) == (dd(a) == dd(b))


def plain_scan(a: Involution, b: Involution) -> bool:
    """The conjugacy oracle as plain products: whole matrices compared for
    every isometry, with no early exit."""
    return any(a.matrix @ p == p @ b.matrix for p in isometries(a.space.gram))


@pytest.mark.parametrize(
    "kind, n, pairs",
    [("orthogonal", 3, None), ("orthogonal", 4, None), ("orthogonal", 5, 200), ("symplectic", 4, 200)],
)
def test_early_exit_oracle_equals_plain_scan(kind, n, pairs):
    # every pair on O(3, 2) and O(4, 2), seeded pairs on O(5, 2) and Sp(4, 2)
    invs = involutions_in(standard_space(kind, n))
    if pairs is None:
        todo = [(a, b) for a in invs for b in invs]
    else:
        rng = random.Random(n)
        todo = [(rng.choice(invs), rng.choice(invs)) for _ in range(pairs)]
    answers = [conjugacy_oracle(a, b) for a, b in todo]
    assert answers == [plain_scan(a, b) for a, b in todo]
    assert True in answers and False in answers


# The sorted (DD, class size) pairs of the conjugacy classes of each
# standard space, written down from the closure's output.
PARTITIONS = {
    ("orthogonal", 2): [((0, 1, 1, 0), 1), ((1, 0, 0, 1), 1)],
    ("orthogonal", 3): [((0, 0, 0, 0), 1), ((1, 1, 1, 1), 3)],
    ("orthogonal", 4): [
        ((0, 1, 1, 0), 1), ((1, 0, 0, 1), 1), ((1, 1, 2, 1), 6),
        ((2, 0, 2, 1), 3), ((2, 1, 1, 1), 6), ((2, 1, 2, 0), 3),
    ],
    ("orthogonal", 5): [((0, 0, 0, 0), 1), ((1, 1, 1, 1), 15), ((2, 0, 2, 0), 15), ((2, 1, 2, 1), 45)],
    ("orthogonal", 6): [
        ((0, 1, 1, 0), 1), ((1, 0, 0, 1), 1), ((1, 1, 2, 1), 30), ((2, 0, 2, 1), 15),
        ((2, 1, 1, 1), 30), ((2, 1, 2, 0), 15), ((2, 1, 3, 0), 60), ((2, 1, 3, 1), 180),
        ((3, 0, 2, 1), 60), ((3, 1, 2, 1), 180), ((3, 1, 3, 1), 180),
    ],
    ("symplectic", 2): [((0, 0, 0, 0), 1), ((1, 1, 1, 1), 3)],
    ("symplectic", 4): [((0, 0, 0, 0), 1), ((1, 1, 1, 1), 15), ((2, 0, 2, 0), 15), ((2, 1, 2, 1), 45)],
    ("symplectic", 6): [
        ((0, 0, 0, 0), 1), ((1, 1, 1, 1), 63), ((2, 0, 2, 0), 315), ((2, 1, 2, 1), 945), ((3, 1, 3, 1), 3780),
    ],
}


@pytest.mark.parametrize("kind, n", sorted(PARTITIONS))
def test_class_partition_is_pinned(kind, n):
    # a kernel change that merges or splits a class changes this list
    classes = conjugacy_classes(standard_space(kind, n))
    got = []
    for cls in classes:
        (value,) = {dd(inv) for inv in cls}
        got.append((value, len(cls)))
    assert sorted(got) == PARTITIONS[kind, n]


def test_dd_classifies_orthogonal_dim7():
    # O(7, 2) through the bound argument; ISOMETRY_BOUND stays at 6
    classes = conjugacy_classes(standard_space("orthogonal", 7), bound=7)
    assert sum(len(cls) for cls in classes) == 5104
    assert len(classes) == 5
    values = [{dd(inv) for inv in cls} for cls in classes]
    assert [len(v) for v in values] == [1] * 5
    assert len(set().union(*values)) == 5


@pytest.mark.parametrize(
    "kind, n", [("orthogonal", n) for n in range(2, 7)] + [("symplectic", n) for n in (2, 4, 6)]
)
def test_conjugation_kernel_equals_matrix_products(kind, n):
    # the row kernel of conjugacy_classes against the products it replaced
    space = standard_space(kind, n)
    gens = isometry_generators(space)
    kernels = [_conjugation(g) for g in gens]
    for inv in involutions_in(space):
        m = inv.matrix
        assert [k(m.rows) for k in kernels] == [(g @ m @ g).rows for g in gens], m


def test_conjugacy_closure_stops_at_a_step_out(monkeypatch):
    # a kernel that is no conjugation fails at its first image outside the
    # involution set, before the closure can wander through GL(n, 2)
    calls = []

    def shear(g):
        def kernel(rows):
            calls.append(rows)
            return (rows[0], rows[1] ^ rows[0]) + rows[2:]

        return kernel

    monkeypatch.setattr("c2surf.dd._conjugation", shear)
    space = standard_space("orthogonal", 5)
    with pytest.raises(AssertionError, match="left the involution set"):
        conjugacy_classes(space)
    assert len(calls) == len(isometry_generators(space))  # one step from the first seed
    # one that stays inside the set but is no group action (it sends every
    # involution to one) is caught when a later orbit reaches a taken class
    target = involutions_in(space)[0].matrix.rows
    monkeypatch.setattr("c2surf.dd._conjugation", lambda g: lambda rows: target)
    with pytest.raises(AssertionError, match=r"^conjugation left the involution set$"):
        conjugacy_classes(space)


def reference_mirror(inv: Involution) -> Involution:
    """The mirror v |-> M v + b(v, v) Omega, built column by column from that
    definition and validated as an involution."""
    space = inv.space
    if space.kind != FormKind.EVO:
        return inv
    n = space.dim
    omega = omega_vector(space)
    cols = []
    for j in range(n):
        e_dot_e = space.gram.rows[j] >> j & 1  # b(e_j, e_j) = G[j, j]
        cols.append(inv.matrix.mul_vec(1 << j) ^ (omega if e_dot_e else 0))
    return Involution(space, F2Matrix(tuple(cols), n).transpose())


def reference_dd(inv: Involution) -> DDTuple:
    """DD from the matrix operations: rank(M + I), diag(G @ M), the mirror."""

    def d_alpha(x: Involution):
        n = x.space.dim
        f = (x.space.gram @ x.matrix).diag()
        alpha = 0 if f == 0 or (n % 2 and f == x.space.gram.diag()) else 1
        return rank(x.matrix + F2Matrix.identity(n)), alpha

    return DDTuple(*d_alpha(inv), *d_alpha(reference_mirror(inv)))


def symmetric_gram(n: int, mask: int) -> F2Matrix:
    """The symmetric n x n matrix whose entries on and above the diagonal,
    row by row, are the bits of ``mask``."""
    rows = [0] * n
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for k, (i, j) in enumerate(cells):
        if mask >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return F2Matrix(tuple(rows), n)


def reference_spaces():
    """The standard spaces and one 2x2 gram, then every other symmetric
    invertible gram of dimension 1 to 3 and twelve seeded 4x4 ones with an
    off-diagonal entry, so alpha meets G M for a G that is not diagonal."""
    spaces = [standard_space("orthogonal", n) for n in range(2, 8)]
    spaces += [standard_space("symplectic", n) for n in (2, 4, 6)]
    spaces.append(BilinearSpace(F2Matrix.from_rows([[1, 1], [1, 0]])))
    grams = {sp.gram for sp in spaces}
    for n in (1, 2, 3):
        for mask in range(1 << n * (n + 1) // 2):
            gram = symmetric_gram(n, mask)
            if gram not in grams and rank(gram) == n:
                grams.add(gram)
                spaces.append(BilinearSpace(gram))
    rng = random.Random(20)
    dense = 0
    while dense < 12:
        gram = symmetric_gram(4, rng.getrandbits(10))
        off_diagonal = any(r & ~(1 << i) for i, r in enumerate(gram.rows))
        if off_diagonal and gram not in grams and rank(gram) == 4:
            grams.add(gram)
            spaces.append(BilinearSpace(gram))
            dense += 1
    return spaces


@pytest.mark.parametrize("space", reference_spaces(), ids=lambda sp: f"{sp.kind.value}{sp.dim}-{sp.gram.rows}")
def test_dd_equals_matrix_reference(space):
    for inv in involutions_in(space, bound=7):
        want = reference_dd(inv)
        assert dd(inv) == want, inv.matrix
        assert mirror(inv).matrix == reference_mirror(inv).matrix


def test_transvections_generate_symplectic_group():
    for n in (2, 4):
        space = standard_space("symplectic", n)
        closure = group_closure(isometry_generators(space))
        assert closure == {m.rows for m in isometries(space.gram)}


@pytest.mark.parametrize(
    "kind, n",
    [("orthogonal", n) for n in range(1, 13)] + [("symplectic", n) for n in range(2, 13, 2)],
)
def test_generators_are_involutive_isometries(kind, n):
    # conjugacy_classes conjugates by g m g, which needs g = g^-1
    space = standard_space(kind, n)
    gens = isometry_generators(space)
    ident = F2Matrix.identity(n)
    for g in gens:
        assert g.transpose() @ space.gram @ g == space.gram, g
        assert g @ g == ident, g
    if kind == "symplectic":
        assert len(gens) == 3 * (n // 2) - 1


@pytest.mark.parametrize(
    "rows, kind",
    [
        ((4, 8, 1, 2), FormKind.SYMP),  # the pairs (e0, e2), (e1, e3): symplectic, not the standard blocks
        ((2, 1, 4), FormKind.ODDO),  # one hyperbolic block plus a unit vector
        ((3, 1), FormKind.EVO),  # orthogonal, but not orthonormal
    ],
)
def test_generators_reject_nonstandard_grams(rows, kind):
    space = BilinearSpace(F2Matrix(rows, len(rows)))
    assert space.kind == kind
    with pytest.raises(ValueError, match="standard orthogonal and symplectic grams only"):
        isometry_generators(space)


def test_conjugacy_classes_partition():
    space = standard_space("symplectic", 4)
    classes = conjugacy_classes(space)
    total = sum(len(c) for c in classes)
    assert total == len(involutions_in(space))
    # identity is alone in its class
    sizes = sorted(len(c) for c in classes)
    assert sizes[0] == 1


def test_d_bound():
    for kind, n in (("orthogonal", 4), ("orthogonal", 5), ("symplectic", 4)):
        space = standard_space(kind, n)
        for inv in involutions_in(space):
            assert 0 <= dd(inv).d <= space.dim // 2


def test_symp_oddo_bookkeeping():
    for kind, n in (("symplectic", 4), ("orthogonal", 3), ("orthogonal", 5)):
        space = standard_space(kind, n)
        for inv in involutions_in(space):
            value = dd(inv)
            assert value.d_tilde == value.d
            assert value.alpha_tilde == value.alpha


def test_dd_classifies_small_dims():
    for kind, dims in (("orthogonal", (2, 3, 4, 5)), ("symplectic", (2, 4))):
        for n in dims:
            assert dd_classifies(standard_space(kind, n))


def test_dd_classifies_fails_when_a_class_gets_two_values(monkeypatch):
    # every involution its own value: a class of two or more is split
    values = itertools.count()
    monkeypatch.setattr(dd_module, "dd", lambda inv: DDTuple(next(values), 0, 0, 0))
    assert not dd_classifies(standard_space("orthogonal", 4))


def test_dd_classifies_fails_when_two_classes_share_a_value(monkeypatch):
    # one value for every involution: no class splits, but the second class
    # repeats the first one's value
    monkeypatch.setattr(dd_module, "dd", lambda inv: DDTuple(0, 0, 0, 0))
    assert not dd_classifies(standard_space("orthogonal", 4))
    assert not dd_classifies(standard_space("symplectic", 2))
