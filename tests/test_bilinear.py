import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2surf.bilinear import (
    BilinearSpace,
    FormKind,
    NotAnIsometry,
    NotOrderTwo,
    Involution,
    omega_vector,
    standard_space,
)
from c2surf.f2 import F2Matrix, F2Vector, block_diag, isometries


def pairing(gram: F2Matrix, v: int, w: int) -> int:
    """b(v, w) = v . G w on packed vectors, through the entrywise `mul_vec`."""
    return (v & gram.mul_vec(F2Vector(w, gram.ncols)).bits).bit_count() & 1


def random_invertible(rng: random.Random, n: int) -> F2Matrix:
    while True:
        m = F2Matrix(tuple(rng.randrange(1 << n) for _ in range(n)), n)
        if m.is_invertible():
            return m


def test_classify_standard_spaces():
    assert standard_space("symplectic", 4).kind == FormKind.SYMP
    assert standard_space("orthogonal", 3).kind == FormKind.ODDO
    assert standard_space("orthogonal", 2).kind == FormKind.EVO


def test_standard_space_validation():
    with pytest.raises(ValueError):
        standard_space("symplectic", 3)
    with pytest.raises(ValueError):
        BilinearSpace(F2Matrix.from_rows([[1, 1], [0, 1]]))  # not symmetric
    with pytest.raises(ValueError):
        BilinearSpace(F2Matrix((0, 0), 2))  # degenerate


def test_standard_space_errors_name_the_kind_first():
    assert str(pytest.raises(ValueError, standard_space, "hermitian", 2).value) == "unknown form kind 'hermitian'"
    assert str(pytest.raises(ValueError, standard_space, "hermitian", 3).value) == "unknown form kind 'hermitian'"
    assert str(pytest.raises(ValueError, standard_space, "symplectic", 3).value) == (
        "symplectic spaces have even dimension"
    )


def test_standard_space_rows():
    # the identity, and hyperbolic planes summed block by block
    plane = F2Matrix.from_rows([[0, 1], [1, 0]])
    for n in range(9):
        assert standard_space("orthogonal", n).gram == F2Matrix.identity(n)
        assert standard_space("orthogonal", n).gram.rows == tuple(1 << i for i in range(n))
        if n % 2 == 0:
            blocks = F2Matrix((), 0)
            for _ in range(n // 2):
                blocks = block_diag(blocks, plane)
            assert standard_space("symplectic", n).gram == blocks
    assert standard_space("symplectic", 4).gram.rows == (0b10, 0b01, 0b1000, 0b0100)
    assert standard_space("symplectic", 0).gram == F2Matrix((), 0)


def test_omega_orthonormal_is_all_ones():
    for n in range(1, 7):
        assert omega_vector(standard_space("orthogonal", n)) == (1 << n) - 1


def test_omega_symplectic_is_zero():
    for n in (2, 4, 6):
        assert omega_vector(standard_space("symplectic", n)) == 0


def test_omega_crosscapped_torus_basis():
    # intersection form on basis {a, b, c} with a.b = c.c = 1, all else 0
    gram = F2Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    space = BilinearSpace(gram)
    omega = omega_vector(space)
    assert gram.mul_vec(F2Vector(omega, 3)) == F2Vector.from_bits([0, 0, 1])
    for v in range(8):
        assert pairing(gram, v, omega) == pairing(gram, v, v)


def test_omega_property_on_random_grams():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(20):
            p = random_invertible(rng, n)
            gram = p.transpose() @ p  # invertible symmetric
            if not gram.is_symmetric() or not gram.is_invertible():
                continue
            space = BilinearSpace(gram)
            omega = omega_vector(space)
            for v in range(1 << n):
                assert pairing(gram, v, omega) == pairing(gram, v, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**30))
def test_classification_invariant_under_basis_change(n, seed):
    base = standard_space("orthogonal", n)
    p = random_invertible(random.Random(seed), n)
    changed = BilinearSpace(p.transpose() @ base.gram @ p)
    assert changed.kind == base.kind


def test_symplectic_classification_basis_invariant():
    rng = random.Random(5)
    base = standard_space("symplectic", 4)
    for _ in range(25):
        p = random_invertible(rng, 4)
        changed = BilinearSpace(p.transpose() @ base.gram @ p)
        assert changed.kind == FormKind.SYMP


def test_make_involution_cases():
    evo2 = standard_space("orthogonal", 2)
    swap = F2Matrix.from_rows([[0, 1], [1, 0]])
    assert Involution(evo2, swap).matrix == swap
    shear = F2Matrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(NotAnIsometry):
        Involution(evo2, shear)
    symp2 = standard_space("symplectic", 2)
    assert Involution(symp2, shear).matrix == shear  # transvection
    not_order_two = F2Matrix.from_rows(
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    )  # 3-cycle, orthogonal
    with pytest.raises(NotOrderTwo):
        Involution(standard_space("orthogonal", 3), not_order_two)
    neither = F2Matrix.from_rows([[1, 1], [1, 0]])  # order three, and e1 . e1 goes 1 -> 0
    with pytest.raises(NotAnIsometry):
        Involution(evo2, neither)
    with pytest.raises(ValueError, match=r"^matrix shape \(3, 3\) != space dim 2$"):
        Involution(evo2, F2Matrix.identity(3))


def reference_validation(space: BilinearSpace, m: F2Matrix):
    """The exception the full check raises: M^T G M = G first, then M^2 = I."""
    if m.transpose() @ space.gram @ m != space.gram:
        return NotAnIsometry
    if m @ m != F2Matrix.identity(space.dim):
        return NotOrderTwo
    return None


def validation_outcome(space: BilinearSpace, m: F2Matrix):
    try:
        Involution(space, m)
    except (NotAnIsometry, NotOrderTwo) as exc:
        return type(exc)
    return None


def test_validation_matches_full_check():
    # every matrix up to 3x3, seeded 4x4 ones, on orthonormal, symplectic
    # and non-orthonormal grams: same acceptance, same exception
    grams = [F2Matrix.identity(n) for n in (1, 2, 3, 4)]
    grams += [standard_space("symplectic", n).gram for n in (2, 4)]
    grams += [F2Matrix.from_rows([[1, 1], [1, 0]]), F2Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])]
    rng = random.Random(4)
    outcomes = set()
    for gram in grams:
        space = BilinearSpace(gram)
        n = space.dim
        if n <= 3:
            cases = [F2Matrix(rows, n) for rows in itertools.product(range(1 << n), repeat=n)]
        else:
            cases = [F2Matrix(tuple(rng.randrange(1 << n) for _ in range(n)), n) for _ in range(3000)]
            cases += list(isometries(gram))
        for m in cases:
            want = reference_validation(space, m)
            assert validation_outcome(space, m) is want, (gram, m)
            outcomes.add(want)
    assert outcomes == {None, NotAnIsometry, NotOrderTwo}


def test_every_isometry_fixes_omega():
    for kind, dims in (("orthogonal", (2, 3, 4)), ("symplectic", (2, 4))):
        for n in dims:
            space = standard_space(kind, n)
            omega = omega_vector(space)
            for m in isometries(space.gram):
                assert m.mul_vec(F2Vector(omega, n)).bits == omega
