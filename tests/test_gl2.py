import itertools
import math
import random

import pytest

from c2surf import gl2
from c2surf.gl2 import (
    Gl2Class,
    I2,
    IntMatrix2,
    NEG_I2,
    S_REP,
    T_REP,
    TORUS_HOMOLOGY,
    gamma_table,
    gl2_class,
    gl2_is_involution,
    gl2_reduce,
)

LOWER = lambda lam: IntMatrix2(1, 0, lam, 1)
UPPER = lambda lam: IntMatrix2(1, lam, 0, 1)


def random_conjugator(rng: random.Random, length: int = 8) -> IntMatrix2:
    q = I2
    for _ in range(rng.randint(1, length)):
        lam = rng.randint(-5, 5)
        q = q @ (UPPER(lam) if rng.random() < 0.5 else LOWER(lam))
        if rng.random() < 0.3:
            q = q @ T_REP
    return q


def test_is_involution():
    assert gl2_is_involution(I2)
    assert not gl2_is_involution(IntMatrix2(1, 1, 0, 1))
    assert gl2_is_involution(IntMatrix2(3, 4, -2, -3))


def test_class_rule():
    assert gl2_class(I2) == Gl2Class.ID
    assert gl2_class(NEG_I2) == Gl2Class.NEG_ID
    assert gl2_class(S_REP) == Gl2Class.S_CLASS
    assert gl2_class(IntMatrix2(1, 1, 0, -1)) == Gl2Class.T_CLASS
    assert gl2_class(IntMatrix2(3, 4, -2, -3)) == Gl2Class.S_CLASS
    with pytest.raises(ValueError):
        gl2_class(IntMatrix2(2, 1, 1, 1))
    with pytest.raises(ValueError, match=r"^matrix with determinant 2 is not invertible over Z$"):
        IntMatrix2(2, 0, 0, 1).inverse()


def test_reduce_spot_values():
    cls, p = gl2_reduce(IntMatrix2(1, 1, 0, -1))
    assert cls == Gl2Class.T_CLASS
    assert p == IntMatrix2(1, 0, 1, 1)
    cls, p = gl2_reduce(T_REP)
    assert cls == Gl2Class.T_CLASS and p == I2
    cls, p = gl2_reduce(IntMatrix2(3, 2, -4, -3))
    assert cls == Gl2Class.S_CLASS
    assert p.inverse() @ S_REP @ p == IntMatrix2(3, 2, -4, -3)
    # pinned T witnesses, so the walk's step choices cannot drift: T conjugated
    # by upper/lower(+-10^12), then seeded conjugates from the query benchmark
    for q in (UPPER(10**12), LOWER(10**12), UPPER(-(10**12)), LOWER(-(10**12))):
        assert gl2_reduce(q.inverse() @ T_REP @ q) == (Gl2Class.T_CLASS, q)
    for m, witness in [
        (IntMatrix2(1427, -527, 3864, -1427), IntMatrix2(-19, 7, -65, 24)),
        (IntMatrix2(6, 1, -35, -6), IntMatrix2(1, 0, 6, 1)),
        (IntMatrix2(19, -24, 15, -19), IntMatrix2(-1, 1, -4, 5)),
        (IntMatrix2(3, -8, 1, -3), IntMatrix2(1, -3, 0, 1)),
    ]:
        assert gl2_reduce(m) == (Gl2Class.T_CLASS, witness)
    with pytest.raises(ValueError):
        gl2_reduce(I2)


def test_reduce_witnesses_verify():
    rng = random.Random(17)
    for _ in range(2000):
        rep = S_REP if rng.random() < 0.5 else T_REP
        q = random_conjugator(rng)
        m = q.inverse() @ rep @ q
        cls, p = gl2_reduce(m)
        expected = Gl2Class.S_CLASS if rep == S_REP else Gl2Class.T_CLASS
        assert cls == expected
        assert p.inverse() @ rep @ p == m


def _reference_class(m: IntMatrix2) -> Gl2Class:
    """The parity rule written with `IntMatrix2` products and equality."""
    if m @ m != I2:
        raise ValueError(f"{m!r} is not an involution")
    if m == I2:
        return Gl2Class.ID
    if m == NEG_I2:
        return Gl2Class.NEG_ID
    return Gl2Class.S_CLASS if m.b % 2 == 0 and m.c % 2 == 0 else Gl2Class.T_CLASS


def _outcome(f, m: IntMatrix2):
    try:
        return f(m)
    except ValueError as exc:  # compared by type and message
        return type(exc), str(exc)


def test_integer_kernels_match_the_matrix_ops():
    # on every matrix with entries in [-3, 3], the integer kernels answer as
    # the matrix operations do, and every non-central involution reduces to a
    # witness that the matrix operations confirm
    entries = range(-3, 4)
    reduced = 0
    for m in (IntMatrix2(*e) for e in itertools.product(entries, repeat=4)):
        assert gl2_is_involution(m) == (m @ m == I2), m
        cls = _outcome(gl2_class, m)
        assert cls == _outcome(_reference_class, m), m
        if cls in (Gl2Class.S_CLASS, Gl2Class.T_CLASS):
            got, p = gl2_reduce(m)
            assert got is cls and p.inverse() @ (S_REP if cls is Gl2Class.S_CLASS else T_REP) @ p == m, m
            reduced += 1
    # a^2 + bc = 1 with d = -a: 2 matrices at a = 0, 13 at each of a = +-1, 4 at each of a = +-2
    assert reduced == 36


def test_t_witness_walk_is_logarithmic(monkeypatch):
    # S and T conjugated by upper(lam), lower(lam) or their product have
    # entries up to about lam^4; the walk must shrink the corner entry by whole
    # quotients, not by one step per unit, so it stays within
    # 2 log2(largest entry) + 4 steps
    limit = [0]
    steps = []
    step = gl2._step

    def counted(state, kind, lam=0):
        steps.append(kind)
        if len(steps) > limit[0]:
            raise AssertionError(f"more than {limit[0]} steps")
        return step(state, kind, lam)

    monkeypatch.setattr(gl2, "_step", counted)
    for rep in (S_REP, T_REP):
        for lam in (10**12, -(10**12)):
            for q in (UPPER(lam), LOWER(lam), UPPER(lam) @ LOWER(lam)):
                m = q.inverse() @ rep @ q
                limit[0] = 2 * math.log2(max(abs(x) for x in m.entries())) + 4
                steps.clear()
                cls, p = gl2_reduce(m)
                assert steps, "the walk took no counted step"
                assert cls == (Gl2Class.S_CLASS if rep == S_REP else Gl2Class.T_CLASS)
                assert p.inverse() @ rep @ p == m


def test_parity_preserved_by_relations():
    rng = random.Random(23)
    flip = IntMatrix2(-1, 0, 0, 1)
    for _ in range(400):
        rep = S_REP if rng.random() < 0.5 else T_REP
        m = (lambda q: q.inverse() @ rep @ q)(random_conjugator(rng))
        cls = gl2_class(m)
        for q in (flip, LOWER(rng.randint(-3, 3)), UPPER(rng.randint(-3, 3)), T_REP):
            assert gl2_class(q.inverse() @ m @ q) == cls


def test_s_class_matrices_have_even_off_diagonal():
    rng = random.Random(5)
    for _ in range(500):
        q = random_conjugator(rng)
        m = q.inverse() @ S_REP @ q
        assert m.b % 2 == 0 and m.c % 2 == 0
        m = q.inverse() @ T_REP @ q
        assert m.b % 2 or m.c % 2 or m in (I2, NEG_I2)


def test_torus_gamma_table():
    table = gamma_table("torus")
    assert table == {
        "Triv(T1)": Gl2Class.ID,
        "Trot(1)": Gl2Class.ID,
        "Tanti(1)": Gl2Class.S_CLASS,
        "Trefl(1,2)": Gl2Class.S_CLASS,
        "Tspit(1,4)": Gl2Class.NEG_ID,
        "S2a+S10AT": Gl2Class.T_CLASS,
    }
    # equal homology matrices land in the same class
    by_matrix = {}
    for word, m in TORUS_HOMOLOGY.items():
        by_matrix.setdefault(m.entries(), set()).add(table[word])
    assert all(len(classes) == 1 for classes in by_matrix.values())


def test_torus_homology_matrices_are_involutions():
    for word, m in TORUS_HOMOLOGY.items():
        assert gl2_is_involution(m), word


def test_sphere_and_klein_tables():
    sphere = gamma_table("sphere")
    assert sphere == {"Triv(T0)": 1, "S22": 1, "S2a": -1, "S21": -1}
    klein = gamma_table("klein")
    assert klein["S2a+DCC"] == (-1, -1)
    assert klein["S22+S10AT"] == (-1, 1)
    assert klein["S2a+S11AT"] == (-1, -1)
    assert klein["S21+DCC"] == (1, -1)
    assert klein["S22+2FM"] == (1, 1)
    assert klein["Triv(N2)"] == (1, 1)
    with pytest.raises(ValueError):
        gamma_table("genus-two")


def test_gamma_fiber_sizes():
    # the mapping-class image does not determine the action: fibers vary
    from collections import Counter

    torus_fibers = Counter(gamma_table("torus").values())
    assert torus_fibers[Gl2Class.ID] == 2
    assert torus_fibers[Gl2Class.S_CLASS] == 2
    assert torus_fibers[Gl2Class.NEG_ID] == 1
    assert torus_fibers[Gl2Class.T_CLASS] == 1
    klein_fibers = Counter(gamma_table("klein").values())
    assert klein_fibers[(1, 1)] == 2 and klein_fibers[(-1, -1)] == 2
