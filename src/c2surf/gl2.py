"""Conjugacy of order-two elements of GL_2(Z), with constructive witnesses.

Besides +-I, every involution has the shape [[a, b], [c, -a]] with
a^2 + bc = 1 and determinant -1.  Such a matrix is conjugate to
S = diag(1, -1) exactly when b and c are both even (the parity of the
off-diagonal entries is preserved by conjugation by elementary matrices),
and otherwise to the swap matrix T.  ``gl2_reduce`` returns a conjugator P
with P^-1 R P = M for the class representative R.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Dict, Tuple


class Gl2Class(enum.Enum):
    ID = "Id"
    NEG_ID = "NegId"
    S_CLASS = "Sclass"
    T_CLASS = "Tclass"


@dataclass(frozen=True, slots=True)
class IntMatrix2:
    a: int
    b: int
    c: int
    d: int

    def __matmul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "IntMatrix2":
        det = self.det()
        if det == 1:
            return IntMatrix2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return IntMatrix2(-self.d, self.b, self.c, -self.a)
        raise ValueError(f"matrix with determinant {det} is not invertible over Z")

    def conjugated_by(self, q: "IntMatrix2") -> "IntMatrix2":
        return q.inverse() @ self @ q

    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


I2 = IntMatrix2(1, 0, 0, 1)
NEG_I2 = IntMatrix2(-1, 0, 0, -1)
S_REP = IntMatrix2(1, 0, 0, -1)
T_REP = IntMatrix2(0, 1, 1, 0)
_SWAP = T_REP
_FLIP = IntMatrix2(-1, 0, 0, 1)


def gl2_is_involution(m: IntMatrix2) -> bool:
    return m @ m == I2


def gl2_class(m: IntMatrix2) -> Gl2Class:
    """Conjugacy class via the off-diagonal parity rule."""
    if not gl2_is_involution(m):
        raise ValueError(f"{m!r} is not an involution")
    if m == I2:
        return Gl2Class.ID
    if m == NEG_I2:
        return Gl2Class.NEG_ID
    if m.b % 2 == 0 and m.c % 2 == 0:
        return Gl2Class.S_CLASS
    return Gl2Class.T_CLASS


def _lower(lam: int) -> IntMatrix2:
    return IntMatrix2(1, 0, lam, 1)


def _upper(lam: int) -> IntMatrix2:
    return IntMatrix2(1, lam, 0, 1)


def _coprime_part(x: int, m: int) -> int:
    """Largest divisor of x built from primes dividing m (both positive)."""
    part = 1
    g = gcd(x, m)
    while g > 1:
        part *= g
        x //= g
        g = gcd(x, m)
    return part


def _s_witness(m: IntMatrix2) -> IntMatrix2:
    """P with P^-1 S P = m, via splitting n(n+1) = -b'c' across a 2x2 frame.

    Writing a = 2n+1, b = 2b', c = 2c', any w, x, y, z with w x = n + 1,
    y z = n and w y = b' automatically satisfy x z = -c' and det = 1, and
    conjugating S by [[x, y], [z, w]] produces m.  Consecutive integers are
    coprime, so each prime power of b' belongs to n or to n+1 outright.
    """
    n = (m.a - 1) // 2
    bp, cp = m.b // 2, m.c // 2
    if n == 0:
        p = IntMatrix2(1, bp, 0, 1) if cp == 0 else IntMatrix2(1, 0, -cp, 1)
    elif n == -1:
        p = IntMatrix2(0, 1, -1, bp) if cp == 0 else IntMatrix2(cp, 1, -1, 0)
    else:
        u = _coprime_part(abs(bp), abs(n + 1))
        w = u
        x = ((n + 1) // u) if n + 1 > 0 else -((-(n + 1)) // u)
        y = (abs(bp) // u) * (1 if bp > 0 else -1)
        if n % y:
            raise AssertionError(f"factor split failed for {m!r}")
        z = n // y
        p = IntMatrix2(x, y, z, w)
    if p.inverse() @ S_REP @ p != m:
        raise AssertionError(f"witness construction failed for {m!r}")
    return p


def _t_witness(m: IntMatrix2) -> IntMatrix2:
    """P with P^-1 T P = m, accumulated from elementary conjugation steps.

    Conjugation by lower/upper elementary matrices moves the corner entry by
    multiples of the off-diagonal ones, so a Euclidean walk shrinks |a| to at
    most 1; the leftover cases reach the swap matrix in two more steps.  Each
    Euclidean step takes the whole quotient, leaving |a| mod |b| (or mod |c|),
    which is below |a| / 2, so the walk takes O(log |a|) steps.
    """
    cur = m
    conj = I2  # product of the step conjugators; cur == conj^-1 @ m @ conj

    def step(q: IntMatrix2) -> None:
        nonlocal cur, conj
        cur = cur.conjugated_by(q)
        conj = conj @ q

    while cur != T_REP:
        a, b, c = cur.a, cur.b, cur.c
        if a == 0:
            step(_FLIP)  # cur is -T; negating the off-diagonal fixes it
        elif abs(a) > 1:
            if b != 0 and abs(b) <= abs(a):
                q = abs(a) // abs(b)
                step(_lower(-q if a * b > 0 else q))  # a -> a + lam b
            else:
                # a^2 + bc = 1 with |b| > |a| > 1 gives 0 < |c| < |a|
                q = abs(a) // abs(c)
                step(_upper(q if a * c > 0 else -q))  # a -> a - lam c
        elif a == -1:
            step(_SWAP)
        else:  # a == 1 and bc = 0 with the nonzero off-diagonal entry odd
            if b == 0 and c == 0:
                raise AssertionError("S landed in the T reduction")
            if c == 0:
                step(_upper((1 - b) // 2) if b != 1 else _lower(-1))
            else:
                step(_lower((c - 1) // 2) if c != 1 else _upper(1))

    p = conj.inverse()
    if p.inverse() @ T_REP @ p != m:
        raise AssertionError(f"witness construction failed for {m!r}")
    return p


def gl2_reduce(m: IntMatrix2) -> Tuple[Gl2Class, IntMatrix2]:
    """Class representative and a verified conjugator for a non-central
    involution of determinant -1."""
    cls = gl2_class(m)
    if cls in (Gl2Class.ID, Gl2Class.NEG_ID):
        raise ValueError("central involutions admit no reduction")
    if m.det() != -1:
        raise AssertionError("non-central involutions have determinant -1")
    if cls == Gl2Class.S_CLASS:
        return cls, _s_witness(m)
    return cls, _t_witness(m)


# ---------------------------------------------------------------------------
# mapping-class data for the three computed surfaces


# induced maps on integral first homology for the six torus actions
TORUS_HOMOLOGY: Dict[str, IntMatrix2] = {
    "Triv(T1)": I2,
    "Tanti(1)": S_REP,
    "Trot(1)": I2,
    "Tspit(1,4)": NEG_I2,
    "Trefl(1,2)": S_REP,
    "S2a+S10AT": IntMatrix2(1, 1, 0, -1),
}

_SPHERE_TABLE: Dict[str, int] = {"Triv(T0)": 1, "S22": 1, "S2a": -1, "S21": -1}

_KLEIN_TABLE: Dict[str, Tuple[int, int]] = {
    "Triv(N2)": (1, 1),
    "S2a+DCC": (-1, -1),
    "S21+DCC": (1, -1),
    "S2a+S11AT": (-1, -1),
    "S22+S10AT": (-1, 1),
    "S22+2FM": (1, 1),
}


def gamma_table(surface: str) -> Dict[str, object]:
    """Image of each involution in the mapping class group, keyed by word.

    The sphere records the orientation character, the torus the GL_2(Z)
    conjugacy class of the homology action, and the Klein bottle the pair
    (rational homology character, mod-2 orthogonal character).
    """
    if surface == "sphere":
        return dict(_SPHERE_TABLE)
    if surface == "torus":
        out: Dict[str, object] = {}
        for word, mat in TORUS_HOMOLOGY.items():
            out[word] = gl2_class(mat)
        return out
    if surface == "klein":
        return dict(_KLEIN_TABLE)
    raise ValueError(f"no mapping-class table for {surface!r}")


__all__ = [
    "Gl2Class",
    "IntMatrix2",
    "I2",
    "NEG_I2",
    "S_REP",
    "T_REP",
    "gl2_is_involution",
    "gl2_class",
    "gl2_reduce",
    "TORUS_HOMOLOGY",
    "gamma_table",
]
