"""Conjugacy of order-two elements of GL_2(Z), with constructive witnesses.

Besides +-I, every involution has the shape [[a, b], [c, -a]] with
a^2 + bc = 1 and determinant -1.  Such a matrix is conjugate to
S = diag(1, -1) exactly when b and c are both even, and otherwise to the
swap matrix T.  ``gl2_reduce`` finds the conjugator for either class with
one Euclidean walk of elementary conjugations, which keep the parity of
the off-diagonal entries, and returns a checked P with P^-1 R P = M for
the class representative R.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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

    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


I2 = IntMatrix2(1, 0, 0, 1)
NEG_I2 = IntMatrix2(-1, 0, 0, -1)
S_REP = IntMatrix2(1, 0, 0, -1)
T_REP = IntMatrix2(0, 1, 1, 0)


def gl2_is_involution(m: IntMatrix2) -> bool:
    """m @ m == I2, read entry by entry on the four ints."""
    a, b, c, d = m.a, m.b, m.c, m.d
    trace = a + d
    return a * a + b * c == 1 and c * b + d * d == 1 and b * trace == 0 and c * trace == 0


def gl2_class(m: IntMatrix2) -> Gl2Class:
    """Conjugacy class via the off-diagonal parity rule."""
    if not gl2_is_involution(m):
        raise ValueError(f"{m!r} is not an involution")
    a, b, c, d = m.a, m.b, m.c, m.d
    if b == 0 == c and a == d:  # a diagonal involution is +-1 on the diagonal
        return Gl2Class.ID if a == 1 else Gl2Class.NEG_ID
    if b % 2 == 0 and c % 2 == 0:
        return Gl2Class.S_CLASS
    return Gl2Class.T_CLASS


def _step(state: Tuple[int, ...], kind: str, lam: int = 0) -> Tuple[int, ...]:
    """One step of ``gl2_reduce``'s walk, whose state (a, b, c, w, x, y, z)
    holds cur = [[a, b], [c, -a]] and conj = [[w, x], [y, z]] with
    cur == conj^-1 @ m @ conj: conjugate cur by the step matrix Q and make
    conj @ Q the new conj.  Q is lower(lam) = [[1, 0], [lam, 1]], upper(lam)
    = [[1, lam], [0, 1]], the swap T or the flip diag(-1, 1)."""
    a, b, c, w, x, y, z = state
    if kind == "lower":
        return (a + lam * b, b, c - 2 * lam * a - lam * lam * b, w + lam * x, x, y + lam * z, z)
    if kind == "upper":
        return (a - lam * c, b + 2 * lam * a - lam * lam * c, c, w, x + lam * w, y, z + lam * y)
    if kind == "swap":
        return (-a, c, b, x, w, z, y)
    return (a, -b, -c, -w, x, -y, z)  # the flip


def gl2_reduce(m: IntMatrix2) -> Tuple[Gl2Class, IntMatrix2]:
    """Class representative R and a verified conjugator P with P^-1 R P = m,
    for a non-central involution of determinant -1.

    A Euclidean walk of elementary conjugations shrinks the corner entry of
    cur = [[a, b], [c, -a]].  Each step takes the whole quotient, leaving
    |a| mod |b| (or mod |c|), which is below |a| / 2, so the walk takes
    O(log |a|) steps.  Once |a| <= 1 at most three more steps reach S or T:
    conjugation keeps the parity of b and c, so the walk ends at the
    representative that parity names.
    """
    cls = gl2_class(m)
    if cls in (Gl2Class.ID, Gl2Class.NEG_ID):
        raise ValueError("central involutions admit no reduction")
    ma, mb, mc, md = m.a, m.b, m.c, m.d
    if ma * md - mb * mc != -1:
        raise AssertionError("non-central involutions have determinant -1")
    rep = S_REP if cls is Gl2Class.S_CLASS else T_REP
    ra, rb, rc, rd = rep.a, rep.b, rep.c, rep.d
    state = (ma, mb, mc, 1, 0, 0, 1)
    while state[:3] != (ra, rb, rc):
        a, b, c = state[:3]
        if a == 0:
            state = _step(state, "flip")  # cur is -T; negating the off-diagonal fixes it
        elif abs(a) > 1:
            if b != 0 and abs(b) <= abs(a):
                q = abs(a) // abs(b)
                state = _step(state, "lower", -q if a * b > 0 else q)  # a -> a + lam b
            else:
                # a^2 + bc = 1 with |b| > |a| > 1 gives 0 < |c| < |a|
                q = abs(a) // abs(c)
                state = _step(state, "upper", q if a * c > 0 else -q)  # a -> a - lam c
        elif a == -1:
            state = _step(state, "swap")
        elif (b % 2 == 0 and c % 2 == 0) != (rep is S_REP):
            raise AssertionError(f"conjugation changed the parity of b and c for {m!r}")
        elif rep is S_REP:  # a == 1, so bc = 0: clear the even entry
            state = _step(state, "upper", -b // 2) if c == 0 else _step(state, "lower", c // 2)
        elif c == 0:  # a == 1 and bc = 0 with the nonzero off-diagonal entry odd
            state = _step(state, "upper", (1 - b) // 2) if b != 1 else _step(state, "lower", -1)
        else:
            state = _step(state, "lower", (c - 1) // 2) if c != 1 else _step(state, "upper", 1)

    _, _, _, w, x, y, z = state
    det = w * z - x * y  # +-1
    pa, pb, pc, pd = det * z, -det * x, -det * y, det * w  # p = conj^-1
    # P^-1 R P = M on the ints, as R P = P M with P invertible over Z: det(P) =
    # det^3, a unit exactly when det is
    if det * det != 1 or (
        ra * pa + rb * pc != pa * ma + pb * mc
        or ra * pb + rb * pd != pa * mb + pb * md
        or rc * pa + rd * pc != pc * ma + pd * mc
        or rc * pb + rd * pd != pc * mb + pd * md
    ):
        raise AssertionError(f"witness construction failed for {m!r}")
    return cls, IntMatrix2(pa, pb, pc, pd)


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
