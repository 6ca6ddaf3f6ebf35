"""The H^1 model: s* on H_1(X; Z/2) of a nontrivial word's action, built one
surgery at a time, with the DD that `dd.dd` reads off it.  It is the
reference that `classify.class_dd` is checked against, so it reads nothing
of `classify`: only the word, the GF(2) matrices and forms, and `dd.dd`.

* Starts: S2a, S22 and S21 have H_1 = 0.  Trot(1) is one hyperbolic pair
  a, b with s = id; its axis class is a.  Every other base is expanded into a
  start and surgeries first.
* DCC adds e1, e2, orthogonal to everything, with ei.ei = 1, swapped by s.
  DT adds two hyperbolic pairs that s swaps.  FM adds one e with e.e = 1 and
  s(e) = e.
* An antitube of type sigma adds m and l, orthogonal to every old vector, with
  m.m = 0, m.l = 1 and l.l = o + tau: o = 1 on the starts S2a and S21, 0 on
  S22 and Trot(1); tau = 0 for S11AT, 1 for S10AT and S1aAT.  With c the
  class of gamma u s(gamma) (on S2a the sum of the m's of the antitubes added
  before, on Trot(1) the axis a, on S22 and S21 zero) and
  eps' = [start is S2a] + [sigma = S1aAT] mod 2: s(m) = m,
  s(l) = l + c + eps' m, and every old basis vector v gets
  s(v) <- s(v) + (s(v).c) m.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from c2surf.bilinear import BilinearSpace, Involution
from c2surf.dd import DDTuple, dd
from c2surf.f2 import F2Matrix
from c2surf.words import BaseKind, SurgeryWord

S2A, S22, S21, TROT1 = "S2a", "S22", "S21", "Trot(1)"
OPS = ("DCC", "DT", "S10AT", "S11AT", "S1aAT", "FM")


def expand(w: SurgeryWord) -> Tuple[str, List[str]]:
    """The start of a nontrivial word and its surgeries: the base's expansion,
    then the word's own ops in word order."""
    base = w.base
    kind, g, f, c = base.kind, base.g, base.f, base.c
    if kind is BaseKind.T_ANTI:
        start, ops = S2A, ["S1aAT"] * (g % 2) + ["DT"] * (g // 2)
    elif kind is BaseKind.T_SPIT:
        start, ops = S22, ["S11AT"] * (f // 2 - 1) + ["DT"] * ((2 + 2 * g - f) // 4)
    elif kind is BaseKind.T_REFL:
        start, ops = S21, ["S10AT"] * (c - 1) + ["DT"] * ((g + 1 - c) // 2)
    elif kind is BaseKind.T_ROT:
        start, ops = TROT1, ["DT"] * ((g - 1) // 2)
    else:
        raise ValueError("the model is for nontrivial words")
    return start, ops + [name for name, count in zip(OPS, w.op_counts) for _ in range(count)]


class Model:
    """The gram of H_1 and s on it, as packed rows: ``gram[i]`` holds the dot
    products of basis vector i, ``image[j]`` is s(e_j)."""

    def __init__(self, start: str) -> None:
        self.start = start
        self.o = 1 if start in (S2A, S21) else 0
        self.gram: List[int] = []
        self.image: List[int] = []
        self.c = 0
        if start == TROT1:
            self._block([0b10, 0b01], [0b01, 0b10])
            self.c = 0b01  # the axis class a

    def _block(self, gram: List[int], image: List[int]) -> int:
        """Add vectors orthogonal to every old one, given their gram and s as
        rows over the new vectors; returns the index of the first."""
        n = len(self.gram)
        self.gram += [row << n for row in gram]
        self.image += [v << n for v in image]
        return n

    def dot(self, x: int, y: int) -> int:
        acc = 0
        for i, row in enumerate(self.gram):
            if x >> i & 1:
                acc ^= row
        return (acc & y).bit_count() & 1

    def apply(self, op: str) -> None:
        if op == "DCC":
            self._block([0b01, 0b10], [0b10, 0b01])
        elif op == "DT":  # a1, b1, a2, b2
            self._block([0b0010, 0b0001, 0b1000, 0b0100], [0b0100, 0b1000, 0b0001, 0b0010])
        elif op == "FM":
            self._block([0b1], [0b1])
        else:
            self._antitube(op)

    def _antitube(self, sigma: str) -> None:
        c, n = self.c, len(self.gram)
        m = 1 << n
        self.image = [v ^ m if self.dot(v, c) else v for v in self.image]
        tau = 0 if sigma == "S11AT" else 1
        eps = (self.start == S2A) ^ (sigma == "S1aAT")
        self._block([0b10, 0b01 | (self.o ^ tau) << 1], [0b01, 0b10])
        self.image[n + 1] ^= c ^ (m if eps else 0)
        if self.start == S2A:
            self.c ^= m

    def involution(self) -> Involution:
        """s* as an involution of the form: its row matrix is the transpose of
        the column images.  Building it checks that s is an isometry of
        order two."""
        n = len(self.gram)
        return Involution(BilinearSpace(F2Matrix(tuple(self.gram), n)), F2Matrix(tuple(self.image), n).transpose())


def model_dd(w: SurgeryWord, rng: Optional[random.Random] = None) -> DDTuple:
    """The DD of a nontrivial word by the model, its surgeries applied in
    order, or in an order that `rng` shuffles."""
    start, ops = expand(w)
    if rng is not None:
        rng.shuffle(ops)
    model = Model(start)
    for op in ops:
        model.apply(op)
    return dd(model.involution())
