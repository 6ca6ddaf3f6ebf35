"""Nondegenerate symmetric bilinear spaces over GF(2) and their involutions.

A space is symplectic (SYMP) when every vector is isotropic, and otherwise
orthogonal of odd (ODDO) or even (EVO) dimension.  Each space carries a
distinguished vector Omega with b(v, Omega) = b(v, v) for all v; it is zero
exactly in the symplectic case and is fixed by every isometry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .f2 import F2Matrix, F2Vector, block_diag, rank


class FormKind(enum.Enum):
    SYMP = "SYMP"
    ODDO = "ODDO"
    EVO = "EVO"


class NotAnIsometry(ValueError):
    """Matrix does not preserve the bilinear form."""


class NotOrderTwo(ValueError):
    """Matrix does not square to the identity."""


@dataclass(frozen=True, slots=True)
class BilinearSpace:
    """A nondegenerate symmetric gram matrix over GF(2)."""

    gram: F2Matrix

    def __post_init__(self) -> None:
        if not self.gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")
        if rank(self.gram) != self.gram.ncols:
            raise ValueError("gram matrix must be invertible (nondegenerate form)")

    @property
    def dim(self) -> int:
        return self.gram.ncols

    @property
    def kind(self) -> FormKind:
        """SYMP when all diagonal gram entries vanish, else ODDO/EVO by parity."""
        if self.gram.diag().is_zero():
            return FormKind.SYMP
        return FormKind.ODDO if self.dim % 2 else FormKind.EVO

    def pairing(self, v: F2Vector, w: F2Vector) -> int:
        return v.dot(self.gram.mul_vec(w))


def omega_vector(space: BilinearSpace) -> F2Vector:
    """The unique Omega with b(v, Omega) = b(v, v) for all v: G^-1 diag(G)."""
    return space.gram.inverse().mul_vec(space.gram.diag())


def standard_space(kind: str, dim: int) -> BilinearSpace:
    """Identity gram ('orthogonal') or hyperbolic-block gram ('symplectic')."""
    if kind == "orthogonal":
        return BilinearSpace(F2Matrix.identity(dim))
    if kind == "symplectic":
        if dim % 2:
            raise ValueError("symplectic spaces have even dimension")
        block = F2Matrix.from_rows([[0, 1], [1, 0]])
        gram = F2Matrix((), 0)
        for _ in range(dim // 2):
            gram = block_diag(gram, block)
        return BilinearSpace(gram)
    raise ValueError(f"unknown form kind {kind!r}")


@dataclass(frozen=True, slots=True)
class Involution:
    """An isometry of order at most two on a bilinear space."""

    space: BilinearSpace
    matrix: F2Matrix

    def __post_init__(self) -> None:
        n = self.space.dim
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} != space dim {n}")
        g, m = self.space.gram, self.matrix
        # With M^2 = I, M^-1 = M, so M^T G M = G reads M^T G = G M, and
        # M^T G = (G M)^T for symmetric G: the isometry test is G M symmetric.
        # Both are read off 2n row products, with no table of M: row i of M M
        # is row i of M times M, and G M is compared with its transpose bit by
        # bit.  Otherwise the full product decides, so a matrix that is neither
        # an isometry nor of order two still raises NotAnIsometry.
        times_m = m.mul_row
        if all(times_m(r) == 1 << i for i, r in enumerate(m.rows)):
            gm = [times_m(r) for r in g.rows]
            if any((gm[i] >> j ^ gm[j] >> i) & 1 for i in range(n) for j in range(i)):
                raise NotAnIsometry("matrix is not an isometry of the form")
        elif m.transpose() @ g @ m != g:
            raise NotAnIsometry("matrix is not an isometry of the form")
        else:
            raise NotOrderTwo("matrix does not square to the identity")

    def conjugate(self, p: F2Matrix) -> "Involution":
        """The involution p^-1 M p for an isometry p of the same space."""
        return Involution(self.space, p.inverse() @ self.matrix @ p)


def identity_involution(space: BilinearSpace) -> Involution:
    return Involution(space, F2Matrix.identity(space.dim))


__all__ = [
    "FormKind",
    "NotAnIsometry",
    "NotOrderTwo",
    "BilinearSpace",
    "omega_vector",
    "standard_space",
    "Involution",
    "identity_involution",
]
