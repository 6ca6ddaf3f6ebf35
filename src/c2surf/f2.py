"""Exact linear algebra over GF(2) with bit-packed rows.

Vectors and matrices are immutable; coordinates are packed into Python ints
(bit ``i`` is coordinate ``i``), which makes row operations single XORs and
lets matrices serve as dict keys and set members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


class DimensionMismatch(ValueError):
    """Incompatible shapes for a matrix or vector operation."""


class SingularMatrixError(ValueError):
    """A matrix that must be invertible is not."""


@dataclass(frozen=True, slots=True)
class F2Vector:
    """Vector over GF(2); ``bits`` packs the coordinates, ``n`` is the length."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits {self.bits:#x} do not fit in length {self.n}")

    @classmethod
    def from_bits(cls, coords: Iterable[int]) -> "F2Vector":
        bits = 0
        n = 0
        for c in coords:
            if c & 1:
                bits |= 1 << n
            n += 1
        return cls(bits, n)

    @classmethod
    def zero(cls, n: int) -> "F2Vector":
        return cls(0, n)

    @classmethod
    def ones(cls, n: int) -> "F2Vector":
        return cls((1 << n) - 1, n)

    @classmethod
    def basis(cls, n: int, i: int) -> "F2Vector":
        return cls(1 << i, n)

    @property
    def coords(self) -> Tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if self.n != other.n:
            raise DimensionMismatch(f"vector lengths {self.n} != {other.n}")
        return F2Vector(self.bits ^ other.bits, self.n)

    def dot(self, other: "F2Vector") -> int:
        if self.n != other.n:
            raise DimensionMismatch(f"vector lengths {self.n} != {other.n}")
        return (self.bits & other.bits).bit_count() & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def __repr__(self) -> str:
        return f"F2Vector([{','.join(str(c) for c in self.coords)}])"


@dataclass(frozen=True, slots=True)
class F2Matrix:
    """Matrix over GF(2); ``rows[i]`` packs row ``i``, bit ``j`` is column ``j``."""

    rows: Tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        if self.ncols < 0:
            raise ValueError("negative column count")
        for r in self.rows:
            if r < 0 or r >> self.ncols:
                raise ValueError(f"row {r:#x} does not fit in {self.ncols} columns")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "F2Matrix":
        ncols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            bits = 0
            for j, c in enumerate(row):
                if c & 1:
                    bits |= 1 << j
            packed.append(bits)
        return cls(tuple(packed), ncols)

    @classmethod
    def from_cols(cls, cols: Sequence[int], nrows: int) -> "F2Matrix":
        rows = [0] * nrows
        for j, col in enumerate(cols):
            for i in range(nrows):
                if (col >> i) & 1:
                    rows[i] |= 1 << j
        return cls(tuple(rows), len(cols))

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(tuple(1 << i for i in range(n)), n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "F2Matrix":
        return cls((0,) * nrows, ncols)

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "F2Matrix":
        """Matrix sending basis vector ``i`` to basis vector ``perm[i]``."""
        n = len(perm)
        rows = [0] * n
        for i, p in enumerate(perm):
            rows[p] |= 1 << i
        return cls(tuple(rows), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        return (self.rows[i] >> j) & 1

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_cols(list(self.rows), self.ncols)

    def diag(self) -> F2Vector:
        if not self.is_square():
            raise DimensionMismatch("diagonal of a non-square matrix")
        bits = 0
        for i, r in enumerate(self.rows):
            if (r >> i) & 1:
                bits |= 1 << i
        return F2Vector(bits, self.ncols)

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} != {other.shape}")
        return F2Matrix(tuple(a ^ b for a, b in zip(self.rows, other.rows)), self.ncols)

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"inner dimensions {self.ncols} != {other.nrows}"
            )
        brows = other.rows
        out = []
        for a in self.rows:
            acc = 0
            while a:
                low = a & -a
                acc ^= brows[low.bit_length() - 1]
                a ^= low
            out.append(acc)
        return F2Matrix(tuple(out), other.ncols)

    def mul_vec(self, v: F2Vector) -> F2Vector:
        if self.ncols != v.n:
            raise DimensionMismatch(f"matrix cols {self.ncols} != vector length {v.n}")
        bits = 0
        for i, r in enumerate(self.rows):
            if (r & v.bits).bit_count() & 1:
                bits |= 1 << i
        return F2Vector(bits, self.nrows)

    def is_invertible(self) -> bool:
        return self.is_square() and rank(self) == self.ncols

    def inverse(self) -> "F2Matrix":
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.ncols
        work = [self.rows[i] | (1 << (n + i)) for i in range(n)]
        row_idx = 0
        for col in range(n):
            pivot = None
            for r in range(row_idx, n):
                if (work[r] >> col) & 1:
                    pivot = r
                    break
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            work[row_idx], work[pivot] = work[pivot], work[row_idx]
            for r in range(n):
                if r != row_idx and ((work[r] >> col) & 1):
                    work[r] ^= work[row_idx]
            row_idx += 1
        mask = (1 << n) - 1
        return F2Matrix(tuple((w >> n) & mask for w in work), n)

    def __repr__(self) -> str:
        body = "; ".join(
            "".join(str((r >> j) & 1) for j in range(self.ncols)) for r in self.rows
        )
        return f"F2Matrix[{body}]"


def rank(m: F2Matrix) -> int:
    """Row rank over GF(2), by XOR elimination on packed rows."""
    work = list(m.rows)
    rk = 0
    for col in range(m.ncols):
        pivot = None
        for r in range(rk, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        for r in range(len(work)):
            if r != rk and ((work[r] >> col) & 1):
                work[r] ^= work[rk]
        rk += 1
        if rk == len(work):
            break
    return rk


def block_diag(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Block-diagonal sum of two square matrices."""
    if not (a.is_square() and b.is_square()):
        raise DimensionMismatch("block_diag needs square blocks")
    n = a.ncols
    rows = list(a.rows) + [r << n for r in b.rows]
    return F2Matrix(tuple(rows), n + b.ncols)


def _affine_solutions(eqs: List[Tuple[int, int]], n: int) -> Optional[Tuple[int, List[int]]]:
    """Solutions of a linear system given as (mask, rhs-bit) rows over n unknowns.

    Returns (particular, null-basis) or None when inconsistent.
    """
    reduced: List[Tuple[int, int, int]] = []  # (mask, rhs, pivot)
    for mask, rhs in eqs:
        for rm, rr, rp in reduced:
            if (mask >> rp) & 1:
                mask ^= rm
                rhs ^= rr
        if mask == 0:
            if rhs:
                return None
            continue
        pivot = (mask & -mask).bit_length() - 1
        new = []
        for rm, rr, rp in reduced:
            if (rm >> pivot) & 1:
                new.append((rm ^ mask, rr ^ rhs, rp))
            else:
                new.append((rm, rr, rp))
        reduced = new
        reduced.append((mask, rhs, pivot))
    pivots = {rp for _, _, rp in reduced}
    particular = 0
    for _, rr, rp in reduced:
        if rr:
            particular |= 1 << rp
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = 1 << free
        for rm, _, rp in reduced:
            if (rm >> free) & 1:
                vec |= 1 << rp
        basis.append(vec)
    return particular, basis


# Largest dimension the exhaustive isometry search and the oracles built on it accept.
ISOMETRY_BOUND = 6

_ISOMETRY_CACHE: dict = {}


def isometries(gram: F2Matrix, bound: int = ISOMETRY_BOUND) -> Tuple[F2Matrix, ...]:
    """All M with M^T G M = G, by column-by-column constraint propagation.

    Every pairing constraint is linear over GF(2), including the diagonal one
    (v |-> v^T G v is linear since G is symmetric), so each new column ranges
    over an affine subspace; columns are additionally kept independent.
    Results are cached per gram (the bound only gates the computation).
    """
    n = gram.ncols
    if n > bound:
        raise ValueError(f"dimension {n} above isometry-enumeration bound {bound}")
    cached = _ISOMETRY_CACHE.get(gram)
    if cached is not None:
        return cached
    if n == 0:
        return (F2Matrix((), 0),)
    diag_bits = gram.diag().bits
    out_cols: List[Tuple[int, ...]] = []
    cols: List[int] = []
    gcols: List[int] = []  # G @ c_j, packed
    echelon: List[int] = []  # independence basis for chosen columns

    def reduce(v: int) -> int:
        for b in echelon:
            if (v >> (b.bit_length() - 1)) & 1:
                v ^= b
        return v

    def g_times(col: int) -> int:
        bits = 0
        for i in range(n):
            if (gram.rows[i] & col).bit_count() & 1:
                bits |= 1 << i
        return bits

    def extend(k: int) -> None:
        if k == n:
            out_cols.append(tuple(cols))
            return
        eqs = [(gcols[j], gram.entry(k, j)) for j in range(k)]
        eqs.append((diag_bits, gram.entry(k, k)))
        sol = _affine_solutions(eqs, n)
        if sol is None:
            return
        particular, basis = sol
        for combo in range(1 << len(basis)):
            cand = particular
            c = combo
            idx = 0
            while c:
                if c & 1:
                    cand ^= basis[idx]
                c >>= 1
                idx += 1
            if reduce(cand) == 0:
                continue
            cols.append(cand)
            gcols.append(g_times(cand))
            echelon.append(reduce(cand))
            extend(k + 1)
            echelon.pop()
            gcols.pop()
            cols.pop()

    extend(0)
    result = tuple(F2Matrix.from_cols(list(cs), n) for cs in out_cols)
    _ISOMETRY_CACHE[gram] = result
    return result


def group_closure(generators: Iterable[F2Matrix]) -> frozenset:
    """Subgroup generated by invertible square matrices, by breadth-first closure."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].ncols
    for g in gens:
        if not g.is_square() or g.ncols != n:
            raise DimensionMismatch("generators must be square of equal dimension")
        if rank(g) != n:
            raise SingularMatrixError(f"singular generator {g!r}")
    identity = F2Matrix.identity(n)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = m @ g
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(seen)


__all__ = [
    "DimensionMismatch",
    "SingularMatrixError",
    "F2Vector",
    "F2Matrix",
    "rank",
    "block_diag",
    "ISOMETRY_BOUND",
    "isometries",
    "group_closure",
]
