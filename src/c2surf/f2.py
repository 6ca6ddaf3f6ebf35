"""Exact linear algebra over GF(2) with bit-packed rows.

Vectors and matrices are immutable; coordinates are packed into Python ints
(bit ``i`` is coordinate ``i``), which makes row operations single XORs and
lets matrices serve as dict keys and set members.

Row i of a product ``a @ b`` is the XOR of the rows of b that the set bits
of row i of a pick.  A caller that maps many rows through one matrix asks
``F2Matrix.row_map`` for subset-XOR tables of that matrix's rows, one table
per eight rows, and holds them for as long as it reuses the matrix: the
closures that step through a group (``group_closure``, the conjugacy orbits of
``dd``, the vector census of ``orbits``) and the isometry search map packed
rows and ints through them and build no matrix per step.  Nothing is kept
between calls.

The isometries of a form are found by one search, which runs column by
column over the isometries of the inverse gram, whose columns are the rows
of the answers.  Each depth adds the two equations its column brings to its
parent's reduced echelon system, instead of solving its system anew.
``involutive_isometries`` visits only the involutions, which is all the DD
classification needs, and ``isometries`` lists the whole group for the
oracles that check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar


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

    @property
    def coords(self) -> Tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))

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
        rows = self.rows
        if rows and (min(rows) < 0 or max(rows) >> self.ncols):
            bad = next(r for r in rows if r < 0 or r >> self.ncols)
            raise ValueError(f"row {bad:#x} does not fit in {self.ncols} columns")

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
    def identity(cls, n: int) -> "F2Matrix":
        return cls(tuple(1 << i for i in range(n)), n)

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

    def transpose(self) -> "F2Matrix":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= bit
                r ^= low
        return F2Matrix(tuple(cols), self.nrows)

    def diag(self) -> int:
        """The diagonal, packed: bit i is entry (i, i)."""
        if not self.is_square():
            raise DimensionMismatch("diagonal of a non-square matrix")
        bits = 0
        for i, r in enumerate(self.rows):
            if (r >> i) & 1:
                bits |= 1 << i
        return bits

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} != {other.shape}")
        return F2Matrix(tuple(a ^ b for a, b in zip(self.rows, other.rows)), self.ncols)

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != len(other.rows):
            raise DimensionMismatch(f"inner dimensions {self.ncols} != {other.nrows}")
        orows = other.rows
        return F2Matrix(tuple(_picked(orows, r) for r in self.rows), other.ncols)

    def mul_row(self, x: int) -> int:
        """x @ self for one packed row vector, by the bit walk of ``@``: no table."""
        return _picked(self.rows, x)

    def row_map(self) -> Callable[[int], int]:
        """The map x |-> x @ self on row vectors packed as ints: the XOR of the
        rows that the set bits of x pick, read from subset-XOR tables of this
        matrix's rows that each call builds.  Mapping it over the rows of m
        gives the rows of m @ self without building either matrix."""
        rows = self.rows
        tables = []
        for start in range(0, len(rows), _TABLE_ROWS):
            table = [0]  # entry x: the XOR of rows start + i for the set bits i of x
            for r in rows[start : start + _TABLE_ROWS]:
                table += [t ^ r for t in table]
            tables.append(table)
        if len(tables) == 1:
            return tables[0].__getitem__
        return partial(_lookup, tables)

    def conjugates(self, a: "F2Matrix", b: "F2Matrix") -> bool:
        """Whether ``a @ self == self @ b`` (for invertible self: self^-1 a
        self = b), compared row by row up to the first row that differs."""
        n = self.ncols
        if not (len(self.rows) == len(a.rows) == len(b.rows) == a.ncols == b.ncols == n):
            raise DimensionMismatch(f"need square matrices of one size, got {a.shape}, {self.shape}, {b.shape}")
        prows, brows = self.rows, b.rows
        for arow, prow in zip(a.rows, prows):
            if _picked(prows, arow) != _picked(brows, prow):
                return False
        return True

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
        work: Optional[List[int]] = []
        for i, r in enumerate(self.rows):  # [M | I] to reduced echelon form
            work = _adjoin(work, r | 1 << (n + i), n, 0)
            if work is None:  # a dependent row keeps its bit of I
                raise SingularMatrixError("matrix is singular")
        work.sort(key=lambda w: w & -w)  # row i pivots on column i
        return F2Matrix(tuple(w >> n for w in work), n)

    def __repr__(self) -> str:
        body = "; ".join(
            "".join(str((r >> j) & 1) for j in range(self.ncols)) for r in self.rows
        )
        return f"F2Matrix[{body}]"


# Rows per subset-XOR table, so a table never has more than 256 entries.
_TABLE_ROWS = 8
_TABLE_MASK = (1 << _TABLE_ROWS) - 1


def _picked(rows: Tuple[int, ...], x: int) -> int:
    """The XOR of the ``rows`` that the set bits of x pick, one bit at a time."""
    acc = 0
    while x:
        low = x & -x
        acc ^= rows[low.bit_length() - 1]
        x ^= low
    return acc


def _lookup(tables: List[List[int]], x: int) -> int:
    """The XOR of the rows behind ``tables`` that the set bits of x pick."""
    acc = 0
    for table in tables:
        acc ^= table[x & _TABLE_MASK]
        x >>= _TABLE_ROWS
    return acc


def _echelon(rows: Iterable[int]) -> List[int]:
    """Forward elimination on packed rows: the nonzero rows left, each with
    its pivot at its lowest set bit, clear in every later one."""
    echelon: List[int] = []
    for row in rows:
        for prow in echelon:
            if row & prow & -prow:
                row ^= prow
        if row:
            echelon.append(row)
    return echelon


def rank(m: F2Matrix) -> int:
    """Row rank over GF(2): the echelon rows of a forward elimination on
    packed rows (no back substitution)."""
    return len(_echelon(m.rows))


def block_diag(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Block-diagonal sum of two square matrices."""
    if not (a.is_square() and b.is_square()):
        raise DimensionMismatch("block_diag needs square blocks")
    n = a.ncols
    rows = list(a.rows) + [r << n for r in b.rows]
    return F2Matrix(tuple(rows), n + b.ncols)


def _adjoin(system: List[int], row: int, n: int, k: int) -> Optional[List[int]]:
    """The reduced echelon ``system`` with the equation ``row`` added.  An
    equation packs its coefficients on bits ``0..n-1`` and above them its
    right-hand sides, one per depth: bit ``n + d`` is its right-hand side at
    depth d.  A row that reduces to no coefficient is a consistency check:
    None when its right-hand side is 1 at depth k or later."""
    for prow in system:
        if row & prow & -prow:
            row ^= prow
    if not row & ((1 << n) - 1):
        return None if row >> (n + k) else system
    pivot = row & -row
    return [prow ^ row if prow & pivot else prow for prow in system] + [row]


def _solutions(system: List[int], n: int, k: int) -> Tuple[int, List[int]]:
    """The solutions of a reduced echelon ``system`` (as built by ``_adjoin``)
    at depth k: a particular solution, read off bit ``n + k`` of each row,
    and a basis of the null space, one vector per free coefficient."""
    particular = pivots = 0
    for row in system:
        pivot = row & -row
        pivots |= pivot
        if row >> (n + k) & 1:
            particular |= pivot
    basis = []
    free = ((1 << n) - 1) ^ pivots
    while free:
        bit = free & -free
        free ^= bit
        vec = bit
        for row in system:
            if row & bit:
                vec |= row & -row
        basis.append(vec)
    return particular, basis


# Largest dimension the isometry searches and the oracles built on them accept.
ISOMETRY_BOUND = 6

_ISOMETRY_CACHE: dict = {}


def _check_bound(gram: F2Matrix, bound: int) -> None:
    if gram.ncols > bound:
        raise ValueError(f"dimension {gram.ncols} above isometry-enumeration bound {bound}")


def _column_search(gram: F2Matrix, involutive: bool) -> Tuple[F2Matrix, ...]:
    """Every M with M^T G M = G, and with M^2 = I when ``involutive``, for a
    symmetric invertible gram G, found row by row.

    Inverting M G M^T = G shows that N = M^T is an isometry of H = G^-1, so
    the search runs column by column over the isometries N of H, and the
    columns of N are the rows of M.  Symmetry makes c_j^T H c_k = H[j, k] the
    same condition for (j, k) and (k, j), and makes the diagonal one linear
    (v |-> v^T H v is v . diag(H)), so column k ranges over an affine
    subspace: (H c_j) . c_k = H[j, k] for j < k and diag(H) . c_k = H[k, k].
    Every solution is invertible: det(N)^2 det(H) = det(H) = 1.  N is an
    involution exactly when H N is symmetric (N^T H = H N^-1), which adds
    H[i] . c_k = (H c_i)_k for i < k.

    Column k + 1 meets the equations of column k again, with new right-hand
    sides, plus the two that column k brings.  So each equation carries the
    vector whose bit d is its right-hand side at depth d (H[j] for H c_j,
    H c_i for H[i], diag(H) for the diagonal), and each depth adjoins the two
    new equations to its parent's reduced echelon system.  A depth reads its
    right-hand sides as bit k of the reduced rows, and a dependent equation
    checks every later depth at once.
    """
    if not (gram.is_symmetric() and gram.is_invertible()):
        raise ValueError("gram matrix must be symmetric and invertible")
    n = gram.ncols
    inverse = gram.inverse()
    hrows = inverse.rows
    h_times = inverse.row_map()  # H is symmetric, so H c is c @ H
    found: List[F2Matrix] = []
    rows: List[int] = []

    def extend(k: int, system: List[int]) -> None:
        particular, basis = _solutions(system, n, k)
        span = [(particular, h_times(particular))]  # (c, H c) over the affine subspace
        for b in basis:
            hb = h_times(b)
            span += [(c ^ b, hc ^ hb) for c, hc in span]
        if k + 1 == n:
            found.extend(F2Matrix((*rows, c), n) for c, _ in span)
            return
        for c, hc in span:
            nxt = _adjoin(system, hc | hrows[k] << n, n, k + 1)
            if involutive and nxt is not None:
                nxt = _adjoin(nxt, hrows[k] | hc << n, n, k + 1)
            if nxt is not None:
                rows.append(c)
                extend(k + 1, nxt)
                rows.pop()

    if not n:
        return (inverse,)  # the empty matrix, the one isometry of the zero space
    diag = inverse.diag()
    extend(0, [diag | diag << n] if diag else [])
    return tuple(found)


def isometries(gram: F2Matrix, bound: int = ISOMETRY_BOUND) -> Tuple[F2Matrix, ...]:
    """The whole isometry group {M : M^T G M = G} of a symmetric invertible
    gram G, by the column search.  This is the oracle side: the conjugacy
    oracle and the generator checks need every element.  Results are cached
    per gram (the bound only gates the computation).
    """
    _check_bound(gram, bound)
    cached = _ISOMETRY_CACHE.get(gram)
    if cached is not None:
        return cached
    result = _column_search(gram, involutive=False)
    _ISOMETRY_CACHE[gram] = result
    return result


def involutive_isometries(gram: F2Matrix, bound: int = ISOMETRY_BOUND) -> Tuple[F2Matrix, ...]:
    """Every isometry M of a symmetric invertible gram G with M^2 = I, by the
    same column search with G M held symmetric; the rest of the group is
    never visited.  Not cached.
    """
    _check_bound(gram, bound)
    return _column_search(gram, involutive=True)


_Point = TypeVar("_Point", bound=Hashable)


def orbit(start: _Point, images: Callable[[_Point], Iterable[_Point]]) -> Set[_Point]:
    """Every point reachable from ``start``, by breadth-first closure;
    ``images(x)`` returns every neighbour of x."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in images(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def group_closure(generators: Iterable[F2Matrix]) -> frozenset:
    """Subgroup generated by invertible square matrices, by breadth-first
    closure on packed rows: each step maps a row tuple through a generator's
    ``row_map``, and only the finished closure becomes matrices."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].ncols
    for g in gens:
        if not g.is_square() or g.ncols != n:
            raise DimensionMismatch("generators must be square of equal dimension")
        if rank(g) != n:
            raise SingularMatrixError(f"singular generator {g!r}")
    steps = [g.row_map() for g in gens]
    closure = orbit(F2Matrix.identity(n).rows, lambda rows: [tuple(map(step, rows)) for step in steps])
    return frozenset(F2Matrix(rows, n) for rows in closure)


__all__ = [
    "DimensionMismatch",
    "SingularMatrixError",
    "F2Vector",
    "F2Matrix",
    "rank",
    "block_diag",
    "ISOMETRY_BOUND",
    "isometries",
    "involutive_isometries",
    "orbit",
    "group_closure",
]
