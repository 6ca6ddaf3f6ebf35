"""The double Dickson invariant of involutions in an isometry group over GF(2).

For an involution s on a bilinear space, D(s) is the rank of s + Id, and
alpha(s) is the rank of the linear functional v |-> b(v, s v), restricted to
the hyperplane orthogonal to Omega when the dimension is odd.  On EVO spaces
every involution has a mirror companion m(s): v |-> s(v) + b(v, v) Omega; the
4-tuple DD(s) = [D(s), alpha(s), D(ms), alpha(ms)] classifies involutions up
to conjugacy within the isometry group.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, NamedTuple, Set, Tuple

from .bilinear import BilinearSpace, FormKind, Involution, omega_vector
from .f2 import ISOMETRY_BOUND, F2Matrix, involutive_isometries, isometries, orbit, rank


class DDTuple(NamedTuple):
    """The conjugacy invariant [d, alpha, d_tilde, alpha_tilde].  A tuple
    underneath, so it compares and hashes as one, in C."""

    d: int
    alpha: int
    d_tilde: int
    alpha_tilde: int

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"[{self.d},{self.alpha},{self.d_tilde},{self.alpha_tilde}]"


def mirror(inv: Involution) -> Involution:
    """The companion involution v |-> M v + b(v, v) Omega on EVO spaces.

    On orthonormal grams this flips every matrix entry; SYMP and ODDO
    involutions are their own mirrors.
    """
    if inv.space.kind != FormKind.EVO:
        return inv
    return Involution(inv.space, F2Matrix(_mirror_rows(inv.space, inv.matrix.rows), inv.space.dim))


def dd(inv: Involution) -> DDTuple:
    """The full invariant [D, alpha, D(mirror), alpha(mirror)], read off the
    packed rows of M and of its mirror; the mirror is never validated again."""
    space, rows = inv.space, inv.matrix.rows
    m = _mirror_rows(space, rows)
    return DDTuple(_d(rows), _alpha(space, rows), _d(m), _alpha(space, m))


# Spaces whose form data `_form` remembers; the DD oracle reads seven.
_FORM_CACHE_SIZE = 64


@lru_cache(maxsize=_FORM_CACHE_SIZE)
def _form(space: BilinearSpace) -> Tuple[int, int]:
    """What alpha and the mirror read off a space: diag(G) packed, and the
    rows the mirror changes, packed (Omega on EVO spaces, none on the
    others, which are their own mirrors)."""
    flips = omega_vector(space) if space.kind == FormKind.EVO else 0
    return space.gram.diag(), flips


def _d(rows: Tuple[int, ...]) -> int:
    """D of the matrix with these rows: the rank of M + Id."""
    return rank(F2Matrix(tuple(r ^ (1 << i) for i, r in enumerate(rows)), len(rows)))


def _alpha(space: BilinearSpace, rows: Tuple[int, ...]) -> int:
    """alpha of the matrix M with these rows, from the diagonal of G M: G is
    symmetric, so bit i of the XOR of rows[j] & G.rows[j] over j is
    sum_j M[j, i] G[i, j] = (G M)[i, i]."""
    f = 0
    for r, grow in zip(rows, space.gram.rows):
        f ^= r & grow
    if f == 0 or (space.dim % 2 and f == _form(space)[0]):
        return 0
    return 1


def _mirror_rows(space: BilinearSpace, rows: Tuple[int, ...]) -> Tuple[int, ...]:
    """The rows of the mirror of M: row i gains diag(G) where Omega_i = 1."""
    dg, flips = _form(space)
    if not flips:
        return rows
    return tuple(r ^ dg if flips >> i & 1 else r for i, r in enumerate(rows))


def dd_direct_sum(sym_part: DDTuple, r: int) -> DDTuple:
    """Invariant of (symplectic involution) + (r disjoint swaps of an orthonormal basis).

    The swap block alone has D = r and alpha = 0, and its mirror drops the
    rank by one exactly when r is odd; the symplectic summand contributes its
    own D and alpha unchanged.
    """
    if sym_part.d_tilde != sym_part.d or sym_part.alpha_tilde != sym_part.alpha:
        raise ValueError("first summand must carry symplectic bookkeeping (d~=d, a~=a)")
    if r < 1:
        raise ValueError("need at least one swap block (r=0 keeps the space symplectic)")
    d, a = sym_part.d, sym_part.alpha
    if r % 2:
        return DDTuple(d + r, a, d + r - 1, 1)
    return DDTuple(d + r, a, d + r, 1)


def block_swap_involution(space: BilinearSpace) -> Involution:
    """Pairwise swap of orthonormal basis vectors on an even orthogonal space:
    row i is 1 << (i ^ 1)."""
    n = space.dim
    if n % 2 or space.kind != FormKind.EVO:
        raise ValueError("block swaps live on even-dimensional orthogonal spaces")
    return Involution(space, F2Matrix(tuple(1 << (i ^ 1) for i in range(n)), n))


def involutions_in(space: BilinearSpace, bound: int = ISOMETRY_BOUND) -> Tuple[Involution, ...]:
    """Every involution in the isometry group, from the column search that
    holds G M symmetric, so no other isometry is visited."""
    return tuple(Involution(space, m) for m in involutive_isometries(space.gram, bound=bound))


def conjugacy_oracle(a: Involution, b: Involution, bound: int = ISOMETRY_BOUND) -> bool:
    """Whether some isometry P satisfies P^-1 a P = b, by exhaustive search."""
    if a.space.gram != b.space.gram:
        raise ValueError("involutions live on different spaces")
    return any(p.conjugates(a.matrix, b.matrix) for p in isometries(a.space.gram, bound=bound))


def _chain_transvections(space: BilinearSpace) -> List[F2Matrix]:
    """The 3g-1 transvections v |-> v + b(v,u) u, i.e. I + u (Gu)^T, along
    u = e_i, f_i (coordinates 2i, 2i+1) and f_i + f_{i+1}.  They include the
    mod-2 images of Humphries' 2g+1 Dehn twists, and Sp(2g, Z) -> Sp(2g, 2)
    is onto, so they generate Sp(2g, 2).  G is symmetric, so G u is the row
    product u G, and row i of a generator is 1 << i, plus G u where u_i = 1."""
    n = space.dim
    chain = [1 << i for i in range(n)] + [0b1010 << i for i in range(0, n - 2, 2)]
    gens = []
    for u in chain:
        gu = space.gram.mul_row(u)
        gens.append(F2Matrix(tuple((1 << i) ^ (gu if u >> i & 1 else 0) for i in range(n)), n))
    return gens


def _orthonormal_generators(n: int) -> List[F2Matrix]:
    """Adjacent transpositions, each the identity's rows with rows i and
    i + 1 swapped, plus for n >= 4 the 4x4 complement-of-identity block,
    which flips the low four bits of rows 0-3."""
    ident = tuple(1 << i for i in range(n))
    gens = [F2Matrix(ident, n)] if n == 1 else []
    for i in range(n - 1):
        gens.append(F2Matrix((*ident[:i], ident[i + 1], ident[i], *ident[i + 2:]), n))
    if n >= 4:
        gens.append(F2Matrix(tuple(r ^ 0b1111 if i < 4 else r for i, r in enumerate(ident)), n))
    return gens


def isometry_generators(space: BilinearSpace) -> List[F2Matrix]:
    """A generating set of the isometry group for the two standard grams.

    Orthonormal grams use permutations plus the complement-of-identity block;
    standard symplectic grams use the chain transvections.  Every generator
    is its own inverse.  Each standard gram is read off the rows that
    `bilinear.standard_space` writes, so no second space is built: row i is
    1 << i in the identity and 1 << (i ^ 1) in the hyperbolic planes (which
    an odd dimension cannot fill).
    """
    n, rows = space.dim, space.gram.rows
    if rows == tuple(1 << i for i in range(n)):
        return _orthonormal_generators(n)
    if rows == tuple(1 << (i ^ 1) for i in range(n)):
        return _chain_transvections(space)
    raise ValueError("generators are known for the standard orthogonal and symplectic grams only")


def _conjugation(g: F2Matrix) -> Callable[[Tuple[int, ...]], Tuple[int, ...]]:
    """The map from the rows of m to the rows of g m g, with no matrix built.
    The rows of m g come from the tables of g that this kernel holds; row i
    of g (m g) is the XOR of the rows of m g that row i of g picks: one for a
    permutation, a few for a transvection."""
    times_g = g.row_map()
    picks = [[j for j in range(g.ncols) if r >> j & 1] for r in g.rows]
    first = [p[0] for p in picks]
    extra = [(i, j) for i, p in enumerate(picks) for j in p[1:]]

    def conjugate(rows: Tuple[int, ...]) -> Tuple[int, ...]:
        mg = tuple(map(times_g, rows))
        out = [mg[j] for j in first]
        for i, j in extra:
            out[i] ^= mg[j]
        return tuple(out)

    return conjugate


def conjugacy_classes(space: BilinearSpace, bound: int = ISOMETRY_BOUND) -> List[List[Involution]]:
    """Partition of all involutions into conjugacy classes.

    Classes are the orbits of conjugation; closing each orbit under a
    generating set of the isometry group is an exhaustive search over the
    class without materializing every conjugator.  The generators are
    involutions, so g m g is the conjugate of m by g.  The closure walks
    packed row tuples through one conjugation kernel per generator; each
    class hands back the involutions that the search validated, sorted by
    rows.
    """
    invs = {inv.matrix.rows: inv for inv in involutions_in(space, bound=bound)}
    kernels = [_conjugation(g) for g in isometry_generators(space)]

    def images(rows: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        found = [k(rows) for k in kernels]
        # stop at the first step out, so a wrong kernel cannot roam GL(n, 2)
        if not all(r in invs for r in found):
            raise AssertionError("conjugation left the involution set")
        return found

    remaining = set(invs)
    classes: List[List[Involution]] = []
    while remaining:
        conjugates = orbit(next(iter(remaining)), images)
        if not conjugates <= remaining:
            raise AssertionError("conjugation left the involution set")
        remaining -= conjugates
        classes.append([invs[rows] for rows in sorted(conjugates)])
    return classes


def dd_classifies(space: BilinearSpace) -> bool:
    """Whether DD equality matches conjugacy for every pair of involutions."""
    seen: Set[Tuple[int, int, int, int]] = set()
    for cls in conjugacy_classes(space):
        vals = {dd(inv).as_tuple() for inv in cls}
        if len(vals) != 1:
            return False
        val = vals.pop()
        if val in seen:
            return False
        seen.add(val)
    return True


__all__ = [
    "DDTuple",
    "mirror",
    "dd",
    "dd_direct_sum",
    "block_swap_involution",
    "involutions_in",
    "conjugacy_oracle",
    "conjugacy_classes",
    "isometry_generators",
    "dd_classifies",
]
