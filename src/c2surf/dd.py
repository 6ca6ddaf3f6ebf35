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
from .f2 import ISOMETRY_BOUND, F2Matrix, conjugators, echelon, involutive_isometries, isometries, orbit


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
    """The companion involution v |-> M v + b(v, v) Omega on EVO spaces:
    row i of M gains diag(G) where Omega_i = 1.

    On orthonormal grams this flips every matrix entry; SYMP and ODDO
    involutions are their own mirrors.
    """
    _, dg, flips, _ = _form(inv.space)
    if not flips:
        return inv
    rows = tuple(r ^ dg if flips >> i & 1 else r for i, r in enumerate(inv.matrix.rows))
    return Involution(inv.space, F2Matrix(rows, inv.space.dim))


def dd(inv: Involution) -> DDTuple:
    """The full invariant [D, alpha, D(mirror), alpha(mirror)], read off the
    packed rows of M and of its mirror (row i gains diag(G) where Omega_i =
    1, as in `mirror`) in one pass over the rows; the mirror is never
    validated.  D is the rank of M + Id, by forward elimination on the packed
    rows.  alpha reads the diagonal f of G M: G is symmetric, so bit i of the
    XOR of rows[j] & G.rows[j] over j is sum_j M[j, i] G[i, j] = (G M)[i, i],
    and alpha = 0 when f is 0 or, in odd dimension, diag(G)."""
    grows, dg, flips, odd_diag = _form(inv.space)
    f = fm = 0
    plus_id, mirror_plus_id = [], []
    for i, (r, g) in enumerate(zip(inv.matrix.rows, grows)):
        bit = 1 << i
        f ^= r & g
        plus_id.append(r ^ bit)
        if flips & bit:
            r ^= dg
        fm ^= r & g
        mirror_plus_id.append(r ^ bit)
    return DDTuple(
        len(echelon(plus_id)),
        0 if f == 0 or f == odd_diag else 1,
        len(echelon(mirror_plus_id)),
        0 if fm == 0 or fm == odd_diag else 1,
    )


# Spaces whose form data `_form` remembers; the DD oracle reads seven.
_FORM_CACHE_SIZE = 64


@lru_cache(maxsize=_FORM_CACHE_SIZE)
def _form(space: BilinearSpace) -> Tuple[Tuple[int, ...], int, int, int]:
    """What alpha and the mirror read off a space: the gram's rows, diag(G)
    packed, the rows the mirror changes, packed (Omega on EVO spaces, none on
    the others, which are their own mirrors), and the diagonal of G M that
    gives alpha = 0 besides 0: diag(G) in odd dimension, 0 in even."""
    dg = space.gram.diag()
    flips = omega_vector(space) if space.kind == FormKind.EVO else 0
    return space.gram.rows, dg, flips, dg if space.dim % 2 else 0


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
    """Whether some isometry P satisfies P^-1 a P = b, by exhaustive search:
    the scan runs through the whole group up to the first conjugator."""
    if a.space.gram != b.space.gram:
        raise ValueError("involutions live on different spaces")
    return next(conjugators(a.matrix, b.matrix, isometries(a.space.gram, bound=bound)), None) is not None


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
    permutation, whose kernel maps only the row it picks, a few for a
    transvection."""
    times_g = g.row_map()
    picks = [[j for j in range(g.ncols) if r >> j & 1] for r in g.rows]
    first = [p[0] for p in picks]
    extra = [(i, j) for i, p in enumerate(picks) for j in p[1:]]

    def permute(rows: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple([times_g(rows[j]) for j in first])

    def conjugate(rows: Tuple[int, ...]) -> Tuple[int, ...]:
        mg = tuple(map(times_g, rows))
        out = [mg[j] for j in first]
        for i, j in extra:
            out[i] ^= mg[j]
        return tuple(out)

    return conjugate if extra else permute


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
        # stop at the first step out, so a wrong kernel cannot roam GL(n, 2);
        # one C-level scan of the dict, with no second set of the involutions
        if not all(map(invs.__contains__, found)):
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
