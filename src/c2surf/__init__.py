"""Involutions on closed surfaces: enumeration, counting, and invariants.

The package classifies order-two actions on T_g and N_r up to equivariant
isomorphism.  Actions are represented by surgery words (`c2surf.words`),
enumerated surface by surface (`c2surf.classify`), counted in closed form
(`c2surf.counting`), and separated by fixed-point data, quotient sign,
separation behaviour, and the double Dickson invariant of the induced map on
mod-2 cohomology (`c2surf.dd`).  Supporting exact GF(2) linear algebra lives
in `c2surf.f2`, free actions and vector orbits in `c2surf.orbits`, and the
mapping-class comparison for GL_2(Z) in `c2surf.gl2`.
"""

from .classify import (
    Action,
    Taxonomy,
    decide_isomorphic,
    iter_actions,
    scherrer_admissible,
)
from .counting import phi_counts, total_count
from .dd import DDTuple
from .words import Surface, SurgeryWord, parse_word, format_word

__all__ = [
    "Action",
    "Taxonomy",
    "decide_isomorphic",
    "iter_actions",
    "scherrer_admissible",
    "phi_counts",
    "total_count",
    "DDTuple",
    "Surface",
    "SurgeryWord",
    "parse_word",
    "format_word",
]

__version__ = "0.1.0"
