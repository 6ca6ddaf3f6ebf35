"""Free involutions and their characteristic classes.

A free involution is a double cover of its quotient, hence a nonzero class
in H^1(quotient; Z/2) up to the mapping class group -- which acts through
the full isometry group of the intersection form.  Counting isometry orbits
therefore counts free actions.  Each free involution is a surgery word: an
antipodal or rotation base plus crosscap pairs.
"""

from c2surf.orbits import (
    characteristic_class,
    classify_free_structures,
    covers_of,
    orbit_census,
    orthogonal_orbit,
    verify_orthogonal_generators,
)
from c2surf.words import Surface, format_word, underlying_surface


def main() -> None:
    print("Orbits of the isometry groups on GF(2)^n:")
    for n in range(2, 7):
        print(f"  orthogonal n={n}: {orbit_census('orthogonal', n)} orbits")
    for n in (2, 4, 6):
        print(f"  symplectic n={n}: {orbit_census('symplectic', n)} orbits")

    print("\nPermutations (+ one 4x4 block) generate the orthogonal group:")
    for n in range(1, 6):
        print(f"  n={n}: {verify_orthogonal_generators(n)}")

    print("\nSample orbit labels:")
    for coords in ([1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]):
        v = sum(c << i for i, c in enumerate(coords))
        print(f"  {coords} -> {orthogonal_orbit(v, len(coords)).value}")

    print("\nFree actions covering N_5 (one per isometry orbit):")
    for w in covers_of(Surface(False, 5)):
        bits, n = characteristic_class(w)
        print(
            f"  {format_word(w)}: class {[bits >> i & 1 for i in range(n)]} in orbit {orthogonal_orbit(bits, n).value}, "
            f"total space {underlying_surface(w).name}"
        )

    print("\nFree involutions on the surfaces themselves:")
    for surf in (Surface(True, 3), Surface(True, 4), Surface(False, 6), Surface(False, 7)):
        names = [format_word(w) for w in classify_free_structures(surf)] or ["none"]
        print(f"  {surf.name}: {', '.join(names)}")

if __name__ == "__main__":
    main()
