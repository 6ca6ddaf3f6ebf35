"""The double Dickson invariant, from linear algebra to topology.

An involution of a surface acts on H^1(X; Z/2) as an isometry of the cup
product form.  Involutions in such an isometry group are classified up to
conjugacy by a 4-tuple DD = [D, alpha, D(mirror), alpha(mirror)]; this script
verifies the classification by brute force on small spaces and then uses DD
to separate two free-action families that share every coarser invariant.
"""

from c2surf.bilinear import Involution, standard_space
from c2surf.classify import Action
from c2surf.dd import conjugacy_classes, dd, involutions_in, mirror
from c2surf.f2 import F2Matrix
from c2surf.words import format_word, parse_word


def main() -> None:
    evo4 = standard_space("orthogonal", 4)
    swap = Involution(
        evo4, F2Matrix.permutation([1, 0, 3, 2])
    )  # swap two pairs of basis vectors
    print("A block swap on the 4-dimensional orthogonal space:")
    print(f"  matrix {swap.matrix!r}")
    print(f"  mirror {mirror(swap).matrix!r}   (entries flip on orthonormal grams)")
    print(f"  DD = {dd(swap)}")

    print("\nConjugacy classes vs DD values on small isometry groups:")
    for kind, dim in (("orthogonal", 4), ("orthogonal", 5), ("symplectic", 4)):
        space = standard_space(kind, dim)
        classes = conjugacy_classes(space)
        values = sorted({repr(dd(cls[0])) for cls in classes})
        print(
            f"  {kind} dim {dim}: {len(involutions_in(space))} involutions, "
            f"{len(classes)} classes, DD values {values}"
        )

    print("\nSeparating the two free-action families on N_12 with C = 2 tubes:")
    a = parse_word("S2a+4DCC+2S10AT")
    b = parse_word("Tanti(1)+3DCC+2S10AT")
    print(f"  {format_word(a):<22} DD = {Action.from_word(a).dd}")
    print(f"  {format_word(b):<22} DD = {Action.from_word(b).dd}")
    print("  same taxonomy, same separation class; the third coordinate differs.")


if __name__ == "__main__":
    main()
