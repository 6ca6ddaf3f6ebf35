"""Listing every involution on small surfaces.

Each action is a surgery word: a base equivariant surface plus crosscap
pairs (DCC), dual tori (DT), three kinds of antitube, and fixed-point-to-
Moebius trades (FM).  The enumeration emits one representative per
isomorphism class, organised by taxonomy [F, C:(C+,C-)] and quotient sign.
"""

from c2surf.classify import cell_label, iter_actions, taxonomy_cells
from c2surf.words import Sign, Surface, format_word


def main() -> None:
    print("The six involutions on the torus T_1:")
    for action in iter_actions(Surface(True, 1)):
        tax = repr(action.taxonomy) if action.taxonomy else "(trivial)"
        print(f"  {format_word(action.word):<14} {tax}")

    print("\nThe Klein bottle N_2, nontrivial actions:")
    for action in iter_actions(Surface(False, 2), include_trivial=False):
        print(
            f"  {format_word(action.word):<12} {action.taxonomy!r:<16} "
            f"eps={action.epsilon.value:<7} dd={action.dd}"
        )

    print("\nN_6 grouped by taxonomy (sign columns -/+):")
    for f, cplus, cminus, classes in taxonomy_cells(Surface(False, 6)):
        if not classes:
            continue
        left = ", ".join(word for q, word, _, _ in classes if q is Sign.MINUS) or "-"
        right = ", ".join(word for q, word, _, _ in classes if q is Sign.PLUS) or "-"
        print(f"  {cell_label(f, cplus, cminus):<12} {left:<55} | {right}")

    phi = sum(len(classes) for _, _, _, classes in taxonomy_cells(Surface(False, 6)))
    print(f"\n  ...{phi} nontrivial actions on N_6 in total.")


if __name__ == "__main__":
    main()
