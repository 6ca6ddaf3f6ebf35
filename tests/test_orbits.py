import pytest

from c2surf.f2 import F2Matrix, F2Vector, isometries
from c2surf.orbits import (
    OrthOrbit,
    SymplecticOrbit,
    brute_orbit_partition,
    characteristic_class,
    classify_free_structures,
    content,
    covers_of,
    orbit_census,
    orthogonal_orbit,
    quotient_space,
    symplectic_orbit,
    verify_orthogonal_generators,
)
from c2surf.words import Surface, parse_word, underlying_surface


def v(*coords):
    return F2Vector.from_bits(coords)


def test_content():
    assert content(F2Vector(0, 4)) == 0
    assert content(v(1, 1, 1)) == 1
    assert content(v(1, 1, 0, 0)) == 0


def test_content_preserved_by_orthogonal_group():
    for n in (2, 3, 4):
        for m in isometries(F2Matrix.identity(n)):
            for bits in range(1 << n):
                vec = F2Vector(bits, n)
                assert content(m.mul_vec(vec)) == content(vec)


def test_orthogonal_orbit_representatives():
    assert orthogonal_orbit(v(1, 0, 0)) == OrthOrbit.A1
    assert orthogonal_orbit(v(1, 1, 0, 0)) == OrthOrbit.A2
    assert orthogonal_orbit(v(1, 1, 1)) == OrthOrbit.OMEGA
    assert orthogonal_orbit(F2Vector(0, 5)) == OrthOrbit.ZERO
    # n = 2 merge: [1,1] is the all-ones vector
    assert orthogonal_orbit(v(1, 1)) == OrthOrbit.OMEGA
    with pytest.raises(ValueError):
        orthogonal_orbit(v(1))


def test_symplectic_orbit():
    assert symplectic_orbit(F2Vector(0, 4)) == SymplecticOrbit.ZERO
    assert symplectic_orbit(v(1, 0, 0, 0)) == SymplecticOrbit.NONZERO
    assert symplectic_orbit(v(1, 1, 1, 1)) == SymplecticOrbit.NONZERO
    with pytest.raises(ValueError):
        symplectic_orbit(v(1, 0, 0))


def test_orbit_label_agrees_with_brute_force():
    for n in (2, 3, 4, 5, 6):
        labels = brute_orbit_partition("orthogonal", n)
        for bits in range(1 << n):
            for other in range(1 << n):
                same_label = labels[bits] == labels[other]
                same_orbit = orthogonal_orbit(F2Vector(bits, n)) == orthogonal_orbit(
                    F2Vector(other, n)
                )
                assert same_label == same_orbit
    labels = brute_orbit_partition("symplectic", 4)
    assert len(set(labels.values())) == 2


def test_orbit_census():
    assert orbit_census("orthogonal", 2) == 3
    assert orbit_census("orthogonal", 5) == 4
    assert orbit_census("symplectic", 4) == 2


def test_verify_orthogonal_generators():
    for n in range(1, 6):
        assert verify_orthogonal_generators(n)
    with pytest.raises(ValueError):
        verify_orthogonal_generators(9)


def words(*texts):
    return [parse_word(t) for t in texts]


def test_characteristic_classes():
    assert characteristic_class(parse_word("Tanti(2)")) == v(1, 1, 1)
    assert characteristic_class(parse_word("S2a+3DCC")) == v(1, 0, 0, 0)
    assert characteristic_class(parse_word("Trot(1)+DCC")) == v(1, 1, 0)
    assert characteristic_class(parse_word("Tanti(3)+2DCC")) == v(1, 1, 1, 1, 0, 0)
    # T1 and S2a follow the antipodal block of g + 1 ones
    assert characteristic_class(parse_word("Tanti(1)+2DCC")) == v(1, 1, 0, 0)
    assert characteristic_class(parse_word("S2a")) == v(1)
    assert characteristic_class(parse_word("Trot(3)")) == v(1, 0, 0, 0)


@pytest.mark.parametrize(
    "text",
    ["S22", "S21+DCC", "Trefl(1,2)", "Tspit(1,4)", "S2a+S11AT", "Tanti(2)+DT", "S2a+S1aAT",
     "Trot(1)+S10AT", "Triv(T2)"],
)
def test_characteristic_class_rejects_other_words(text):
    # fixed points, other surgeries, or a trivial action: not base + s DCC on a free base
    with pytest.raises(ValueError):
        characteristic_class(parse_word(text))
    with pytest.raises(ValueError):
        quotient_space(parse_word(text))


def test_covers_of():
    n3 = covers_of(Surface(False, 3))
    assert n3 == words("Tanti(2)", "S2a+2DCC", "Tanti(1)+DCC")
    classes = [characteristic_class(w) for w in n3]
    orbits = [orthogonal_orbit(c) for c in classes]
    assert set(orbits) == {OrthOrbit.OMEGA, OrthOrbit.A1, OrthOrbit.A2}
    assert covers_of(Surface(True, 2)) == [parse_word("Trot(3)")]
    assert covers_of(Surface(True, 1)) == [parse_word("Trot(1)")]
    assert covers_of(Surface(False, 2)) == words("Tanti(1)", "S2a+DCC")
    assert covers_of(Surface(False, 1)) == [parse_word("S2a")]
    with pytest.raises(ValueError):
        covers_of(Surface(True, 0))


def test_covers_distinguished_by_orbit():
    for r in range(1, 9):
        quotient = Surface(False, r)
        covers = covers_of(quotient)
        assert all(quotient_space(w) == quotient for w in covers)
        orbits = [orthogonal_orbit(characteristic_class(w)) for w in covers if r >= 2]
        assert len(set(orbits)) == len(orbits)
    for g in range(1, 6):
        assert [quotient_space(w) for w in covers_of(Surface(True, g))] == [Surface(True, g)]


def test_classify_free_structures():
    assert classify_free_structures(Surface(False, 3)) == []
    assert classify_free_structures(Surface(False, 5)) == []
    assert classify_free_structures(Surface(True, 3)) == words("Tanti(3)", "Trot(3)")
    assert classify_free_structures(Surface(True, 4)) == words("Tanti(4)")
    assert classify_free_structures(Surface(True, 0)) == words("S2a")
    assert classify_free_structures(Surface(False, 6)) == words("S2a+3DCC", "Tanti(1)+2DCC")
    assert classify_free_structures(Surface(False, 2)) == words("S2a+DCC")


def test_free_structures_distinct_and_on_the_right_surface():
    for x in [Surface(False, r) for r in (2, 4, 6, 8, 10)] + [Surface(True, g) for g in range(6)]:
        found = classify_free_structures(x)
        for w in found:
            assert underlying_surface(w) == x
        if x.orientable:
            continue
        orbits = [orthogonal_orbit(characteristic_class(w)) for w in found]
        assert len(set(orbits)) == len(found)


FREE_SAMPLES = [
    "Tanti(2)",
    "Tanti(4)+3DCC",
    "S2a",
    "S2a+5DCC",
    "Tanti(1)",
    "Tanti(1)+4DCC",
    "Trot(1)",
    "Trot(3)",
    "Trot(3)+2DCC",
    "Trot(5)",
    "Trot(3)+DCC",
    "Tanti(2)+DCC",
]


def test_euler_characteristic_doubling():
    for w in words(*FREE_SAMPLES):
        chi_total = 2 - underlying_surface(w).beta
        chi_quot = 2 - quotient_space(w).beta
        assert chi_total == 2 * chi_quot


def test_characteristic_class_dimension_matches_quotient():
    for w in words(*FREE_SAMPLES):
        assert characteristic_class(w).n == quotient_space(w).beta
