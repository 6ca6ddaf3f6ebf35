import pytest

from c2surf.f2 import F2Matrix, F2Vector, isometries
from c2surf.orbits import (
    FreeActionDescriptor,
    FreeKind,
    OrthOrbit,
    SymplecticOrbit,
    brute_orbit_partition,
    characteristic_class,
    classify_free_structures,
    content,
    covers_of,
    orbit_census,
    orthogonal_orbit,
    symplectic_orbit,
    tg_anti,
    verify_orthogonal_generators,
)
from c2surf.words import Surface


def v(*coords):
    return F2Vector.from_bits(coords)


def test_content():
    assert content(F2Vector.zero(4)) == 0
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
    assert orthogonal_orbit(F2Vector.zero(5)) == OrthOrbit.ZERO
    # n = 2 merge: [1,1] is the all-ones vector
    assert orthogonal_orbit(v(1, 1)) == OrthOrbit.OMEGA
    with pytest.raises(ValueError):
        orthogonal_orbit(v(1))


def test_symplectic_orbit():
    assert symplectic_orbit(F2Vector.zero(4)) == SymplecticOrbit.ZERO
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


def test_characteristic_classes():
    assert characteristic_class(tg_anti(2)) == v(1, 1, 1)
    assert characteristic_class(FreeActionDescriptor(FreeKind.S2A_DCC, 0, 3)) == v(1, 0, 0, 0)
    assert characteristic_class(FreeActionDescriptor(FreeKind.TG_ROT, 1, 1)) == v(1, 1, 0)
    assert characteristic_class(tg_anti(3, 2)) == v(1, 1, 1, 1, 0, 0)


def test_covers_of():
    n3 = covers_of(Surface(False, 3))
    assert len(n3) == 3
    classes = [characteristic_class(d) for d in n3]
    orbits = [orthogonal_orbit(c) for c in classes]
    assert set(orbits) == {OrthOrbit.OMEGA, OrthOrbit.A1, OrthOrbit.A2}
    assert len(covers_of(Surface(True, 2))) == 1
    assert covers_of(Surface(True, 2))[0].kind == FreeKind.TG_ROT
    assert covers_of(Surface(True, 2))[0].g == 3
    assert len(covers_of(Surface(False, 2))) == 2
    assert len(covers_of(Surface(False, 1))) == 1
    with pytest.raises(ValueError):
        covers_of(Surface(True, 0))


def test_covers_distinguished_by_orbit():
    for r in range(3, 9):
        descs = covers_of(Surface(False, r))
        orbits = [orthogonal_orbit(characteristic_class(d)) for d in descs]
        assert len(set(orbits)) == len(descs)


def test_classify_free_structures():
    assert classify_free_structures(Surface(False, 3)) == []
    assert classify_free_structures(Surface(False, 5)) == []
    assert len(classify_free_structures(Surface(True, 3))) == 2
    assert len(classify_free_structures(Surface(True, 4))) == 1
    n6 = classify_free_structures(Surface(False, 6))
    assert {(d.kind, d.s) for d in n6} == {
        (FreeKind.S2A_DCC, 3),
        (FreeKind.T1_ANTI_DCC, 2),
    }
    assert len(classify_free_structures(Surface(False, 2))) == 1


def test_free_structures_distinct_and_on_the_right_surface():
    for r in (2, 4, 6, 8, 10):
        descs = classify_free_structures(Surface(False, r))
        for d in descs:
            assert d.total_space() == Surface(False, r)
        orbits = [orthogonal_orbit(characteristic_class(d)) for d in descs]
        assert len(set(orbits)) == len(descs)


def test_euler_characteristic_doubling():
    samples = [
        tg_anti(2, 0),
        tg_anti(4, 3),
        FreeActionDescriptor(FreeKind.S2A_DCC, 0, 5),
        FreeActionDescriptor(FreeKind.T1_ANTI_DCC, 1, 4),
        FreeActionDescriptor(FreeKind.TG_ROT, 3, 0),
        FreeActionDescriptor(FreeKind.TG_ROT, 3, 2),
    ]
    for d in samples:
        chi_total = 2 - d.total_space().beta
        chi_quot = 2 - d.quotient_space().beta
        assert chi_total == 2 * chi_quot


def test_characteristic_class_dimension_matches_quotient():
    samples = [
        tg_anti(2, 1),
        FreeActionDescriptor(FreeKind.S2A_DCC, 0, 4),
        FreeActionDescriptor(FreeKind.T1_ANTI_DCC, 1, 2),
        FreeActionDescriptor(FreeKind.TG_ROT, 5, 0),
        FreeActionDescriptor(FreeKind.TG_ROT, 3, 1),
    ]
    for d in samples:
        assert characteristic_class(d).n == d.quotient_space().beta
