"""Acceptance suite: one test per headline claim, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import pathlib
import random
import time
from contextlib import redirect_stdout

from c2surf.bilinear import standard_space
from c2surf.classify import (
    Action,
    count_actions,
    iter_actions,
    scherrer_admissible,
    taxonomy_cells,
)
from c2surf.cli import main as cli_main
from c2surf.counting import ab_sum_closed, phi_counts, total_count
from c2surf.dd import (
    conjugacy_classes,
    conjugacy_oracle,
    dd,
    involutions_in,
)
from c2surf.gl2 import Gl2Class, I2, IntMatrix2, S_REP, T_REP, gl2_class, gl2_reduce
from c2surf.orbits import orbit_census, verify_orthogonal_generators
from c2surf.words import Sign, Surface, normalize, parse_word, rewrite_equivalences
from c2surf.words import beta as word_beta
from c2surf.words import epsilon as word_epsilon
from c2surf.words import fixed_data, orientability, q_sign

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(number: int, label: str, ok: bool, elapsed: float) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} ({elapsed:6.2f}s) {label}")
    assert ok, f"criterion {number}: {label}"


def timed(fn):
    start = time.time()
    ok = fn()
    return ok, time.time() - start


def test_criterion_01_torus_counts():
    def check():
        return all(sum(1 for _ in iter_actions(Surface(True, g))) == 4 + 2 * g for g in range(101))

    ok, elapsed = timed(check)
    report(1, "torus counts 4+2g for g=0..100", ok and elapsed < 1.0, elapsed)


def test_criterion_02_nonorientable_counts():
    def check():
        for r in range(1, 201):
            if count_actions(Surface(False, r)) != total_count(Surface(False, r)):
                return False
        # the count-only walk matches the full action-by-action enumeration
        for r in list(range(1, 61)) + [120, 200]:
            if sum(1 for _ in iter_actions(Surface(False, r))) != total_count(Surface(False, r)):
                return False
        return True

    ok, elapsed = timed(check)
    report(2, "non-orientable counts match the closed form for r=1..200", ok and elapsed < 10.0, elapsed)


def test_criterion_03_counting_table():
    table = {
        2: (3, 5, 3, 2, 5),
        4: (7, 8, 9, 5, 14),
        6: (13, 14, 17, 10, 27),
        8: (22, 20, 28, 16, 44),
        10: (34, 30, 42, 25, 67),
        12: (50, 40, 60, 35, 95),
        14: (70, 55, 82, 49, 131),
        1: (0, 1, 0, 1, 1),
        3: (1, 2, 1, 2, 3),
        5: (3, 5, 3, 5, 8),
        7: (7, 8, 7, 8, 15),
        9: (13, 14, 13, 14, 27),
        11: (22, 20, 22, 20, 42),
        13: (34, 30, 34, 30, 64),
        15: (50, 40, 50, 40, 90),
    }

    def check():
        for r, (a, b, pm, pp, phi) in table.items():
            rep = phi_counts(r)
            if (rep.A, rep.B, rep.phi_minus, rep.phi_plus, rep.phi) != (a, b, pm, pp, phi):
                return False
        return phi_counts(13).phi == 64 and phi_counts(8).A == 22 and phi_counts(14).B == 55

    ok, elapsed = timed(check)
    report(3, "A/B/Phi reference table reproduced exactly for r=1..15", ok, elapsed)


def _normalize_ws(text: str) -> str:
    lines = [" ".join(line.split()) for line in text.strip().splitlines()]
    return "\n".join(line for line in lines if line)


def test_criterion_04_golden_tables():
    def check():
        for r in range(2, 8):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(["enumerate", f"N{r}", "--tables"])
            if code != 0:
                return False
            golden = (GOLDEN / f"N{r}.txt").read_text()
            if _normalize_ws(buf.getvalue()) != _normalize_ws(golden):
                return False
        # N6: 20 populated taxonomy rows carrying all 27 actions
        rows = [classes for _, _, _, classes in taxonomy_cells(Surface(False, 6)) if classes]
        if len(rows) != 20:
            return False
        return sum(map(len, rows)) == 27

    ok, elapsed = timed(check)
    report(4, "golden tables N2..N7 match row-for-row (N6: 20 rows, 27 actions)", ok, elapsed)


def test_criterion_05_orbit_census():
    def check():
        if orbit_census("orthogonal", 2) != 3:
            return False
        for n in range(3, 7):
            if orbit_census("orthogonal", n) != 4:
                return False
        return all(orbit_census("symplectic", n) == 2 for n in (2, 4, 6))

    ok, elapsed = timed(check)
    report(5, "orbit censuses (orthogonal 3/4, symplectic 2)", ok and elapsed < 60.0, elapsed)


def test_criterion_06_generator_verification():
    def check():
        return all(verify_orthogonal_generators(n) for n in range(1, 6))

    ok, elapsed = timed(check)
    report(6, "permutations(+block) generate the orthogonal group, n=1..5", ok, elapsed)


def test_criterion_07_dd_completeness():
    def check():
        cases = [("orthogonal", n) for n in range(2, 7)]
        cases += [("symplectic", n) for n in range(2, 7, 2)]
        for kind, n in cases:
            space = standard_space(kind, n)
            classes = conjugacy_classes(space, bound=6)
            seen = {}
            for idx, cls in enumerate(classes):
                values = {dd(inv).as_tuple() for inv in cls}
                if len(values) != 1:
                    return False
                value = values.pop()
                if value in seen:
                    return False
                seen[value] = idx
            # spot-check the partition against the exhaustive conjugator search
            if n <= 5:
                rng = random.Random(n)
                invs = involutions_in(space, bound=6)
                where = {inv.matrix: idx for idx, cls in enumerate(classes) for inv in cls}
                for _ in range(12):
                    a, b = rng.choice(invs), rng.choice(invs)
                    if conjugacy_oracle(a, b, bound=6) != (where[a.matrix] == where[b.matrix]):
                        return False
        return True

    ok, elapsed = timed(check)
    report(7, "DD equality = conjugacy for every involution pair, dims 2..6", ok and elapsed < 300.0, elapsed)


def test_criterion_08_dd_spot_values():
    klein = {
        "Triv(N2)": (0, 1, 1, 0),
        "S2a+DCC": (1, 0, 0, 1),
        "S21+DCC": (1, 0, 0, 1),
        "S2a+S11AT": (1, 0, 0, 1),
        "S22+S10AT": (0, 1, 1, 0),
        "S22+2FM": (0, 1, 1, 0),
    }
    torus = {
        "Triv(T1)": (0, 0, 0, 0),
        "Tanti(1)": (0, 0, 0, 0),
        "Trot(1)": (0, 0, 0, 0),
        "Tspit(1,4)": (0, 0, 0, 0),
        "Trefl(1,2)": (0, 0, 0, 0),
        "S2a+S10AT": (1, 1, 1, 1),
    }

    def check():
        for text, expected in {**klein, **torus}.items():
            value = Action.from_word(parse_word(text)).dd
            if value is None or value.as_tuple() != expected:
                return False
        for r in (6, 8, 10, 12):
            for c in range(1, r // 2 - 1):
                a = Action.from_word(parse_word(f"S2a+{r // 2 - c}DCC+{c}S10AT")).dd
                b = Action.from_word(parse_word(f"Tanti(1)+{r // 2 - c - 1}DCC+{c}S10AT")).dd
                if a is None or b is None:
                    return False
                if (a.d, a.alpha, a.alpha_tilde) != (b.d, b.alpha, b.alpha_tilde):
                    return False
                if abs(a.d_tilde - b.d_tilde) != 1:
                    return False
        return True

    ok, elapsed = timed(check)
    report(8, "DD spot values (Klein table, torus values, third-coordinate splits)", ok, elapsed)


def test_criterion_09_rewrite_soundness():
    def check():
        count = 0
        for rule in rewrite_equivalences():
            for u, v in rule(20):
                count += 1
                if word_beta(u) != word_beta(v) or fixed_data(u) != fixed_data(v):
                    return False
                if q_sign(u) != q_sign(v) or orientability(u) != orientability(v):
                    return False
                if word_epsilon(u) != word_epsilon(v):
                    return False
                fu, cpu, cmu = fixed_data(u)
                fv, cpv, cmv = fixed_data(v)
                if (fu + 2 * (cpu + cmu) - word_beta(u)) != (fv + 2 * (cpv + cmv) - word_beta(v)):
                    return False
                if (fu - cmu) % 2 != (fv - cmv) % 2:
                    return False
                if normalize(u) != normalize(v):
                    return False
        return count > 150

    ok, elapsed = timed(check)
    report(9, "rewrite instances (beta<=20) preserve invariants and merge", ok, elapsed)


def test_criterion_10_gl2_randomized():
    def check():
        rng = random.Random(42)
        for _ in range(10_000):
            rep = S_REP if rng.random() < 0.5 else T_REP
            q = I2
            for _ in range(rng.randint(1, 8)):
                lam = rng.randint(-5, 5)
                q = q @ (IntMatrix2(1, lam, 0, 1) if rng.random() < 0.5 else IntMatrix2(1, 0, lam, 1))
                if rng.random() < 0.3:
                    q = q @ T_REP
            m = q.inverse() @ rep @ q
            want = Gl2Class.S_CLASS if rep == S_REP else Gl2Class.T_CLASS
            if gl2_class(m) is not want:
                return False
            cls, witness = gl2_reduce(m)
            if cls is not want or witness.inverse() @ rep @ witness != m:
                return False
        return True

    ok, elapsed = timed(check)
    report(10, "10^4 randomized GL2 conjugates classify with verified witnesses", ok and elapsed < 30.0, elapsed)


def test_criterion_11_structural_properties():
    def check():
        for r in range(1, 61):
            per_signed = {}
            for a in iter_actions(Surface(False, r), include_trivial=False):
                tax = a.taxonomy
                if not scherrer_admissible(tax, r):
                    return False
                if tax.f == 1 and tax.c == 0:
                    return False  # a lone fixed point cannot occur
                per_signed[tax] = per_signed.get(tax, 0) + 1
            for tax, count in per_signed.items():
                expected = 1
                if r % 2 == 0 and r >= 4 and tax.f == 0 and tax.cminus == 0 and tax.q == Sign.MINUS:
                    c = tax.c
                    if c == 0:
                        expected = 2
                    elif c <= r // 2 - 2:
                        expected = 3
                    elif c == r // 2 - 1:
                        expected = 2
                    else:
                        expected = 1
                if count != expected:
                    return False
        for g in range(0, 31):
            for a in iter_actions(Surface(True, g), include_trivial=False):
                tax = a.taxonomy
                if not scherrer_admissible(tax, 2 * g):
                    return False
                if tax.f > 0 and tax.c > 0:
                    return False
                if tax.f == 1 and tax.c == 0:
                    return False
        return True

    ok, elapsed = timed(check)
    report(11, "structure: admissibility, fixed-set shapes, multiplicity schedule (r<=60)", ok, elapsed)


def test_counting_cross_checks():
    # supporting closed-form identities used throughout the suite
    start = time.time()
    ok = all(
        phi_counts(r).A + phi_counts(r).B == ab_sum_closed(r) for r in range(1, 301)
    )
    report(0, "A(r)+B(r) closed form agrees for r=1..300", ok, time.time() - start)
