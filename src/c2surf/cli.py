"""Command-line front end: counting, enumeration, invariant queries, and
verification runs.

Exit codes: 0 success, 2 usage/parse error, 3 domain violation,
4 verification failure, 130 interrupted (Ctrl-C), 141 stdout closed by
the reader (128 + SIGPIPE, nothing printed).
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from typing import Iterable, Optional, Sequence, Tuple

from . import classify, counting, gl2, orbits, words
from .bilinear import standard_space
from .dd import dd_classifies
from .f2 import ISOMETRY_BOUND
from .classify import Action
from .words import Epsilon, Sign, Surface, WordSyntaxError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_surface_range(spec: str) -> Tuple[bool, range]:
    """``T3``, ``N7``, or an inclusive range like ``N2..N7``, as the family
    (orientable or not) and its range of genera.  Only the two ends are
    parsed and checked, so a caller builds each surface when it reaches it."""
    lo_text, dots, hi_text = spec.partition("..")
    lo = hi = Surface.parse(lo_text.strip())
    if dots:
        hi_text = hi_text.strip()
        if hi_text and hi_text[0] not in "TN":
            hi_text = ("T" if lo.orientable else "N") + hi_text
        hi = Surface.parse(hi_text)
        if lo.orientable != hi.orientable or hi.genus < lo.genus:
            raise WordSyntaxError(f"bad surface range {spec!r}")
    return lo.orientable, range(lo.genus, hi.genus + 1)


def _fmt_dd(value) -> str:
    return ",".join(map(str, value))


def _write_classes(surface: Surface, fmt: str, trivial: bool) -> None:
    """Print the surface's classes from the rows of `taxonomy_cells`, one
    write per F group (a surface can hold a few hundred thousand lines, an F
    group a few thousand).  A line is one concatenation: a prefix fixed per
    surface, the word, the row's head and a tail in a record; the head, the
    tail and the word in a plain line.  A tail holds the sign, ε and DD, and
    each distinct one is built once a call.  `trivial` writes the identity's
    line first; `fmt` "tables" writes the appendix table, one row a write."""
    name, write = surface.name, sys.stdout.write
    rows = classify.taxonomy_cells(surface)
    if fmt == "tables":
        write(f"{name} | - | + | - | +\n")
        for f, cp, cm, classes in rows:
            if classes:
                by_sign = [[word for q, word, _, _ in classes if q is sign] for sign in (Sign.MINUS, Sign.PLUS)]
                counts = [str(len(ws)) if ws else "" for ws in by_sign]
                write(" | ".join([classify.cell_label(f, cp, cm), *counts, *map(", ".join, by_sign)]) + "\n")
        write("\n")
        return
    record, tails = fmt == "record", {}

    def tail(q: str, eps: Epsilon, dd) -> str:
        e, d = eps.text, _fmt_dd(dd)
        text = f"{q} eps={e} dd={d}\n" if record else f",{q}] eps={e} dd={d} "
        return tails.setdefault((q, e, dd), text)

    prefix = f"surface={name} word="
    if trivial:
        a = classify.trivial_action(surface)
        word, d = words.format_word(a.word), _fmt_dd(a.dd)
        write(f"{prefix}{word} F=NA C=NA C+=NA C-=NA Q=NA eps=NA dd={d}\n" if record
              else f"{name} trivial eps=- dd={d} {word}\n")
    group, group_f = [], None
    for f, cp, cm, classes in rows:
        if f != group_f:
            if group:
                write("".join(group))
            group, group_f = [], f
        if record:
            head = f" F={f} C={cp + cm} C+={cp} C-={cm} Q="
            group += [prefix + word + head + (tails.get((q.text, eps.text, dd)) or tail(q.text, eps, dd))
                      for q, word, eps, dd in classes]
        else:
            head = f"{name} [{classify.cell_label(f, cp, cm)}"
            group += [head + (tails.get((q.text, eps.text, dd)) or tail(q.text, eps, dd)) + word + "\n"
                      for q, word, eps, dd in classes]
    write("".join(group))


def cmd_count(args: argparse.Namespace) -> int:
    """Builds the whole answer before the first write, so a failure writes nothing."""
    orientable, genera = _parse_surface_range(args.surfaces)
    with_total = args.include_trivial
    if orientable:
        lines = ["g total nontrivial" if with_total else "g nontrivial"]
        for g in genera:
            total = counting.total_count(Surface(True, g))
            lines.append(f"T{g} {total} {total - 1}" if with_total else f"T{g} {total - 1}")
    else:
        lines = ["r A B Phi- Phi+ Phi total" if with_total else "r A B Phi- Phi+ Phi"]
        for r in genera:
            rep = counting.phi_counts(r)
            row = f"N{rep.r} {rep.A} {rep.B} {rep.phi_minus} {rep.phi_plus} {rep.phi}"
            lines.append(f"{row} {rep.total}" if with_total else row)
    print("\n".join(lines))
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.tables and (args.format == "record" or args.include_trivial):
        raise CliError("enumerate --tables takes neither --format record nor --include-trivial", EXIT_USAGE)
    orientable, genera = _parse_surface_range(args.surfaces)
    if args.tables and orientable:
        raise CliError("tables are defined for N_r only", EXIT_USAGE)
    for g in genera:
        _write_classes(Surface(orientable, g), "tables" if args.tables else args.format, args.include_trivial)
    return EXIT_OK


def cmd_invariants(args: argparse.Namespace) -> int:
    """Builds the whole answer before the first write, so a failure writes nothing."""
    w = words.parse_word(args.word)
    action = Action.from_word(w)
    t = action.taxonomy
    lines = [f"word={words.format_word(w)}", f"beta={words.beta(w)}", f"surface={action.surface.name}"]
    lines += [f"taxonomy={t!r}", f"eps={action.epsilon.value}"] if t else ["taxonomy=trivial"]
    print("\n".join(lines + [f"dd={_fmt_dd(action.dd)}"]))
    return EXIT_OK


def cmd_gl2(args: argparse.Namespace) -> int:
    m = gl2.IntMatrix2(args.a, args.b, args.c, args.d)
    cls = gl2.gl2_class(m)
    print(cls.value)
    if cls in (gl2.Gl2Class.S_CLASS, gl2.Gl2Class.T_CLASS):
        _, witness = gl2.gl2_reduce(m)
        print(f"witness {witness!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _check_range(flag: str, value: int, lo: int, hi: Optional[int], why: str) -> None:
    """Reject a suite size up front; ``hi`` None means no upper bound."""
    if value < lo or (hi is not None and value > hi):
        bounds = f"lie in {lo}..{hi}" if hi is not None else f"be at least {lo}"
        raise CliError(f"{flag} must {bounds} ({why})", EXIT_USAGE)


def _verify_orbits(n: int) -> Iterable[Tuple[str, bool]]:
    _check_range("--n", n, 2, orbits.CENSUS_BOUND, "census bound")
    for dim in range(2, n + 1):
        expected = 3 if dim == 2 else 4
        got = orbits.orbit_census("orthogonal", dim)
        yield f"census orthogonal n={dim}: {got} orbits (expect {expected})", got == expected
    for dim in range(2, n + 1, 2):
        got = orbits.orbit_census("symplectic", dim)
        yield f"census symplectic n={dim}: {got} orbits (expect 2)", got == 2


def _verify_generators(n: int) -> Iterable[Tuple[str, bool]]:
    _check_range("--n", n, 1, ISOMETRY_BOUND, "exhaustive-search bound")
    for dim in range(1, n + 1):
        ok = orbits.verify_orthogonal_generators(dim)
        yield f"orthogonal group generated by permutations(+block) n={dim}", ok


def _verify_dd(max_dim: int) -> Iterable[Tuple[str, bool]]:
    _check_range("--max-dim", max_dim, 2, ISOMETRY_BOUND, "exhaustive-search bound")
    for n in range(2, max_dim + 1):
        space = standard_space("orthogonal", n)
        yield f"DD classifies orthogonal dim {n}", dd_classifies(space)
    for n in range(2, max_dim + 1, 2):
        space = standard_space("symplectic", n)
        yield f"DD classifies symplectic dim {n}", dd_classifies(space)


def _verify_counts(max_r: int) -> Iterable[Tuple[str, bool]]:
    _check_range("--max-r", max_r, 1, None, "counts start at N1")
    ok, why = True, ""
    for r in range(1, max_r + 1):
        try:
            rep = counting.phi_counts(r)
            ok = (
                counting.paths_agree(r)
                and rep.A + rep.B == counting.ab_sum_closed(r)
                and rep.total == counting.total_count(Surface(False, r))
            )
        except counting.CountMismatch as exc:
            ok, why = False, f": {exc}"
        if not ok:
            break
    label = f"three-way A/B agreement and totals r<={max_r}"
    yield (label if ok else f"{label}: off at r={r}{why}"), ok
    enum_max = min(max_r, 80)
    surfaces = [Surface(False, r) for r in range(1, enum_max + 1)]
    ok2 = all(classify.count_actions(s) == counting.total_count(s) for s in surfaces)
    yield f"enumeration count matches closed form r<={enum_max}", ok2


def _verify_gl2(trials: int, seed: int) -> Iterable[Tuple[str, bool]]:
    _check_range("--trials", trials, 1, None, "a run needs a trial")
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        rep = gl2.S_REP if rng.random() < 0.5 else gl2.T_REP
        q = gl2.I2
        for _ in range(rng.randint(1, 8)):
            lam = rng.randint(-4, 4)
            q = q @ (gl2.IntMatrix2(1, lam, 0, 1) if rng.random() < 0.5 else gl2.IntMatrix2(1, 0, lam, 1))
            if rng.random() < 0.3:
                q = q @ gl2.T_REP
        m = q.inverse() @ rep @ q
        cls, witness = gl2.gl2_reduce(m)
        want = gl2.Gl2Class.S_CLASS if rep == gl2.S_REP else gl2.Gl2Class.T_CLASS
        if cls is not want or witness.inverse() @ rep @ witness != m:
            ok = False
            break
    yield f"randomized GL2 witnesses x{trials}", ok


def _verify_rewrites(max_beta: int) -> Iterable[Tuple[str, bool]]:
    _check_range("--max-beta", max_beta, 6, None, "the least bound with an instance of every rule")
    for rule in words.rewrite_equivalences():
        ok = all(_rewrite_pair_ok(u, v) for u, v in rule(max_beta))
        yield f"rewrite rule {rule.__name__} (beta<={max_beta})", ok


def _rewrite_pair_ok(u: words.SurgeryWord, v: words.SurgeryWord) -> bool:
    invariants = (words.beta, words.fixed_data, words.q_sign, words.orientability, words.epsilon)
    return all(f(u) == f(v) for f in invariants) and words.normalize(u) == words.normalize(v)


# The suites of `verify`: each one's check and the flags it reads, with their
# defaults.  A flag the suite does not read is a usage error.
_SUITES = {
    "orbits": (_verify_orbits, {"n": 5}),
    "generators": (_verify_generators, {"n": 5}),
    "dd": (_verify_dd, {"max_dim": 5}),
    "counts": (_verify_counts, {"max_r": 100}),
    "gl2": (_verify_gl2, {"trials": 1000, "seed": 0}),
    "rewrites": (_verify_rewrites, {"max_beta": 14}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in _SUITES:
        raise CliError(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)}", EXIT_USAGE)
    check, reads = _SUITES[args.suite]
    given = {k: v for k, v in vars(args).items() if k not in ("command", "func", "suite")}
    foreign = [_flag(k) for k in given if k not in reads]
    if foreign:
        wanted = ", ".join(map(_flag, reads))
        raise CliError(f"verify {args.suite} reads only {wanted}, not {', '.join(foreign)}", EXIT_USAGE)
    for label, ok in check(**{**reads, **given}):
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            return EXIT_VERIFY
    return EXIT_OK


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: parsing keeps no
    state in it (each parse returns a fresh namespace, no action appends to a
    shared default), and building it costs far more than a `count`."""
    parser = argparse.ArgumentParser(
        prog="c2surf",
        description="Involutions on closed surfaces: counting, enumeration, invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count actions on T_g / N_r")
    p_count.add_argument("surfaces", help="surface or range, e.g. T0, N5, N2..N7")
    p_count.add_argument(
        "--include-trivial", action=argparse.BooleanOptionalAction, default=True
    )
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enumerate", help="list the isomorphism classes")
    p_enum.add_argument("surfaces")
    p_enum.add_argument("--tables", action="store_true", help="group rows by taxonomy")
    p_enum.add_argument("--format", choices=["table", "record"], default="table")
    p_enum.add_argument(
        "--include-trivial", action=argparse.BooleanOptionalAction, default=False
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_inv = sub.add_parser("inv", help="invariants of a surgery word")
    p_inv.add_argument("word")
    p_inv.set_defaults(func=cmd_invariants)

    p_gl2 = sub.add_parser("gl2", help="classify a 2x2 integer involution")
    for name in "abcd":
        p_gl2.add_argument(name, type=int)
    p_gl2.set_defaults(func=cmd_gl2)

    p_ver = sub.add_parser("verify", help="run an oracle suite")
    p_ver.add_argument("suite")
    # a flag not given stays out of the namespace, so `cmd_verify` sees what was given
    for dest in dict.fromkeys(dest for _, reads in _SUITES.values() for dest in reads):
        p_ver.add_argument(_flag(dest), type=int, default=argparse.SUPPRESS)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early fails this flush, not the exit's
        return code
    except WordSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # InvalidWordError, dimension bounds, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (counting.CountMismatch, words.RewriteNonTermination) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit; let that flush land
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
