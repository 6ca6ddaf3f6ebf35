"""The CLI's and the demos' outputs, pinned.  Each case runs one command
group through `cli.main` in process and hashes every run's exit code, stdout
and stderr into one sha256, or runs one demo as `__main__` in process and
hashes its stdout, so a change that alters any byte of them fails here and
prints the digest it got."""

import hashlib
import io
import pathlib
import random
import runpy
from contextlib import redirect_stderr, redirect_stdout

import pytest

from c2surf import cli, gl2
from c2surf.words import format_word


def _gl2_conjugates(count: int, seed: int):
    """q^-1 rep q for rep = T, S in turn and q a seeded product of
    elementary and swap matrices, as (a, b, c, d)."""
    rng = random.Random(seed)
    for i in range(count):
        q = gl2.I2
        for _ in range(rng.randint(1, 8)):
            lam = rng.randint(-4, 4)
            q = q @ (gl2.IntMatrix2(1, lam, 0, 1) if rng.random() < 0.5 else gl2.IntMatrix2(1, 0, lam, 1))
            if rng.random() < 0.3:
                q = q @ gl2.T_REP
        m = q.inverse() @ (gl2.S_REP if i % 2 else gl2.T_REP) @ q
        yield m.a, m.b, m.c, m.d


GL2_EDGE_CASES = [
    (1, 0, 0, 1), (-1, 0, 0, -1), (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0),
    (1, 1, 0, -1), (3, 2, -4, -3), (1, 2, 3, 4), (0, 0, 0, 0), (2, 1, 1, 1),
]

# group -> (the runs, given the query universe; the sha256 of their outputs)
GROUPS = {
    "count": (
        lambda _: [["count", "N1..N200"], ["count", "T0..T40"]],
        "0632e93e181fff60df4c59d3bf84224856779f5ab1fd0ff2593a671e5682c1bf",
    ),
    "enumerate-N": (
        lambda _: [["enumerate", "N1..N30"], ["enumerate", "N1..N30", "--format", "record"]],
        "67734f023b8a5f983d4f9f1508b42f17b3aa74fbc5900649b3c323b508fda896",
    ),
    # the benchmark's windows N41..N44 and N57..N60 lie in here
    "enumerate-N31..N60": (
        lambda _: [
            ["enumerate", "N31..N60"],
            ["enumerate", "N31..N60", "--format", "record", "--include-trivial"],
        ],
        "e9e0161fafabd039192759b4aff51be46938bb69baac41589fd494cf268c09c0",
    ),
    "enumerate-T": (
        lambda _: [["enumerate", "T0..T12", "--format", "record", "--include-trivial"]],
        "17100896a1c21345a911afcd0a8da67aaa16d56938978b781718eca94bb75ecf",
    ),
    "tables": (
        lambda _: [["enumerate", "N2..N12", "--tables"]],
        "4297a5c5c3f5d6c0aaf4c4ddcc57f7b1451e62693534209ce43fadb9bd96f28e",
    ),
    "inv": (
        lambda universe: [["inv", format_word(w)] for w in universe],
        "5522497b61e0d50ab254ef0c35595ccd3a1c3aeba5ac4867a9efffdf2bd6fac7",
    ),
    "gl2": (
        lambda _: [["gl2", *map(str, m)] for m in GL2_EDGE_CASES + list(_gl2_conjugates(200, 5))],
        "f6f5b72e8be104e2df8114bca5288d7f741de8989866f2127fddb9ed27801c7a",
    ),
    "verify-gl2": (
        lambda _: [["verify", "gl2", "--trials", "200", "--seed", "9"]],
        "0b7c9d0f94f39203d721c75d39b0272453101a2734cbc3857e3ac511ee498392",
    ),
}


def outputs_digest(runs) -> str:
    h = hashlib.sha256()
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_are_pinned(group, query_universe):
    runs, want = GROUPS[group]
    got = outputs_digest(runs(query_universe))
    assert got == want, f"{group}: outputs changed, digest now {got}"


DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# demo -> the sha256 of its stdout
DEMO_DIGESTS = {
    "counting_actions": "ddeb34a816a008c85a363f860e044f5f48866a4f960df94e518b2069385b8e6f",
    "dd_invariant": "c38c73c649ff9cd904252ee2e965ef7548f560f1cb4e206e671b76bb439f937b",
    "enumerate_actions": "a17b9f08921f1020032a281676c6176de50deb5e16e3393572fc4b36463937f3",
    "free_actions": "3b51a94aa9ef97a541b25e1208d057a7ca009ce0acddcb953a3460662921d444",
    "gl2_and_mapping_classes": "40e54819efb59bf9c5f0beb64b7eccd50d99971a6452b1b5b85d48ae76d24c0f",
    "isomorphism_decision": "6fd65439b904196310bc2a0ecb11cca768672c08bb9ea59ab01b6638c864942a",
}


@pytest.mark.parametrize("demo", DEMO_DIGESTS)
def test_demo_outputs_are_pinned(demo):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    got = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == DEMO_DIGESTS[demo], f"{demo}: stdout changed, digest now {got}"
