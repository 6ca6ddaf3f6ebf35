"""The CLI's outputs, pinned.  Each case runs one command group through
`cli.main` in process and hashes every run's exit code, stdout and stderr
into one sha256, so a change that alters any byte of them fails here and
prints the digest it got."""

import hashlib
import io
import random
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
        "c06f8585cc5f020e4110759ddaeecac4f301aff902465514b8fae0e1b158fcae",
    ),
    # the benchmark's windows N41..N44 and N57..N60 lie in here
    "enumerate-N31..N60": (
        lambda _: [
            ["enumerate", "N31..N60"],
            ["enumerate", "N31..N60", "--format", "record", "--include-trivial"],
        ],
        "4afabcdfe4ef01e444528e804e4aa13443326a94963b1f8b3267be9d74784e0b",
    ),
    "enumerate-T": (
        lambda _: [["enumerate", "T0..T12", "--format", "record", "--include-trivial"]],
        "4ad1944d9598a1ab468aae809284a36422eaed00a010c2f37858bb20e0069864",
    ),
    "tables": (
        lambda _: [["enumerate", "N2..N12", "--tables"]],
        "4297a5c5c3f5d6c0aaf4c4ddcc57f7b1451e62693534209ce43fadb9bd96f28e",
    ),
    "inv": (
        lambda universe: [["inv", format_word(w)] for w in universe],
        "3159a0e4cb60c9b2472600a6292715b3a395be2ba8948a6be591571065605f3c",
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
