import io
import os
import pathlib
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

from c2surf import classify, cli, counting, gl2, orbits, words
from c2surf import dd as dd_module
from c2surf.bilinear import standard_space
from c2surf.cli import main
from c2surf.dd import DDTuple, dd_classifies
from c2surf.f2 import ISOMETRY_BOUND
from c2surf.orbits import CENSUS_BOUND, orbit_census, verify_orthogonal_generators
from c2surf.words import format_word, normalize, parse_word

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(argv):
    """(exit code, stdout, stderr); an argparse exit gives the code ("SystemExit", code)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def normalize_ws(text: str) -> str:
    lines = [" ".join(line.split()) for line in text.strip().splitlines()]
    return "\n".join(line for line in lines if line)


def test_count_range():
    code, out, _ = run(["count", "N2..N7"])
    assert code == 0
    phis = [int(line.split()[5]) for line in out.strip().splitlines()[1:]]
    assert phis == [5, 3, 14, 8, 27, 15]
    assert run(["count", "N2..4"]) == run(["count", "N2..N4"])  # the end may omit its letter


def test_count_torus():
    code, out, _ = run(["count", "T0"])
    assert code == 0
    assert out.strip().splitlines()[1].split() == ["T0", "4", "3"]


def test_count_bad_spec():
    code, _, err = run(["count", "Nbad"])
    assert code == 2
    assert "bad surface" in err
    assert run(["count", "N7..N2"]) == (2, "", "error: bad surface range 'N7..N2'\n")


# flags set and left unset in turn, then one error of each kind
PARSER_REUSE_RUNS = [
    ["count", "N5", "--no-include-trivial"],
    ["count", "N5"],
    ["enumerate", "N3", "--format", "record"],
    ["enumerate", "N3"],
    ["count"],  # argparse usage error
    ["count", "X9"],  # grammar error
    ["inv", "S22+2FM+FM"],  # domain error
]


def test_parser_reuse_keeps_no_state():
    fresh = []
    for argv in PARSER_REUSE_RUNS:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, ("SystemExit", 2), 2, 3]
    assert fresh[4][2].startswith("usage: c2surf count")
    cli.build_parser.cache_clear()
    runs = PARSER_REUSE_RUNS + PARSER_REUSE_RUNS[:4]
    assert [run(argv) for argv in runs] == fresh + fresh[:4]
    assert cli.build_parser.cache_info().misses == 1
    # a flag one call set is back at its default in the next
    assert fresh[1][1].startswith("r A B Phi- Phi+ Phi total\n")
    assert not fresh[3][1].startswith("surface=")
    parser = cli.build_parser()
    parser.parse_args(["enumerate", "N3", "--format", "record", "--include-trivial", "--tables"])
    args = parser.parse_args(["enumerate", "N3"])
    assert (args.format, args.include_trivial, args.tables) == ("table", False, False)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_golden_tables(r):
    code, out, _ = run(["enumerate", f"N{r}", "--tables"])
    assert code == 0
    golden = (GOLDEN / f"N{r}.txt").read_text()
    assert normalize_ws(out) == normalize_ws(golden)


def test_golden_row_and_action_counts():
    expected = {2: (5, 5), 3: (3, 3), 4: (11, 14), 5: (7, 8), 6: (20, 27), 7: (13, 15)}
    for r, (rows, actions) in expected.items():
        lines = normalize_ws((GOLDEN / f"N{r}.txt").read_text()).splitlines()
        body = lines[1:]
        assert len(body) == rows
        total = 0
        for line in body:
            cells = [c.strip() for c in line.split("|")]
            total += (int(cells[1]) if cells[1] else 0) + (int(cells[2]) if cells[2] else 0)
        assert total == actions


# Full tables transcribed by hand: row label, negative words, positive words.
# Operation tokens are written in the canonical printer order.
HAND_TABLES = {
    2: [
        ("2,0:(0,0)", ["S2a+S11AT"], []),
        ("2,1:(1,0)", [], ["S22+S10AT"]),
        ("0,0:(0,0)", ["S2a+DCC"], []),
        ("0,1:(1,0)", ["S21+DCC"], []),
        ("0,2:(0,2)", [], ["S22+2FM"]),
    ],
    3: [
        ("3,1:(0,1)", [], ["Tspit(1,4)+FM"]),
        ("1,1:(0,1)", ["S2a+S11AT+FM"], []),
        ("1,2:(1,1)", [], ["S22+S10AT+FM"]),
    ],
    4: [
        ("4,0:(0,0)", ["S2a+2S11AT"], []),
        ("4,1:(1,0)", [], ["Tspit(1,4)+S10AT"]),
        ("2,0:(0,0)", ["S2a+DCC+S11AT"], []),
        ("2,1:(1,0)", ["S2a+S10AT+S11AT"], []),
        ("2,2:(2,0)", [], ["S22+2S10AT"]),
        ("2,2:(0,2)", [], ["Tspit(1,4)+2FM"]),
        ("0,0:(0,0)", ["S2a+2DCC", "Tanti(1)+DCC"], []),
        ("0,1:(1,0)", ["S21+2DCC", "S2a+DCC+S10AT"], ["Trot(1)+S10AT"]),
        ("0,2:(2,0)", ["S21+DCC+S10AT"], []),
        ("0,2:(0,2)", ["S2a+S11AT+2FM"], []),
        ("0,3:(1,2)", [], ["S22+S10AT+2FM"]),
    ],
    5: [
        ("5,1:(0,1)", [], ["Tspit(2,6)+FM"]),
        ("3,1:(0,1)", ["S2a+2S11AT+FM"], []),
        ("3,2:(1,1)", [], ["Tspit(1,4)+S10AT+FM"]),
        ("1,1:(0,1)", ["S2a+DCC+S11AT+FM"], ["Tspit(2,2)+FM"]),
        ("1,2:(1,1)", ["S2a+S10AT+S11AT+FM"], []),
        ("1,3:(2,1)", [], ["S22+2S10AT+FM"]),
        ("1,3:(0,3)", [], ["Tspit(1,4)+3FM"]),
    ],
    6: [
        ("6,0:(0,0)", ["S2a+3S11AT"], []),
        ("6,1:(1,0)", [], ["Tspit(2,6)+S10AT"]),
        ("4,0:(0,0)", ["S2a+DCC+2S11AT"], []),
        ("4,1:(1,0)", ["S2a+S10AT+2S11AT"], []),
        ("4,2:(2,0)", [], ["Tspit(1,4)+2S10AT"]),
        ("4,2:(0,2)", [], ["Tspit(2,6)+2FM"]),
        ("2,0:(0,0)", ["S2a+2DCC+S11AT"], []),
        ("2,1:(1,0)", ["S2a+DCC+S10AT+S11AT"], ["Tspit(2,2)+S10AT"]),
        ("2,2:(2,0)", ["S2a+2S10AT+S11AT"], []),
        ("2,2:(0,2)", ["S2a+2S11AT+2FM"], []),
        ("2,3:(3,0)", [], ["S22+3S10AT"]),
        ("2,3:(1,2)", [], ["Tspit(1,4)+S10AT+2FM"]),
        ("0,0:(0,0)", ["S2a+3DCC", "Tanti(1)+2DCC"], []),
        ("0,1:(1,0)", ["S21+3DCC", "S2a+2DCC+S10AT", "Tanti(1)+DCC+S10AT"], []),
        ("0,2:(2,0)", ["S21+2DCC+S10AT", "S2a+DCC+2S10AT"], ["Trot(1)+2S10AT"]),
        ("0,2:(0,2)", ["S2a+DCC+S11AT+2FM"], ["Tspit(2,2)+2FM"]),
        ("0,3:(3,0)", ["S21+DCC+2S10AT"], []),
        ("0,3:(1,2)", ["S2a+S10AT+S11AT+2FM"], []),
        ("0,4:(2,2)", [], ["S22+2S10AT+2FM"]),
        ("0,4:(0,4)", [], ["Tspit(1,4)+4FM"]),
    ],
    7: [
        ("7,1:(0,1)", [], ["Tspit(3,8)+FM"]),
        ("5,1:(0,1)", ["S2a+3S11AT+FM"], []),
        ("5,2:(1,1)", [], ["Tspit(2,6)+S10AT+FM"]),
        ("3,1:(0,1)", ["S2a+DCC+2S11AT+FM"], ["Tspit(3,4)+FM"]),
        ("3,2:(1,1)", ["S2a+S10AT+2S11AT+FM"], []),
        ("3,3:(2,1)", [], ["Tspit(1,4)+2S10AT+FM"]),
        ("3,3:(0,3)", [], ["Tspit(2,6)+3FM"]),
        ("1,1:(0,1)", ["S2a+2DCC+S11AT+FM"], []),
        ("1,2:(1,1)", ["S2a+DCC+S10AT+S11AT+FM"], ["Tspit(2,2)+S10AT+FM"]),
        ("1,3:(2,1)", ["S2a+2S10AT+S11AT+FM"], []),
        ("1,3:(0,3)", ["S2a+2S11AT+3FM"], []),
        ("1,4:(3,1)", [], ["S22+3S10AT+FM"]),
        ("1,4:(1,3)", [], ["Tspit(1,4)+S10AT+3FM"]),
    ],
}


def render_hand_table(r: int) -> str:
    lines = [f"N{r} | - | + | - | +"]
    for label, neg, pos in HAND_TABLES[r]:
        lines.append(
            " | ".join(
                [
                    label,
                    str(len(neg)) if neg else "",
                    str(len(pos)) if pos else "",
                    ", ".join(neg),
                    ", ".join(pos),
                ]
            )
        )
    return "\n".join(lines)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_golden_matches_hand_transcription(r):
    golden = normalize_ws((GOLDEN / f"N{r}.txt").read_text())
    assert golden == normalize_ws(render_hand_table(r))


def test_enumerate_plain():
    code, out, _ = run(["enumerate", "T1"])
    assert code == 0
    assert len(out.strip().splitlines()) == 5  # nontrivial only by default
    code, out, _ = run(["enumerate", "T1", "--include-trivial"])
    assert len(out.strip().splitlines()) == 6
    code, out, _ = run(["enumerate", "N3"])
    assert len(out.strip().splitlines()) == 3
    # a range of tori is refused before any of its surfaces is built
    for spec in ("T3", "T0..T1000000000000"):
        assert run(["enumerate", spec, "--tables"]) == (2, "", "error: tables are defined for N_r only\n")


def test_tables_reject_the_flags_they_ignore():
    error = "error: enumerate --tables takes neither --format record nor --include-trivial\n"
    for flags in (["--include-trivial"], ["--format", "record"], ["--format", "record", "--include-trivial"]):
        assert run(["enumerate", "N4", "--tables", *flags]) == (2, "", error)
    # the defaults, spelled out, are what --tables prints
    assert run(["enumerate", "N4", "--tables", "--format", "table", "--no-include-trivial"]) == run(
        ["enumerate", "N4", "--tables"]
    )


def test_enumerate_record_roundtrips():
    code, out, _ = run(["enumerate", "N4", "--format", "record"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    for line in lines:
        fields = dict(kv.split("=", 1) for kv in line.split())
        parse_word(fields["word"])  # must parse back
        assert fields["surface"] == "N4"
        assert fields["Q"] in "+-"


class WriteSizes(io.StringIO):
    """A stdout that records how many lines each write holds, or None for a
    write that ends inside a line."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(text.count("\n") if text.endswith("\n") else None)
        return super().write(text)


def test_enumerate_writes_one_f_group_at_a_time():
    # a surface goes out one F group per write, each a run of whole lines, so
    # no write holds more than the largest F group: 4,124 of N200's 136,724
    surface = words.Surface(False, 200)
    groups = {}
    for f, _, _, classes in classify.taxonomy_cells(surface):
        groups[f] = groups.get(f, 0) + len(classes)
    sizes = [n for n in groups.values() if n]
    assert max(sizes) == 4124 and sum(sizes) == counting.total_count(surface) - 1 == 136724
    # the trivial line, when asked for, goes first in a write of its own
    for fmt, trivial, want in (("record", "--include-trivial", [1, *sizes]), ("table", "--no-include-trivial", sizes)):
        out = WriteSizes()
        with redirect_stdout(out):
            assert main(["enumerate", "N200", "--format", fmt, trivial]) == 0
        assert out.sizes == want, fmt


class FirstWrite(Exception):
    """What `StopAtFirstWrite` raises: no handler of `main` catches it."""


class StopAtFirstWrite(io.StringIO):
    def write(self, text):
        raise FirstWrite(text)


def test_enumerate_streams_a_range():
    # a range is parsed from its two ends and each surface built when the loop
    # reaches it, so N1's line goes out before N2 exists; a list of the
    # range's 500,000 surfaces would take about 44 MB before that line
    run(["enumerate", "N1"])  # the parser is built once a process
    tracemalloc.start()
    try:
        with redirect_stdout(StopAtFirstWrite()), pytest.raises(FirstWrite) as first:
            main(["enumerate", "N1..N500000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.value.args == ("N1 [1,1:(0,1),+] eps=nonsep dd=0,0,0,0 S22+FM\n",)
    assert peak < 1 << 20, peak


def test_inv_command():
    code, out, _ = run(["inv", "S2a+2DCC+3S10AT+S11AT+2FM"])
    assert code == 0
    assert "surface=N14" in out
    code, out, _ = run(["inv", "S22+2FM"])
    assert "taxonomy=[0,2:(0,2),+]" in out
    code, _, err = run(["inv", "S2a+3FM"])
    assert code == 3
    code, _, err = run(["inv", "S2a+3XYZ"])
    assert code == 2
    code, out, _ = run(["inv", "S21+S11AT"])
    assert "dd=0,1,1,0" in out.splitlines()
    code, out, _ = run(["inv", "Triv(N5)"])
    assert code == 0
    assert "taxonomy=trivial" in out.splitlines()
    assert "dd=0,0,0,0" in out.splitlines()


def test_input_guards_exit_with_their_codes():
    # a surface of no genus is a usage error, an impossible base a domain error
    assert run(["enumerate", "N0"]) == (2, "", "error: bad surface parameters N0\n")
    assert run(["inv", "Triv(N0)"]) == (2, "", "error: bad surface parameters N0\n")
    assert run(["inv", "Trefl(0,3)"]) == (3, "", "error: bad reflection oval count C=3 at g=0\n")


def test_gl2_command():
    code, out, _ = run(["gl2", "1", "1", "0", "-1"])
    assert code == 0
    assert out.splitlines()[0] == "Tclass"
    assert "[[1,0],[1,1]]" in out
    code, out, _ = run(["gl2", "1", "0", "0", "1"])
    assert code == 0 and out.strip() == "Id"
    code, _, _ = run(["gl2", "2", "1", "1", "1"])
    assert code == 3


def test_verify_suites_fast():
    for argv in (
        ["verify", "orbits", "--n", "5"],
        ["verify", "generators", "--n", "4"],
        ["verify", "dd", "--max-dim", "4"],
        ["verify", "counts", "--max-r", "40"],
        ["verify", "gl2", "--trials", "200"],
        ["verify", "rewrites", "--max-beta", "12"],
        ["verify", "orbits", "--n", str(CENSUS_BOUND)],
    ):
        code, out, _ = run(argv)
        assert code == 0, (argv, out)
        assert "FAIL" not in out
    code, _, err = run(["verify", "nonsense"])
    assert code == 2
    code, _, err = run(["verify", "dd", "--max-dim", "9"])
    assert code == 2 and "2..6" in err
    code, _, err = run(["verify", "generators", "--n", "9"])
    assert code == 2 and "1..6" in err


@pytest.mark.parametrize(
    "text, normal",
    [
        ("S22+20000S1aAT", "S2a+19999DCC+S11AT"),
        ("S2a+DCC+20000DT", "S2a+40001DCC"),
        ("S2a+S11AT+6000S1aAT", "S2a+6000DCC+S11AT"),
    ],
)
def test_inv_answers_long_op_runs(text, normal):
    code, out, err = run(["inv", text])
    assert code == 0 and err == ""
    assert f"word={text}" in out
    assert format_word(normalize(parse_word(text))) == normal


@pytest.mark.parametrize(
    "argv, err",
    [
        (["inv", "S2a+٢DCC"], "error: bad operation token '٢DCC'\n"),  # an Arabic-Indic two
        (["inv", "Tanti(٢)"], "error: bad base token 'Tanti(٢)'\n"),
        (["enumerate", "N٢"], "error: bad surface spec 'N٢'\n"),
        (["count", "N٣"], "error: bad surface spec 'N٣'\n"),
    ],
    ids=["inv-op", "inv-base", "enumerate", "count"],
)
def test_non_ascii_digits_are_syntax_errors(argv, err):
    assert run(argv) == (2, "", err)


@pytest.mark.parametrize("text", ["S2a+{}DCC", "Tanti({})", "Triv(N{})"])
def test_oversized_numbers_are_syntax_errors(text):
    # 5,000 digits is past the interpreter's limit for int() of a string
    # (4,300 digits; 3.10 words the message without "digits")
    with start_cli(["inv", text.format("1" * 5000)]) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert (proc.returncode, out) == (2, "")
    assert err.startswith("error: Exceeds the limit (4300") and err.count("\n") == 1  # no traceback


@pytest.mark.parametrize("text", ["S2a+{}DCC", "Tanti({})"], ids=["op-count", "genus"])
def test_oversized_numbers_are_syntax_errors_in_process(text):
    # the same limit through `main`, in this process: one error line, exit 2
    code, out, err = run(["inv", text.format("1" * 5000)])
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit (4300") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["inv", "S2a+{}DCC".format("9" * 4300)], ["count", "N" + "9" * 1500], ["count", "T" + "9" * 4300]],
    ids=["inv", "count-N", "count-T"],
)
def test_an_answer_past_the_digit_limit_writes_nothing(argv):
    # the input parses, but a number of the answer has more than 4,300 digits:
    # the command builds its whole answer before the first write
    code, out, err = run(argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: Exceeds the limit (4300") and err.count("\n") == 1


def test_rewrite_fuse_exits_4(monkeypatch):
    # normalizing the first instance of `verify rewrites` takes a rewrite and then
    # a fixpoint check, two passes against a fuse of one; `inv` never rewrites
    monkeypatch.setattr(words, "_NORMALIZE_FUSE", 1)
    code, out, err = run(["verify", "rewrites"])
    assert code == 4 and out == ""
    assert err.startswith("error: rewriting did not terminate")
    assert len(err.splitlines()) == 1


def test_count_on_n_r_reads_only_phi_counts(monkeypatch):
    # `count N_r` prints phi_counts; total_count is the oracle that checks it
    want = run(["count", "N1..N30"])
    closed = counting.total_count

    def orientable_only(surface):
        if not surface.orientable:
            raise AssertionError(f"count read total_count({surface.name})")
        return closed(surface)

    monkeypatch.setattr(counting, "total_count", orientable_only)
    assert want[0] == 0 and run(["count", "N1..N30"]) == want
    assert run(["count", "T0..T3"])[0] == 0


def test_count_mismatch_exits_4(monkeypatch):
    def broken(r):
        raise counting.CountMismatch(f"A({r}) is off")

    monkeypatch.setattr(counting, "phi_counts", broken)
    code, _, err = run(["count", "N5"])
    assert code == 4
    assert err == "error: A(5) is off\n"


def test_verify_orbits_bound_checked_up_front():
    code, out, err = run(["verify", "orbits", "--n", str(CENSUS_BOUND + 1)])
    assert code == 2 and out == ""
    assert "2..12" in err


def test_verify_bounds_are_the_library_constants():
    for argv, text in (
        (["verify", "generators", "--n", str(ISOMETRY_BOUND + 1)], "1..6"),
        (["verify", "dd", "--max-dim", str(ISOMETRY_BOUND + 1)], "2..6"),
    ):
        code, out, err = run(argv)
        assert code == 2 and out == "" and text in err, argv
    with pytest.raises(ValueError):
        orbit_census("orthogonal", CENSUS_BOUND + 1)
    with pytest.raises(ValueError):
        verify_orthogonal_generators(ISOMETRY_BOUND + 1)
    with pytest.raises(ValueError):
        dd_classifies(standard_space("orthogonal", ISOMETRY_BOUND + 1))


def test_verify_counts_fails_when_a_path_is_off(monkeypatch):
    recursive = counting.A_recursive
    monkeypatch.setattr(counting, "A_recursive", lambda r: recursive(r) + (r == 17))
    code, out, _ = run(["verify", "counts", "--max-r", "40"])
    assert code == 4
    assert out.splitlines() == ["FAIL three-way A/B agreement and totals r<=40: off at r=17"]


def _plant_fault(monkeypatch, suite):
    """One wrong answer behind the named `verify` suite."""
    if suite == "orbits":
        census = orbits.orbit_census
        monkeypatch.setattr(orbits, "orbit_census", lambda kind, n: census(kind, n) + (n == 3))
    elif suite == "generators":
        generated = orbits.verify_orthogonal_generators
        monkeypatch.setattr(orbits, "verify_orthogonal_generators", lambda n: n != 2 and generated(n))
    elif suite == "dd":
        monkeypatch.setattr(dd_module, "dd", lambda inv: DDTuple(0, 0, 0, 0))
    elif suite == "counts":
        phi = counting.phi_counts

        def phi_counts(r):
            if r == 17:
                raise counting.CountMismatch(f"planted at r={r}")
            return phi(r)

        monkeypatch.setattr(counting, "phi_counts", phi_counts)
    elif suite == "gl2":
        reduce = gl2.gl2_reduce
        monkeypatch.setattr(gl2, "gl2_reduce", lambda m: (gl2.Gl2Class.ID, reduce(m)[1]))
    else:
        monkeypatch.setattr(words, "normalize", lambda w: w)


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_every_verify_suite_fails_on_a_planted_fault(monkeypatch, suite):
    # each suite stops at its first FAIL line and exits 4, with no traceback
    _plant_fault(monkeypatch, suite)
    code, out, err = run(["verify", suite])
    lines = out.splitlines()
    assert (code, err) == (4, ""), out
    assert lines[-1].startswith("FAIL ") and all(line.startswith("PASS ") for line in lines[:-1])
    if suite == "counts":  # the FAIL line names where the loop broke, and why
        assert "r=17" in lines[-1] and "planted at r=17" in lines[-1]


def test_verify_rejects_flags_its_suite_does_not_read():
    # every flag is read by some suite, and only a flag the named suite reads is taken
    assert run(["verify", "dd", "--trials", "5", "--max-r", "3", "--seed", "9"]) == (
        2, "", "error: verify dd reads only --max-dim, not --trials, --max-r, --seed\n"
    )
    assert run(["verify", "orbits", "--max-beta", "8"]) == (
        2, "", "error: verify orbits reads only --n, not --max-beta\n"
    )
    for suite, (_, reads) in cli._SUITES.items():
        for dest in {"n", "max_dim", "max_r", "trials", "seed", "max_beta"} - set(reads):
            code, out, err = run(["verify", suite, "--" + dest.replace("_", "-"), "1"])
            assert (code, out, err.count("\n")) == (2, "", 1), (suite, dest)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["verify", "counts", "--max-r", "0"], "--max-r must be at least 1"),
        (["verify", "counts", "--max-r", "-5"], "--max-r must be at least 1"),
        (["verify", "gl2", "--trials", "0"], "--trials must be at least 1"),
        (["verify", "gl2", "--trials", "-1"], "--trials must be at least 1"),
        (["verify", "rewrites", "--max-beta", "5"], "--max-beta must be at least 6"),
        (["verify", "rewrites", "--max-beta", "0"], "--max-beta must be at least 6"),
    ],
)
def test_verify_rejects_vacuous_sizes_up_front(argv, text):
    # a suite that would check nothing must not print PASS
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {text}") and len(err.splitlines()) == 1


def smallest_beta_with_every_rule():
    """Least bound at which every rewrite rule yields a pair inside the bound."""
    rules = words.rewrite_equivalences()
    for mb in range(0, 40):
        if all(
            any(max(words.beta(u), words.beta(v)) <= mb for u, v in rule(mb))
            for rule in rules
        ):
            return mb
    raise AssertionError("some rewrite rule has no instance with beta < 40")


def test_verify_rewrites_lower_bound_is_the_first_full_bound():
    mb = smallest_beta_with_every_rule()
    code, out, err = run(["verify", "rewrites", "--max-beta", str(mb - 1)])
    assert code == 2 and out == "" and f"at least {mb}" in err
    code, out, err = run(["verify", "rewrites", "--max-beta", str(mb)])
    assert code == 0 and err == ""
    assert len(out.splitlines()) == len(words.rewrite_equivalences())
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_smallest_sizes_still_check():
    for argv, lines in (
        (["verify", "counts", "--max-r", "1"], 2),
        (["verify", "gl2", "--trials", "1"], 1),
    ):
        code, out, _ = run(argv)
        assert code == 0 and len(out.splitlines()) == lines, argv


# The child reports the peak of its own address space (VmHWM).  Its ru_maxrss
# would not do: Linux carries the parent's peak across fork and exec, so it
# would report the test runner's size.
REPORT_PEAK_RSS = r"""
import re, sys
from c2surf.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\s*(\d+) kB", status.read()).group(1), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux /proc")
def test_verify_dd_memory_stays_bounded():
    # the DD suite searches involutions only; it never holds a whole isometry group of dim 6
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_PEAK_RSS, "verify", "dd", "--max-dim", str(ISOMETRY_BOUND)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stderr.split()[-1]) / 1024
    assert peak_mb < 64, peak_mb


def start_cli(argv, buffered=False):
    """The CLI in a child process with Ctrl-C at its default."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    return subprocess.Popen(
        [sys.executable, "-m", "c2surf.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )


# (argv, start of the first line): N_r text goes out one F group per write
# (a table, one row per write), in each output format
STREAMED_OUTPUTS = {
    "record": (["enumerate", "N200", "--format", "record"], "surface=N200 "),
    "plain": (["enumerate", "N200"], "N200 ["),
    "tables": (["enumerate", "N1..N200", "--tables"], "N1 | - | + | - | +"),
}


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_quietly(buffered):
    for argv, first in STREAMED_OUTPUTS.values():
        with start_cli(argv, buffered) as proc:
            try:
                assert proc.stdout.readline().startswith(first), argv
                proc.stdout.close()
                assert proc.wait(timeout=60) == 141, argv
                assert proc.stderr.read() == "", argv
            finally:
                proc.kill()


def test_stdout_closed_before_the_last_flush_exits_141_quietly():
    # the whole output fits the buffer, so only the final flush meets the closed pipe
    with start_cli(["count", "N2..N7"], buffered=True) as proc:
        try:
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == ""
        finally:
            proc.kill()


def test_ctrl_c_exits_130_without_traceback():
    # the oracle leg needs work left after its first line (over 0.5 s):
    # `verify rewrites --max-beta 400` still checks rules for about 3 s by then
    for argv, first in [(["verify", "rewrites", "--max-beta", "400"], "PASS "), STREAMED_OUTPUTS["tables"]]:
        with start_cli(argv) as proc:
            try:
                assert proc.stdout.readline().startswith(first), argv
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=60) == 130, argv
                assert proc.stderr.read() == "error: interrupted\n", argv  # one line, no traceback
            finally:
                proc.kill()
