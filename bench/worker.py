"""One benchmark pass in a fresh process.

The pass builds its inputs from the seed, runs one workload against c2surf,
checks every answer outside the timed region, and prints one JSON line with
its timings (as measured, and scaled to the nominal host speed by `Clock`),
counts and check results.  ``run.py`` starts one of these per
pass, so every pass pays the interpreter start, ``import c2surf`` and a cold
``f2._ISOMETRY_CACHE``, as a ``c2surf`` command-line user does.

    PYTHONPATH=src python3 bench/worker.py --workload count --seed 1 --spawned-at 0
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import itertools
import json
import random
import resource
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Tuple

cli = importlib.import_module("c2surf.cli")
classify = importlib.import_module("c2surf.classify")
counting = importlib.import_module("c2surf.counting")
bilinear = importlib.import_module("c2surf.bilinear")
dd = importlib.import_module("c2surf.dd")
orbits = importlib.import_module("c2surf.orbits")
words = importlib.import_module("c2surf.words")
gl2 = importlib.import_module("c2surf.gl2")

from tracer import Tracer  # noqa: E402  (bench/ is sys.path[0])

# The one conflict that `decide_isomorphic` and `dd_of_word` are known to have
# on the query words: (surface, {normal form: DD}).  On T1 the signed taxonomy
# is complete, so S21+S1aAT lies in the class of S2a+S10AT, whose DD is
# [1,1,1,1]; `dd_of_word` gives it [0,0,0,0].  A query that meets this pair
# counts as failed; any other conflict is a wrong output.
KNOWN_DD_CONFLICT = ("T1", {"S21+S1aAT": (0, 0, 0, 0), "S2a+S10AT": (1, 1, 1, 1)})

# raw spans of the latest traced pass of each workload
SPANS = str(Path(__file__).resolve().parent / "spans-{workload}.tsv")

OPS = ("DCC", "DT", "S10AT", "S11AT", "S1aAT", "FM")

# queries timed between two host speed probes
CHUNK = 1000


def blocks(ks: List[int]) -> List[int]:
    """Every r in the windows [4k+1, 4k+4]: each window holds every residue of
    r mod 4 once, and the work does not depend on the seed."""
    return [4 * k + j for k in ks for j in (1, 2, 3, 4)]


# ---------------------------------------------------------------------------
# host speed probe

# Time of one `probe()` at the nominal host speed: the fast state of a shared
# 2-core Xeon under Python 3.11.7.  Times scaled by REF_S over a probe are
# times at that speed.
REF_S = 0.0004


def reference() -> int:
    """A fixed pure-Python routine (integer arithmetic, tuples, a dict, str)
    whose time tracks the speed the host gives this process right now."""
    table: Dict[tuple, int] = {}
    x = 1
    for i in range(800):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 511, i & 3)
        table[key] = table.get(key, 0) + len(str(x))
    return len(table)


def probe() -> float:
    """Median time of three runs of `reference`, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter_ns()
        reference()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e9


class Clock:
    """Times a pass's work in segments and probes the host speed around each.

    The speed a shared host gives a process drifts, by up to 1.7x for tens of
    seconds at a time.  A segment's time at the nominal speed is its measured
    time times REF_S over the mean of the probes just before and after it.
    The probes lie outside the segments and add nothing to the measured time.
    """

    def __init__(self) -> None:
        self.last = probe()
        self.segments = array("q")
        self.factors: List[float] = []

    @contextlib.contextmanager
    def segment(self):
        t0 = perf_counter_ns()
        yield
        self.segments.append(perf_counter_ns() - t0)
        now = probe()
        self.factors.append(2 * REF_S / (self.last + now))
        self.last = now

    def wall_s(self) -> float:
        return sum(self.segments) / 1e9

    def nominal_wall_s(self) -> float:
        return sum(dt * f for dt, f in zip(self.segments, self.factors)) / 1e9


# ---------------------------------------------------------------------------
# output sink for the command-line workloads


class LineSink(io.TextIOBase):
    """Counts printed lines and keeps the chosen ones."""

    def __init__(self, keep=(), keep_all: bool = False) -> None:
        self.lines = 0
        self.keep = set(keep)
        self.keep_all = keep_all
        self.kept: Dict[int, str] = {}
        self.part: List[str] = []

    def write(self, s: str) -> int:
        if "\n" not in s:
            self.part.append(s)
            return len(s)
        pieces = s.split("\n")
        for piece in pieces[:-1]:
            self.part.append(piece)
            if self.keep_all or self.lines in self.keep:
                self.kept[self.lines] = "".join(self.part)
            self.part = []
            self.lines += 1
        if pieces[-1]:
            self.part.append(pieces[-1])
        return len(s)


def run_cli(argv: List[str], sink: LineSink) -> int:
    with contextlib.redirect_stdout(sink):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# enumerate: `c2surf enumerate N_r --format record` into a counting sink


def setup_enumerate(rng: random.Random, tiny: bool) -> dict:
    rs = blocks([1] if tiny else [2, 6, 10, 14])
    rng.shuffle(rs)
    per_r = 5 if tiny else 40
    calls = []
    for r in rs:
        expected = counting.total_count(words.Surface(False, r)) - 1
        calls.append((r, expected, rng.sample(range(expected), min(per_r, expected))))
    return {"calls": calls, "sizes": {"r": rs, "classes": sum(c[1] for c in calls)}}


def run_enumerate(inp: dict, clock: Clock) -> dict:
    sinks = []
    for r, _, sample in inp["calls"]:
        sink = LineSink(keep=sample)
        with clock.segment():
            code = run_cli(["enumerate", f"N{r}", "--format", "record"], sink)
        sinks.append((code, sink))
    return {"sinks": sinks}


def check_enumerate(inp: dict, out: dict) -> dict:
    attempted = failed = 0
    errors = []
    for (r, expected, sample), (code, sink) in zip(inp["calls"], out["sinks"]):
        attempted += expected
        if code != 0 or sink.lines != expected:
            failed += expected
            errors.append(f"N{r}: exit {code}, {sink.lines} records, expected {expected}")
            continue
        for idx in sample:
            line = sink.kept[idx]
            if _record_fields(line) != _derived_fields(line):
                failed += 1
                errors.append(f"N{r} record {idx} disagrees with its word: {line}")
    ops = sum(s.lines for _, s in out["sinks"])
    return _verdict(attempted, ops, failed, errors)


def _record_fields(line: str) -> Dict[str, str]:
    return dict(field.split("=", 1) for field in line.split(" "))


def _derived_fields(line: str) -> Dict[str, str]:
    """The record re-derived from its word through the public invariants."""
    word_text = _record_fields(line)["word"]
    a = classify.Action.from_word(words.parse_word(word_text))
    tax = a.taxonomy
    return {
        "surface": a.surface.name,
        "word": word_text,
        "F": str(tax.f),
        "C": str(tax.c),
        "C+": str(tax.cplus),
        "C-": str(tax.cminus),
        "Q": tax.q.value,
        "eps": a.epsilon.value,
        "dd": "NA" if a.dd is None else ",".join(map(str, a.dd.as_tuple())),
    }


# ---------------------------------------------------------------------------
# count: `c2surf count N_r`, one call per surface


def setup_count(rng: random.Random, tiny: bool) -> dict:
    rs = blocks([0, 1] if tiny else list(range(0, 109, 18)))
    rng.shuffle(rs)
    return {"rs": rs, "sizes": {"r": rs, "surfaces": len(rs)}}


def run_count(inp: dict, clock: Clock) -> dict:
    sinks = []
    for r in inp["rs"]:
        sink = LineSink(keep_all=True)
        with clock.segment():
            code = run_cli(["count", f"N{r}"], sink)
        sinks.append((code, sink))
    return {"sinks": sinks}


def check_count(inp: dict, out: dict) -> dict:
    failed = 0
    errors = []
    for r, (code, sink) in zip(inp["rs"], out["sinks"]):
        row = sink.kept.get(1, "").split()
        ok = code == 0 and sink.lines == 2 and len(row) == 7 and row[0] == f"N{r}"
        if ok:
            a, b, phi_minus, phi_plus, phi, total = map(int, row[1:])
            ok = (
                a + b == counting.ab_sum_closed(r)
                and total == counting.total_count(words.Surface(False, r))
                and phi == phi_minus + phi_plus
                and total == phi + 1
            )
        if not ok:
            failed += 1
            errors.append(f"N{r}: exit {code}, output {sink.kept}")
    return _verdict(len(inp["rs"]), len(inp["rs"]) - failed, failed, errors)


# ---------------------------------------------------------------------------
# dd_oracle: DD completeness, orbit census and generator verification


def setup_dd_oracle(rng: random.Random, tiny: bool) -> dict:
    top = 4 if tiny else 6
    spaces = [("orthogonal", n) for n in range(2, top + 1)]
    spaces += [("symplectic", n) for n in range(2, top - 1, 2)]
    # spot-check pairs as positions in the list of classified involutions, for n <= 5
    spots = {sp: [(rng.random(), rng.random()) for _ in range(12)] for sp in spaces if sp[1] <= 5}
    census = [("orthogonal", n) for n in range(2, top + 1)] + [("symplectic", n) for n in range(2, top + 1, 2)]
    generators = list(range(1, min(top, 5) + 1))
    sizes = {"spaces": [f"{k}{n}" for k, n in spaces], "spot_pairs": 12 * len(spots)}
    return {"spaces": spaces, "spots": spots, "census": census, "generators": generators, "sizes": sizes}


def run_dd_oracle(inp: dict, clock: Clock) -> dict:
    """One segment per check."""
    spaces = []
    for kind, n in inp["spaces"]:
        with clock.segment():
            space = bilinear.standard_space(kind, n)
            classes = dd.conjugacy_classes(space, bound=6)
            values = [[dd.dd(inv).as_tuple() for inv in cls] for cls in classes]
            spot = []
            if (kind, n) in inp["spots"]:
                invs = [inv for cls in classes for inv in cls]
                for ua, ub in inp["spots"][(kind, n)]:
                    a, b = invs[int(ua * len(invs))], invs[int(ub * len(invs))]
                    spot.append((a.matrix, b.matrix, dd.conjugacy_oracle(a, b, bound=6)))
        spaces.append((classes, values, spot))
    census = []
    for kind, n in inp["census"]:
        with clock.segment():
            census.append(orbits.orbit_census(kind, n))
    generators = []
    for n in inp["generators"]:
        with clock.segment():
            generators.append(orbits.verify_orthogonal_generators(n))
    return {"spaces": spaces, "census": census, "generators": generators}


def check_dd_oracle(inp: dict, out: dict) -> dict:
    attempted = failed = 0
    errors = []
    for (kind, n), (classes, values, spot) in zip(inp["spaces"], out["spaces"]):
        seen = set()
        where = {}
        for idx, (cls, vals) in enumerate(zip(classes, values)):
            attempted += len(cls)
            distinct = set(vals)
            if len(distinct) != 1 or distinct & seen:
                failed += len(cls)
                errors.append(f"{kind} {n}: class {idx} has DD values {sorted(distinct)}")
            seen |= distinct
            where.update((inv.matrix, idx) for inv in cls)
        for a, b, conjugate in spot:
            if conjugate != (where.get(a, -1) == where.get(b, -2)):
                errors.append(f"{kind} {n}: conjugacy_oracle disagrees with the class partition")
    for (kind, n), got in zip(inp["census"], out["census"]):
        want = 2 if kind == "symplectic" else (3 if n == 2 else 4)
        if got != want:
            errors.append(f"census {kind} {n}: {got} orbits, expected {want}")
    for n, ok in zip(inp["generators"], out["generators"]):
        if not ok:
            errors.append(f"orthogonal generators n={n} do not close to the group")
    return _verdict(attempted, attempted - failed, failed, errors)


# ---------------------------------------------------------------------------
# query: a closed loop of single library queries


def _bases(max_beta: int):
    """(token, beta, fixed points) of every base with beta <= max_beta."""
    yield "S2a", 0, 0
    yield "S21", 0, 0
    yield "S22", 0, 2
    for g in range(1, max_beta // 2 + 1):
        yield f"Tanti({g})", 2 * g, 0
        if g % 2:
            yield f"Trot({g})", 2 * g, 0
        for f in range(2 + 2 * g, 1, -4):
            yield f"Tspit({g},{f})", 2 * g, f
        for c in range(g + 1, 0, -2):
            yield f"Trefl({g},{c})", 2 * g, 0


def word_universe(max_beta: int) -> List[Tuple[str, Tuple[int, ...]]]:
    """Every grammar-valid word with beta <= max_beta and each op count <= 2,
    as (base token, op counts in DCC/DT/S10AT/S11AT/S1aAT/FM order)."""
    out = []
    for token, base_beta, fixed in _bases(max_beta):
        for counts in itertools.product(range(3), repeat=6):
            dcc, dt, s10, s11, s1a, fm = counts
            if base_beta + 2 * (dcc + s10 + s11 + s1a) + 4 * dt + fm <= max_beta and fm <= fixed + 2 * s11:
                out.append((token, counts))
    trivial = [f"Triv(T{g})" for g in range(max_beta // 2 + 1)] + [f"Triv(N{r})" for r in range(1, max_beta + 1)]
    return out + [(t, (0,) * 6) for t in trivial]


def canonical(token: str, counts: Tuple[int, ...]) -> str:
    return "+".join([token] + [f"{c}{op}" if c > 1 else op for op, c in zip(OPS, counts) if c])


def spell(rng: random.Random, token: str, counts: Tuple[int, ...]) -> str:
    """Word text with the operations in seeded order, counts sometimes split."""
    parts = []
    for op, c in zip(OPS, counts):
        if c == 2 and rng.random() < 0.5:
            parts += [op, op]
        elif c:
            parts.append(f"{c}{op}" if c > 1 else op)
    rng.shuffle(parts)
    return "+".join([token] + parts)


def _mul(p, q):
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3], p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def _inv(p):
    det = p[0] * p[3] - p[1] * p[2]
    return (p[3] * det, -p[1] * det, -p[2] * det, p[0] * det)  # det is +-1


def gl2_conjugate(rng: random.Random, rep) -> Tuple[int, int, int, int]:
    """q^-1 rep q for q a seeded product of elementary and swap matrices."""
    q = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 8)):
        lam = rng.randint(-4, 4)
        q = _mul(q, (1, lam, 0, 1) if rng.random() < 0.5 else (1, 0, lam, 1))
        if rng.random() < 0.3:
            q = _mul(q, (0, 1, 1, 0))
    return _mul(_mul(_inv(q), rep), q)


def setup_query(rng: random.Random, tiny: bool) -> dict:
    """Every word of the universe once as an `inv` query and every pair that
    shares a surface and a signed taxonomy once as a `decide` query, so the
    work and the number of known gaps met do not depend on the seed.  The seed
    spells the words, draws the `gl2` conjugates and orders the stream."""
    universe = word_universe(6 if tiny else 12)
    groups = defaultdict(list)
    for token, counts in universe:
        w = words.parse_word(canonical(token, counts))
        key = (words.underlying_surface(w), None if w.is_trivial() else (words.fixed_data(w), words.q_sign(w)))
        groups[key].append((token, counts))
    pairs = [pair for g in groups.values() for pair in itertools.combinations(g, 2)]
    reps = [(1, 0, 0, -1), (0, 1, 1, 0)] * (15 if tiny else 1500)
    stream = [("inv", spell(rng, *u)) for u in universe]
    stream += [("decide", spell(rng, *u), spell(rng, *v)) for u, v in pairs]
    stream += [("gl2", rep, gl2_conjugate(rng, rep)) for rep in reps]
    rng.shuffle(stream)
    reflexive = [spell(rng, *rng.choice(universe)) for _ in range(30 if tiny else 300)]
    sizes = {"queries": len(stream), "mix": {"inv": len(universe), "decide": len(pairs), "gl2": len(reps)},
             "words": len(universe), "same_taxonomy_pairs": len(pairs)}
    return {"stream": stream, "reflexive": reflexive, "sizes": sizes}


def run_query(inp: dict, clock: Clock) -> dict:
    """A closed loop, one query at a time; one segment per CHUNK queries."""
    answers = []
    latencies = []
    stream = inp["stream"]
    for start in range(0, len(stream), CHUNK):
        chunk = stream[start : start + CHUNK]
        lat = array("q")
        with clock.segment():
            for q in chunk:
                t0 = perf_counter_ns()
                try:
                    if q[0] == "inv":
                        w = words.parse_word(q[1])
                        answer = (w, classify.Action.from_word(w))
                    elif q[0] == "decide":
                        a = classify.Action.from_word(words.parse_word(q[1]))
                        b = classify.Action.from_word(words.parse_word(q[2]))
                        answer = (a, b, classify.decide_isomorphic(a, b))
                    else:
                        answer = gl2.gl2_reduce(gl2.IntMatrix2(*q[2]))
                except Exception as exc:  # checked below: DDUnavailableError is a known gap
                    answer = exc
                lat.append(perf_counter_ns() - t0)
                answers.append(answer)
        latencies.append(lat)
    return {"answers": answers, "latencies": latencies}


def check_query(inp: dict, out: dict) -> dict:
    failed = 0
    errors = []
    gaps = {"unavailable": 0, "known_dd_conflict": 0}
    for q, answer in zip(inp["stream"], out["answers"]):
        if isinstance(answer, classify.DDUnavailableError):
            failed += 1
            gaps["unavailable"] += 1
            continue
        if isinstance(answer, Exception):
            failed += 1
            errors.append(f"{q}: raised {answer!r}")
            continue
        problem = {"inv": _check_inv, "decide": _check_decide, "gl2": _check_gl2}[q[0]](q, answer)
        if problem == "known_dd_conflict":
            failed += 1
            gaps[problem] += 1
        elif problem:
            failed += 1
            errors.append(f"{q}: {problem}")
    for text in inp["reflexive"]:
        a = classify.Action.from_word(words.parse_word(text))
        try:
            if not classify.decide_isomorphic(a, a):
                errors.append(f"decide({text}, {text}) is False")
        except classify.DDUnavailableError:
            pass  # the known gap: no answer rather than a wrong one
    attempted = len(inp["stream"])
    verdict = _verdict(attempted, attempted - failed, failed, errors)
    verdict["gaps"] = gaps
    return verdict


def _invariants(a) -> tuple:
    return (a.surface, a.taxonomy, a.epsilon)


def _check_inv(q, answer):
    w, a = answer
    if words.parse_word(words.format_word(w)) != w:
        return "format/parse round trip changed the word"
    b = classify.Action.from_word(words.normalize(w))
    if _invariants(a) != _invariants(b) or (a.dd and b.dd and a.dd != b.dd):
        return "invariants change under normalize"
    return None


@functools.lru_cache(maxsize=None)
def _normal_form(w):
    """`words.normalize`, remembered: the check meets each word many times."""
    return words.normalize(w)


def _check_decide(q, answer):
    a, b, same = answer
    if _normal_form(a.word) == _normal_form(b.word) and not same:
        return "equal normal forms decided non-isomorphic"
    differ = _invariants(a) != _invariants(b) or (a.dd and b.dd and a.dd != b.dd)
    if differ and same:
        if _dd_conflict(a, b) == KNOWN_DD_CONFLICT:
            return "known_dd_conflict"
        return "different invariants decided isomorphic"
    return None


def _dd_conflict(a, b) -> tuple:
    forms = {words.format_word(_normal_form(x.word)): x.dd and x.dd.as_tuple() for x in (a, b)}
    return (a.surface.name, forms)


def _check_gl2(q, answer):
    _, rep, m = q
    cls, witness = answer
    want = gl2.Gl2Class.S_CLASS if rep == (1, 0, 0, -1) else gl2.Gl2Class.T_CLASS
    if cls is not want:
        return f"class {cls}, expected {want}"
    if (witness.inverse() @ gl2.IntMatrix2(*rep) @ witness).entries() != m:
        return "witness does not conjugate the representative to the input"
    return None


# ---------------------------------------------------------------------------


def _verdict(attempted: int, ops: int, failed: int, errors: List[str]) -> dict:
    return {"attempted": attempted, "ops": ops, "failed": failed, "correct": not errors, "errors": errors[:10]}


WORKLOADS = {
    "enumerate": (setup_enumerate, run_enumerate, check_enumerate),
    "count": (setup_count, run_count, check_count),
    "dd_oracle": (setup_dd_oracle, run_dd_oracle, check_dd_oracle),
    "query": (setup_query, run_query, check_query),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args()
    setup, run, check = WORKLOADS[args.workload]
    inp = setup(random.Random(args.seed), args.tiny)
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    started = time.monotonic()
    clock = Clock()
    out = run(inp, clock)
    tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = clock.wall_s()
    result = check(inp, out)
    # a latency sample is one query for `query`, and one segment (a command
    # or a check) for the other workloads
    latencies = out.get("latencies") or [[dt] for dt in clock.segments]
    result.update(
        workload=args.workload,
        setup_s=started - args.spawned_at,
        wall_s=wall_s,
        latency_samples=sum(len(seg) for seg in latencies),
        speed=clock.nominal_wall_s() / wall_s,
        nominal_wall_s=clock.nominal_wall_s(),
        # per request, in stream order, scaled by the factor of its segment
        nominal_latencies_ns=[round(x * f) for seg, f in zip(latencies, clock.factors) for x in seg],
        peak_rss_mb=peak_rss_mb,
        sizes=inp["sizes"],
    )
    if args.trace:
        result["layers"], result["missing"] = tracer.summary(wall_s)
        tracer.dump(SPANS.format(workload=args.workload))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
