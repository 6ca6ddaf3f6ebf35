"""Per-layer tracing of c2surf from outside the package.

`Tracer.install` rebinds every public function of the nine c2surf modules (the
names in each module's ``__all__``) to a wrapper that records one span per call,
or one span per step of a generator function.  The rebinding reaches every
c2surf namespace that holds the function, so calls between modules are traced
too.  Two class-level entry points get the same treatment: the validation in
``bilinear.Involution.__post_init__`` and the ``classify.Action.from_word``
classmethod.  Nothing under ``src/`` is edited; the rebinding lives only in the
traced worker process.

Spans are kept in memory as parallel arrays (name, start, end, parent),
summarised when the pass ends and then written out by ``dump``.  A span's self time is its duration minus the
time covered by its child spans.  Counters are recorded at the same call
boundaries.  A metric whose function is missing (renamed or removed) is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("f2", "bilinear", "dd", "orbits", "words", "classify", "counting", "gl2", "cli")

# cli defines no __all__: its public interface is the console-script entry point.
ENTRY_POINTS = {"cli": ("main",)}

# (module, class, attribute, span name) for entry points that live on classes.
CLASS_HOOKS = (
    ("bilinear", "Involution", "__post_init__", "bilinear.Involution"),
    ("classify", "Action", "from_word", "classify.Action.from_word"),
)

INVARIANTS = [
    "words.fixed_data",
    "words.q_sign",
    "words.epsilon",
    "words.underlying_surface",
    "words.beta",
    "words.orientability",
]

# name -> (how it is computed, workloads where it should move, end-to-end
# metrics it should move).  Kinds: ("self", spans) sums self time in seconds;
# ("calls", span); ("count", counter, span) where the span must exist;
# ("ratio", numerator counter, denominator counter, spans that must exist).
PER_LAYER: Dict[str, Tuple[tuple, str, str]] = {
    "classify.taxonomy_cells.self_s": (("self", ["classify.taxonomy_cells"]), "enumerate", "wall_s"),
    "classify.Action.from_word.self_s": (("self", ["classify.Action.from_word"]), "enumerate", "wall_s"),
    "classify.dd_of_word.self_s": (("self", ["classify.dd_of_word"]), "enumerate query", "wall_s latency_p50_us"),
    "classify.dd_of_word.covered_ratio": (
        ("ratio", "classify.dd_of_word.covered", "classify.dd_of_word.calls", ["classify.dd_of_word"]),
        "enumerate query",
        "fail_ratio",
    ),
    "classify.decide_isomorphic.self_s": (("self", ["classify.decide_isomorphic"]), "query", "latency_p50_us"),
    "classify.decide_isomorphic.unavailable": (
        ("count", "classify.decide_isomorphic.unavailable", "classify.decide_isomorphic"),
        "query",
        "fail_ratio",
    ),
    "words.parse_word.self_s": (("self", ["words.parse_word"]), "query", "latency_p50_us"),
    "words.invariants.self_s": (("self", INVARIANTS), "enumerate", "wall_s"),
    "words.normalize.self_s": (("self", ["words.normalize"]), "enumerate query", "wall_s latency_p50_us"),
    "words.normalize.calls": (("calls", "words.normalize"), "enumerate query", "wall_s"),
    "words.normalize.changed_ratio": (
        ("ratio", "words.normalize.changed", "words.normalize.calls", ["words.normalize"]),
        "enumerate query",
        "latency_p50_us",
    ),
    "words.format_word.self_s": (("self", ["words.format_word"]), "enumerate", "wall_s"),
    "cli.main.self_s": (("self", ["cli.main"]), "enumerate count", "wall_s"),
    "counting.A_direct.self_s": (("self", ["counting.A_direct"]), "count", "wall_s"),
    "counting.B_direct.self_s": (("self", ["counting.B_direct"]), "count", "wall_s"),
    "counting.recursive.self_s": (("self", ["counting.A_recursive", "counting.B_recursive"]), "count", "wall_s"),
    "counting.closed.self_s": (
        ("self", ["counting.A_closed", "counting.B_closed", "counting.ab_sum_closed", "counting.total_count"]),
        "count",
        "wall_s",
    ),
    "counting.phi_counts.calls": (("calls", "counting.phi_counts"), "count", "wall_s"),
    "f2.isometries.self_s": (("self", ["f2.isometries"]), "dd_oracle", "wall_s peak_rss_mb"),
    "f2.isometries.found": (("count", "f2.isometries.found", "f2.isometries"), "dd_oracle", "wall_s peak_rss_mb"),
    "f2.isometries.cache_hits": (("count", "f2.isometries.cache_hits", "f2.isometries"), "dd_oracle", "peak_rss_mb"),
    "f2.group_closure.self_s": (("self", ["f2.group_closure"]), "dd_oracle", "wall_s"),
    "f2.group_closure.size": (("count", "f2.group_closure.size", "f2.group_closure"), "dd_oracle", "peak_rss_mb"),
    "dd.involutions_in.self_s": (("self", ["dd.involutions_in"]), "dd_oracle", "wall_s"),
    "dd.conjugacy_classes.self_s": (("self", ["dd.conjugacy_classes"]), "dd_oracle", "wall_s"),
    "dd.conjugacy_oracle.self_s": (("self", ["dd.conjugacy_oracle"]), "dd_oracle", "wall_s"),
    "dd.dd.self_s": (("self", ["dd.dd"]), "dd_oracle", "wall_s"),
    "dd.isometry_generators.count": (
        ("count", "dd.isometry_generators.count", "dd.isometry_generators"),
        "dd_oracle",
        "wall_s",
    ),
    "dd.involution_yield": (
        ("ratio", "dd.involutions_in.found", "f2.isometries.found", ["dd.involutions_in", "f2.isometries"]),
        "dd_oracle",
        "wall_s peak_rss_mb",
    ),
    "dd.dd_direct_sum.self_s": (("self", ["dd.dd_direct_sum"]), "enumerate", "wall_s"),
    "bilinear.Involution.calls": (("calls", "bilinear.Involution"), "dd_oracle", "wall_s"),
    "bilinear.Involution.self_s": (("self", ["bilinear.Involution"]), "dd_oracle", "wall_s"),
    "orbits.orbit_census.self_s": (("self", ["orbits.orbit_census"]), "dd_oracle", "wall_s"),
    "orbits.verify_orthogonal_generators.self_s": (
        ("self", ["orbits.verify_orthogonal_generators"]),
        "dd_oracle",
        "wall_s",
    ),
    "gl2.gl2_reduce.self_s": (("self", ["gl2.gl2_reduce"]), "query", "latency_p50_us"),
    "gl2.gl2_class.self_s": (("self", ["gl2.gl2_class"]), "query", "latency_p50_us"),
}

# Counters recorded around a call: span name -> hook(tracer, args, kwargs,
# pre-call state, result, exception).  PRE hooks compute the pre-call state.
Hook = Callable[["Tracer", tuple, dict, object, object, Optional[BaseException]], None]


def _first_arg(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs.get(name)


def _isometries_pre(tracer: "Tracer", args: tuple, kwargs: dict) -> bool:
    cache = getattr(sys.modules.get("c2surf.f2"), "_ISOMETRY_CACHE", None)
    return isinstance(cache, dict) and _first_arg(args, kwargs, "gram") in cache


def _isometries_post(tracer, args, kwargs, hit, result, exc) -> None:
    if exc is not None:
        return
    if hit:
        tracer.counters["f2.isometries.cache_hits"] += 1
    else:
        tracer.counters["f2.isometries.found"] += len(result)


def _dd_of_word_post(tracer, args, kwargs, state, result, exc) -> None:
    tracer.counters["classify.dd_of_word.calls"] += 1
    if exc is None and result is not None:
        tracer.counters["classify.dd_of_word.covered"] += 1


def _decide_post(tracer, args, kwargs, state, result, exc) -> None:
    if exc is not None and type(exc).__name__ == "DDUnavailableError":
        tracer.counters["classify.decide_isomorphic.unavailable"] += 1


def _normalize_post(tracer, args, kwargs, state, result, exc) -> None:
    tracer.counters["words.normalize.calls"] += 1
    if exc is None and result != _first_arg(args, kwargs, "w"):
        tracer.counters["words.normalize.changed"] += 1


def _len_counter(counter: str) -> Hook:
    def post(tracer, args, kwargs, state, result, exc) -> None:
        if exc is None:
            tracer.counters[counter] += len(result)

    return post


PRE = {"f2.isometries": _isometries_pre}
POST: Dict[str, Hook] = {
    "f2.isometries": _isometries_post,
    "f2.group_closure": _len_counter("f2.group_closure.size"),
    "dd.involutions_in": _len_counter("dd.involutions_in.found"),
    "dd.isometry_generators": _len_counter("dd.isometry_generators.count"),
    "classify.dd_of_word": _dd_of_word_post,
    "classify.decide_isomorphic": _decide_post,
    "words.normalize": _normalize_post,
}


def _requires(spec: tuple) -> List[str]:
    """The spans whose functions must exist for a PER_LAYER metric."""
    kind = spec[0]
    if kind == "self":
        return spec[1]
    if kind == "calls":
        return [spec[1]]
    if kind == "count":
        return [spec[2]]
    return spec[3]


class Tracer:
    """Span and counter recorder; tracing is on only while ``active`` is true."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self.installed: set = set()
        self.active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        self.installed.add(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def steps(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not self.active:
                        yield from it
                        return
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return steps

        pre, post = PRE.get(name), POST.get(name)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = pre(self, args, kwargs) if pre else None
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if post:
                    post(self, args, kwargs, state, None, exc)
                raise
            self._close(idx)
            if post:
                post(self, args, kwargs, state, result, None)
            return result

        return call

    def install(self) -> None:
        """Rebind the public functions of every importable c2surf module."""
        wrappers: Dict[int, Callable] = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"c2surf.{short}")
            except ImportError:
                continue
            for attr in getattr(mod, "__all__", None) or ENTRY_POINTS.get(short, ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "c2surf" or mod_name.startswith("c2surf.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for short, cls_name, attr, span in CLASS_HOOKS:
            cls = getattr(sys.modules.get(f"c2surf.{short}"), cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(span, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(span, raw))

    def summary(self, wall_s: float) -> Tuple[Dict[str, float], List[str]]:
        """Per-layer metrics for one traced pass, and the names found missing."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        root_ns = 0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            nid = self.name[i]
            self_ns[nid] += dur - child[i]
            calls[nid] += 1
            if self.parent[i] < 0:
                root_ns += dur
        by_name = {name: (self_ns[i], calls[i]) for i, name in enumerate(self.names)}
        metrics: Dict[str, float] = {}
        missing: List[str] = []
        for metric, (spec, _, _) in PER_LAYER.items():
            kind = spec[0]
            if not all(name in self.installed for name in _requires(spec)):
                missing.append(metric)
                continue
            if kind == "self":
                metrics[metric] = sum(by_name.get(s, (0, 0))[0] for s in spec[1]) / 1e9
            elif kind == "calls":
                metrics[metric] = by_name.get(spec[1], (0, 0))[1]
            elif kind == "count":
                metrics[metric] = self.counters[spec[1]]
            else:
                den = self.counters[spec[2]]
                metrics[metric] = self.counters[spec[1]] / den if den else 0.0
        metrics["unattributed_s"] = wall_s - root_ns / 1e9
        return metrics, missing

    def dump(self, path: str) -> None:
        """Write every span as ``name start_ns end_ns parent`` lines."""
        with open(path, "w") as out:
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")
