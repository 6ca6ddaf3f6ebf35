"""Package structure: public names resolve, private names stay in their module,
and the benchmark worker's calls into the package still bind."""

import ast
import functools
import importlib
import inspect
import pathlib

import pytest

import c2surf
from c2surf import classify, words

MODULES = ("f2", "bilinear", "dd", "orbits", "words", "classify", "counting", "gl2", "cli")
SRC = pathlib.Path(c2surf.__file__).parent
BENCH_WORKER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "worker.py"


@pytest.mark.parametrize("name", ("__init__",) + MODULES)
def test_all_names_exist(name):
    mod = c2surf if name == "__init__" else importlib.import_module(f"c2surf.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
    # no name the package root imports shadows a submodule
    shadowed = [n for n in MODULES if importlib.import_module(f"c2surf.{n}") is not getattr(c2surf, n)]
    assert shadowed == []


def _private_imports(path: pathlib.Path):
    """(line, text) for every private name one c2surf module takes from another."""
    tree = ast.parse(path.read_text())
    sibling_modules = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "c2surf"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, f"from {node.module or '.'} import {alias.name}"))
            elif node.module in (None, "c2surf") and alias.name in MODULES:
                sibling_modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in sibling_modules
            and node.attr.startswith("_")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert _private_imports(path) == []


def test_private_import_check_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .dd import _helper\nfrom . import f2\nf2._ISOMETRY_CACHE\n")
    assert [text for _, text in _private_imports(probe)] == [
        "from dd import _helper",
        "f2._ISOMETRY_CACHE",
    ]


def _bench_worker_references():
    """The c2surf modules bench/worker.py binds with ``importlib.import_module``,
    by alias, and every ``alias.name`` it reads, with the call when it calls it."""
    tree = ast.parse(BENCH_WORKER.read_text())
    modules = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        func, args = node.value.func, node.value.args
        if (
            getattr(func, "attr", None) == "import_module"
            and args
            and isinstance(args[0], ast.Constant)
            and str(args[0].value).startswith("c2surf.")
        ):
            modules[node.targets[0].id] = importlib.import_module(args[0].value)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    refs = [
        (node.value.id, node.attr, calls.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    return modules, refs


def test_bench_worker_names_resolve():
    modules, refs = _bench_worker_references()
    assert len(modules) == 8
    assert [f"{a}.{n}" for a, n, _ in refs if not hasattr(modules[a], n)] == []


def test_bench_worker_calls_bind():
    modules, refs = _bench_worker_references()
    unbound, with_bound = [], set()
    for alias, name, call in refs:
        starred = call is not None and any(isinstance(arg, ast.Starred) for arg in call.args)
        if call is None or starred or not hasattr(modules[alias], name):
            continue
        kwargs = {kw.arg: None for kw in call.keywords if kw.arg}
        if "bound" in kwargs:
            with_bound.add(f"{alias}.{name}")
        try:
            inspect.signature(getattr(modules[alias], name)).bind_partial(*call.args, **kwargs)
        except TypeError as exc:
            unbound.append((call.lineno, f"{alias}.{name}", str(exc)))
    assert unbound == []
    assert with_bound == {"dd.conjugacy_classes", "dd.conjugacy_oracle"}


CLASSIFY = SRC / "classify.py"
PRODUCTION_ROOTS = (
    "iter_actions", "taxonomy_cells", "count_actions", "_cell_rules", "_orientable_rules",
    "_rule_rows", "class_groups",
)
CLI = SRC / "cli.py"
CLI_PRODUCTION_ROOTS = ("cmd_enumerate", "_write_classes")
ORACLE_NAMES = {"from_word", "dd_of_word", "normalize", "fixed_data", "q_sign", "epsilon", "scherrer_admissible"}
DD = SRC / "dd.py"
DD_PRODUCTION_ROOTS = ("conjugacy_classes", "involutions_in", "dd_classifies")
DD_ORACLE_NAMES = {"isometries"}
DD_CLOSURE_NAMES = {"orbit", "involutive_isometries"}


def _oracle_references(path: pathlib.Path, roots=PRODUCTION_ROOTS, oracle_names=ORACLE_NAMES):
    """(function, name) for every oracle name that a module-level function
    reachable from `roots` reads, as a plain name or as an attribute; an
    oracle defined in the module is reported, not followed."""
    functions = {
        node.name: node
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    seen, todo, found = set(), list(roots), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ref in oracle_names:
                found.append((name, ref))
            elif ref in functions:
                todo.append(ref)
    return sorted(found)


def test_enumeration_path_stays_off_the_oracle():
    # the enumerator, the tables and the count take every invariant from the
    # cell rules; re-deriving them from the word is the oracle's job
    assert _oracle_references(CLASSIFY) == []
    # the text `enumerate` prints, trivial lines included, comes from that
    # table too, no word parsed or re-derived
    assert _oracle_references(CLI, CLI_PRODUCTION_ROOTS) == []
    # the DD classes come from the involution search; enumerating the whole
    # isometry group is the conjugacy oracle's job
    assert _oracle_references(DD, DD_PRODUCTION_ROOTS, DD_ORACLE_NAMES) == []
    # and the conjugacy oracle stays a scan of the whole group, reading
    # neither the involution search nor the orbit closure that it checks
    assert _oracle_references(DD, ("conjugacy_oracle",), DD_ORACLE_NAMES | DD_CLOSURE_NAMES) == [
        ("conjugacy_oracle", "isometries")
    ]


def test_word_path_stays_off_the_rewriting_system():
    # a word's DD is the closed form of its key, and the decision compares
    # keys; rewriting words is the oracle of `verify rewrites`
    assert _oracle_references(CLASSIFY, ("dd_of_word", "class_dd", "decide_isomorphic"), {"normalize"}) == []


H1_MODEL = pathlib.Path(__file__).resolve().parent / "h1_model.py"


def test_h1_model_reads_nothing_of_classify():
    # the model is the reference that the closed form is checked against, so
    # of c2surf it imports only the word type, the GF(2) forms and `dd.dd`
    tree = ast.parse(H1_MODEL.read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("c2surf")
        for alias in node.names
    }
    assert not any(name.startswith("c2surf") for name in imported)
    assert {module for module, _ in names} == {"c2surf.bilinear", "c2surf.dd", "c2surf.f2", "c2surf.words"}
    assert {name for module, name in names if module == "c2surf.dd"} == {"DDTuple", "dd"}


def test_oracle_reference_check_follows_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def iter_actions(r):\n    return _rule(r)\n"
        "def _rule(r):\n    return classify.Action.from_word(r), normalize(r)\n"
        "def taxonomy_cells(r):\n    pass\n"
    )
    assert _oracle_references(probe, ("iter_actions", "taxonomy_cells")) == [
        ("_rule", "from_word"),
        ("_rule", "normalize"),
    ]


ORBITS = SRC / "orbits.py"


def test_free_involutions_stay_off_the_taxonomy_bound():
    # the free involutions and covers take the enumeration's own rows; the
    # taxonomy bound is the oracle that checks which rows the walk has, and
    # the quotient read off the word is the oracle that checks the covers
    assert _oracle_references(
        ORBITS,
        ("classify_free_structures", "covers_of"),
        {"cell_words", "scherrer_admissible", "quotient_space", "q_sign"},
    ) == []


def _word_constructions(path: pathlib.Path):
    """(line, call) for every ``SurgeryWord(...)``, ``BaseSpace(...)`` and
    ``BaseSpace.<factory>(...)`` call in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = getattr(func, "value", None)
        if name in ("SurgeryWord", "BaseSpace"):
            found.append((node.lineno, name))
        elif isinstance(owner, ast.Name) and owner.id == "BaseSpace":
            found.append((node.lineno, f"BaseSpace.{name}"))
    return found


def test_free_involutions_come_from_the_enumeration():
    # the free involutions and covers in orbits are read off the enumeration;
    # a word built there by hand would be a second list of the same classes
    assert _word_constructions(ORBITS) == []


def test_word_construction_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "a = SurgeryWord(b)\nb = BaseSpace.tanti(1)\nc = words.SurgeryWord(b)\n"
        "d = BaseSpace(k)\ne = Surface(True, 1)\n"
    )
    assert _word_constructions(probe) == [
        (1, "SurgeryWord"),
        (2, "BaseSpace.tanti"),
        (3, "SurgeryWord"),
        (4, "BaseSpace"),
    ]


# The one unbounded cache left in src/: the isometry groups the oracles reuse,
# kept until a certificate check replaces the whole-group spot checks.
UNBOUNDED_CACHE_EXCEPTIONS = {("f2.py", "_ISOMETRY_CACHE")}


def _unbounded_caches(path: pathlib.Path):
    """(line, text) for every cache in a module that can grow for the life of
    the process: ``functools.cache``, ``lru_cache`` with maxsize None, and a
    module-level name containing CACHE bound to a dict."""
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "functools.cache") for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", None) == "functools":
            found.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.Call) and "lru_cache" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            size = node.args[0] if node.args else next((kw.value for kw in node.keywords if kw.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and size.value is None:
                found.append((node.lineno, "lru_cache(maxsize=None)"))
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        name = getattr(node.target if isinstance(node, ast.AnnAssign) else node.targets[0], "id", "")
        value = node.value
        is_dict = isinstance(value, ast.Dict) or (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict")
        if "CACHE" in name and is_dict and (path.name, name) not in UNBOUNDED_CACHE_EXCEPTIONS:
            found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    # memory stays bounded: a memo in src/ names its size
    assert _unbounded_caches(path) == []


def test_unbounded_cache_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef a(x): pass\n"
        "@lru_cache(maxsize=None)\ndef b(x): pass\n"
        "@functools.lru_cache(None)\ndef c(x): pass\n"
        "@lru_cache(maxsize=256)\ndef d(x): pass\n"
        "@lru_cache\ndef e(x): pass\n"
        "_WORD_CACHE = {}\n_ISOMETRY_CACHE: dict = dict()\n_CACHE_SIZE = 4096\n"
    )
    assert _unbounded_caches(probe) == [
        (2, "functools.cache"),
        (3, "functools.cache"),
        (5, "lru_cache(maxsize=None)"),
        (7, "lru_cache(maxsize=None)"),
        (13, "_WORD_CACHE"),
        (14, "_ISOMETRY_CACHE"),
    ]


def _plain(obj) -> bool:
    """A plain function or a class: what the benchmark tracer can rebind."""
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_are_plain(name):
    # the per-layer metrics trace each public name by rebinding its function;
    # a decorator's wrapper (an lru_cache) there would lose the span, so a
    # memo sits behind a plain function instead
    mod = importlib.import_module(f"c2surf.{name}")
    public = [(n, getattr(mod, n)) for n in getattr(mod, "__all__", ())]
    assert [n for n, obj in public if callable(obj) and not _plain(obj)] == []


def test_plain_callable_check_sees_a_memo_wrapper():
    assert _plain(_plain) and _plain(pathlib.Path)
    assert not _plain(functools.lru_cache(maxsize=2)(_plain))


def _declared_memos(module):
    """name -> memo for every function a module's source puts under an
    ``lru_cache`` decorator, at module level or in a class body."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    scopes = [("", module, tree.body)]
    scopes += [(f"{node.name}.", getattr(module, node.name), node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
    found = {}
    for prefix, owner, body in scopes:
        for node in body:
            if isinstance(node, ast.FunctionDef) and any("lru_cache" in ast.unparse(d) for d in node.decorator_list):
                obj = vars(owner)[node.name]
                found[f"{module.__name__}.{prefix}{node.name}"] = getattr(obj, "__func__", obj)
    return found


def test_memo_inventory():
    # every memo in src/ is named here, so a new memo is added on purpose and
    # one that stops paying is seen when it is deleted
    declared = {}
    for name in MODULES:
        declared.update(_declared_memos(importlib.import_module(f"c2surf.{name}")))
    assert set(declared) == {
        "c2surf.dd._form",
        "c2surf.words._parse_op",
        "c2surf.words._word",
        "c2surf.classify.Action.from_word",
        "c2surf.cli.build_parser",
    }


def test_word_memos_start_empty(word_memos):
    # every memo the word path declares is one that conftest empties, so each
    # test starts with all of them holding nothing, a memo added later too
    declared = {**_declared_memos(words), **_declared_memos(classify)}
    assert {
        "c2surf.words._parse_op", "c2surf.words._word", "c2surf.classify.Action.from_word",
    } <= set(declared)
    assert [name for name, memo in declared.items() if not any(memo is m for m in word_memos)] == []
    assert {name: memo.cache_info().currsize for name, memo in declared.items() if memo.cache_info().currsize} == {}
