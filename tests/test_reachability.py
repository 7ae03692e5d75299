"""The library is what the commands and the README run.

``cli.main`` runs on the README's configs, and the README's Library
example runs as written, under ``sys.setprofile``.  Every ``def`` in
``src/lacunary/*.py`` that no run enters must be on ``ALLOWLIST``, whose
reasons are checked too.  So a new function that only tests call fails
here, and so does an entry that a run now reaches, one that no longer
exists, or one whose reason no longer holds: when the benchmark drops a
layer, this test names the code that goes with it.

The options check reads the same modules: every parameter with a default
must be passed at some call inside the package, or be on
``UNSET_OPTIONS`` with a reason that holds.  So an option that only tests
set fails here too.

The fields check reads them once more: every field of every dataclass
must be read as an attribute somewhere in the package, or be on
``UNREAD_FIELDS`` with a reason that holds.  So a field that no code
reads fails here, as a def that no run enters does.
"""

import ast
import contextlib
import functools
import io
import json
import re
import sys
from pathlib import Path

import pytest

import lacunary
from lacunary import errors
from lacunary.cli import main

from helpers import bench_run

PKG = Path(lacunary.__file__).resolve().parent
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# benchmarks/run.py traces the name (LAYERS), or only such names call it
BENCHMARK = "benchmark"
# in lacunary.__all__ and named in the README: API for library users
PUBLIC = "public"
# the __init__ of an error class, run only where that error is raised
ERROR_PATH = "error path"
# the console script of pyproject.toml, which passes no argument
ENTRY_POINT = "entry point"

ALLOWLIST = {
    "product.eval_f": BENCHMARK,
    "interpolation.eval_g": BENCHMARK,
    "interpolation.proximity_m": BENCHMARK,
    "interpolation._log_plus": BENCHMARK,
    "growth.nevanlinna": BENCHMARK,
    "growth.counting_N": BENCHMARK,
    "logdomain._require_finite": BENCHMARK,
    "logdomain.principal_arg": BENCHMARK,
    "logdomain.LogComplex.__post_init__": BENCHMARK,
    "logdomain.LogComplex.is_zero": BENCHMARK,
    "logdomain.log_from_value": BENCHMARK,
    "logdomain.to_value": BENCHMARK,
    "logdomain.log_add_ex": BENCHMARK,
    "logdomain.log_add": BENCHMARK,
    "coefficients.eval_A0": PUBLIC,
    "coefficients.eval_B0": PUBLIC,
    "coefficients.eval_AB": PUBLIC,
    "errors.CancellationError.__init__": ERROR_PATH,
    "errors.QuadratureError.__init__": ERROR_PATH,
    "errors.PrecisionInsufficient.__init__": ERROR_PATH,
}


# "module.def(parameter)": a default that no call inside the package sets
UNSET_OPTIONS = {
    "cli.main(argv)": ENTRY_POINT,
}

# "module.Class.field": a dataclass field that no code of the package reads
UNREAD_FIELDS = {}


def _readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block of the README after ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


@functools.cache
def _modules() -> dict:
    """{module name: its ast} for every module of the package."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PKG.glob("*.py"))
    }


def _defs(modules) -> dict:
    """{"module.Class.name": (module, def node)} for every def."""
    found = {}

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                assert name not in found, f"{name} is defined twice"
                found[name] = (module, child)
                visit(module, child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(module, child, f"{prefix}{child.name}.")
            else:
                visit(module, child, prefix)

    for module, tree in modules.items():
        visit(module, tree, f"{module}.")
    return found


def _first_line(node) -> int:
    """The code object's co_firstlineno: a decorated def starts at its
    first decorator."""
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def _entered_code(tmp_path) -> set:
    """(module, first line, name) of each code object of the package that
    the commands and the Library example enter."""
    schema = _readme_block("### Config schema", "json")
    rule, explicit = (json.loads(line) for line in schema.splitlines())
    paths = {}
    configs = {"headline": {**rule, "rho_H": 0.4}, "rule": rule, "explicit": explicit}
    for name, payload in configs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    art = tmp_path / "art"
    headline = ["--config", str(paths["headline"])]
    runs = [
        ["construct", *headline, "--out", str(art)],
        ["verify", *headline, "--out", str(out), "--checks", "all", "--points", "2"],
        ["verify", *headline, "--out", str(tmp_path / "from_art"), "--artifacts", str(art),
         "--checks", "interpolation,summability,residual", "--points", "2"],
        *(["scan", *headline, "--out", str(out), "--scan", kind, "--angles", "8"]
          for kind in ("order", "witness", "indicator")),
        ["report", "--out", str(out)],
        ["scan", "--config", str(paths["rule"]), "--out", str(tmp_path / "rule"),
         "--scan", "indicator", "--angles", "8"],
        ["verify", "--config", str(paths["explicit"]), "--out", str(tmp_path / "explicit"),
         "--checks", "all", "--points", "2"],
    ]
    example = compile(_readme_block("## Library", "python"), "README.md", "exec")

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in runs:
                codes.append((argv, main(argv)))
            exec(example, {"__name__": "readme_library_example"})
    finally:
        sys.setprofile(previous)
    for argv, code in codes:
        # exit 2 refuses the run before it computes anything; 1 is a failed
        # record, and 3 the indicator scan of H past its certified radius
        assert code != 2, argv
    files = {name: Path(name).resolve() for name in {c.co_filename for c in entered}}
    return {
        (files[c.co_filename].stem, c.co_firstlineno, c.co_name)
        for c in entered
        if files[c.co_filename].parent == PKG
    }


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The names of the defs that some run enters."""
    code = _entered_code(tmp_path_factory.mktemp("reach"))
    return {
        name
        for name, (module, node) in _defs(_modules()).items()
        if (module, _first_line(node), node.name) in code
    }


def test_every_def_is_reached_or_allowlisted(reached):
    unreached = set(_defs(_modules())) - reached - set(ALLOWLIST)
    assert not unreached, (
        f"no command and no README example enters {sorted(unreached)}: "
        "give it a caller, move it to tests/, or delete it"
    )


def test_no_allowlisted_def_is_reached(reached):
    stale = sorted(set(ALLOWLIST) & reached)
    assert not stale, f"allowlisted but reached: {stale}; take them off ALLOWLIST"


def test_every_allowlisted_def_exists():
    gone = sorted(set(ALLOWLIST) - set(_defs(_modules())))
    assert not gone, f"allowlisted but not defined: {gone}; take them off ALLOWLIST"


@functools.cache
def _layers() -> frozenset:
    """``LAYERS`` of ``benchmarks/run.py``: the names the benchmark traces."""
    with bench_run() as run:
        return frozenset(run.LAYERS)


def _callers(defs, name) -> set:
    """The defs other than ``name`` whose body names its last component."""
    short = name.rsplit(".", 1)[1]
    return {
        other
        for other, (_, node) in defs.items()
        if other != name
        and any(
            (isinstance(sub, ast.Name) and sub.id == short)
            or (isinstance(sub, ast.Attribute) and sub.attr == short)
            for sub in ast.walk(node)
        )
    }


def _benchmark_keeps(name, defs, layers, allowlist=ALLOWLIST, path=frozenset()) -> bool:
    """The ``benchmark`` reason: ``name`` is in ``layers``, or it has
    callers and each of them is a ``benchmark`` entry of ``allowlist``
    that holds.  A method that no def names, such as a dataclass hook,
    holds through its class: the class's callers count as its own.  A
    caller already on the ``path`` of callers being checked closes a loop
    and is passed over, so a loop holds only through a caller outside it."""
    if name in layers:
        return True
    path = path | {name}
    callers = _callers(defs, name)
    owner = name.rsplit(".", 1)[0]
    if not callers and owner.count(".") == 1 and owner not in defs:
        callers = _callers(defs, owner)
    callers -= path
    return bool(callers) and all(
        allowlist.get(c) == BENCHMARK and _benchmark_keeps(c, defs, layers, allowlist, path)
        for c in callers
    )


# (source of a module "m", its traced names, its benchmark entries, the
# entry checked, whether the benchmark reason holds for it); a traced name
# that no run enters is an entry too, as ``logdomain.log_add`` is
BENCHMARK_RULE_CASES = {
    "a traced name": ("def t(): pass", {"m.t"}, {"m.t"}, "m.t", True),
    "called by a traced name": (
        "def t(): h()\ndef h(): pass", {"m.t"}, {"m.t", "m.h"}, "m.h", True),
    "called through a chain of entries": (
        "def t(): g()\ndef g(): h()\ndef h(): pass", {"m.t"}, {"m.t", "m.g", "m.h"}, "m.h", True),
    "called by nothing": ("def t(): pass\ndef h(): pass", {"m.t"}, {"m.t", "m.h"}, "m.h", False),
    "called only by an entry that nothing calls": (
        "def t(): pass\ndef d(): h()\ndef h(): pass", {"m.t"}, {"m.t", "m.d", "m.h"}, "m.h", False),
    "called also by a dead entry": (
        "def t(): h()\ndef d(): h()\ndef h(): pass", {"m.t"}, {"m.t", "m.d", "m.h"}, "m.h", False),
    "called by a def off the allowlist": (
        "def t(): pass\ndef x(): h()\ndef h(): pass", {"m.t"}, {"m.t", "m.h"}, "m.h", False),
    "a hook of a class that a traced name builds": (
        "class C:\n    def hook(self): pass\ndef t(): return C()", {"m.t"}, {"m.t", "m.C.hook"},
        "m.C.hook", True),
    "a hook of a class that only a dead entry builds": (
        "class C:\n    def hook(self): pass\ndef t(): pass\ndef d(): return C()",
        {"m.t"}, {"m.t", "m.C.hook", "m.d"}, "m.C.hook", False),
    "in a loop that a traced name enters": (
        "def t(): a()\ndef a(): b()\ndef b(): a()", {"m.t"}, {"m.t", "m.a", "m.b"}, "m.b", True),
    "in a loop that nothing enters": (
        "def t(): pass\ndef a(): b()\ndef b(): a()", {"m.t"}, {"m.t", "m.a", "m.b"}, "m.b", False),
}


@pytest.mark.parametrize("case", sorted(BENCHMARK_RULE_CASES))
def test_benchmark_reason_rule(case):
    """The ``benchmark`` reason holds a def only where a traced name reaches
    it through entries that hold: a module that a layer names keeps
    nothing on its own."""
    source, layers, entries, name, holds = BENCHMARK_RULE_CASES[case]
    defs = _defs({"m": ast.parse(source)})
    allowlist = dict.fromkeys(entries, BENCHMARK)
    assert _benchmark_keeps(name, defs, frozenset(layers), allowlist) is holds


@pytest.mark.parametrize("name", sorted(ALLOWLIST))
def test_allowlist_reason_holds(name):
    reason = ALLOWLIST[name]
    module, qualname = name.split(".", 1)
    if reason == BENCHMARK:
        assert _benchmark_keeps(name, _defs(_modules()), _layers()), (
            f"{name}: not in benchmarks/run.py LAYERS, and not kept alive by a name that is"
        )
    elif reason == PUBLIC:
        assert qualname in lacunary.__all__, f"{name} is not in lacunary.__all__"
        assert re.search(rf"`{re.escape(qualname)}[`(]", README), f"the README does not name {name}"
    else:
        assert reason == ERROR_PATH, f"{name}: unknown reason {reason!r}"
        cls, method = qualname.split(".")
        assert module == "errors" and method == "__init__", name
        assert issubclass(getattr(errors, cls), errors.LacunaryError), name


def _options(defs) -> dict:
    """{"module.def(parameter)": (parameter, short name a call uses,
    positional index or None)} for every parameter with a default; a
    method's index counts from the argument after self, and a call of its
    class is a call of ``__init__``."""
    methods = {
        id(child)
        for tree in _modules().values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for child in cls.body
        if isinstance(child, ast.FunctionDef)
    }
    options = {}
    for name, (_, node) in defs.items():
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in methods else 0
        short = name.split(".")[-2] if node.name == "__init__" else node.name
        defaulted = [
            (arg, index - skip)
            for index, arg in enumerate(positional)
            if index >= len(positional) - len(args.defaults)
        ]
        defaulted += [
            (arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for arg, index in defaulted:
            options[f"{name}({arg.arg})"] = arg.arg, short, index
    return options


def _passed(parameter, short, index, calls) -> bool:
    """Whether some call of ``calls`` to ``short`` passes ``parameter``, by
    keyword or at positional ``index`` (None: keyword-only)."""
    for call in calls:
        func = call.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != short:
            continue
        if any(kw.arg in (parameter, None) for kw in call.keywords):
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        if index is not None and (starred or index < len(call.args)):
            return True
    return False


def _unset_options() -> set:
    """The defaulted parameters that no call inside the package passes."""
    calls = [node for tree in _modules().values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    return {
        key
        for key, (parameter, short, index) in _options(_defs(_modules())).items()
        if not _passed(parameter, short, index, calls)
    }


def test_every_option_is_set_inside_the_package():
    unset = sorted(_unset_options() - set(UNSET_OPTIONS))
    assert not unset, (
        f"no call inside the package sets {unset}: write the default into the body, "
        "or give the parameter a caller"
    )


@pytest.mark.parametrize("option", sorted(UNSET_OPTIONS))
def test_unset_option_reason_holds(option):
    assert option in _unset_options(), (
        f"{option} is set inside the package or no longer a defaulted parameter; "
        "take it off UNSET_OPTIONS"
    )
    name = option.split("(")[0]
    reason = UNSET_OPTIONS[option]
    if reason == ENTRY_POINT:
        module, qualname = name.split(".", 1)
        pyproject = (PKG.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert f'"lacunary.{module}:{qualname}"' in pyproject, f"{name} is no console script"
    else:
        assert reason == BENCHMARK, f"{option}: unknown reason {reason!r}"
        assert _benchmark_keeps(name, _defs(_modules()), _layers()), (
            f"{name}: not in benchmarks/run.py LAYERS, and not kept alive by a name that is"
        )


def _dataclass_fields(modules) -> dict:
    """{"module.Class.field": field name} for every annotated field of every
    class decorated with ``dataclass`` or ``dataclass(...)``."""
    fields = {}
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                       for d in decorators):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields[f"{module}.{cls.name}.{stmt.target.id}"] = stmt.target.id
    return fields


def _unread_fields() -> set:
    """The dataclass fields whose name no attribute read of the package
    (``x.name`` in load context) carries.  It matches by name alone, so it
    misses a field whose name the attribute of another object shares: a
    read of ``cfg.dps`` keeps every field named ``dps``."""
    modules = _modules()
    reads = {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {name for name, attr in _dataclass_fields(modules).items() if attr not in reads}


def test_every_dataclass_field_is_read():
    unread = sorted(_unread_fields() - set(UNREAD_FIELDS))
    assert not unread, (
        f"no code of the package reads {unread}: delete the field, or form "
        "the value where it is read"
    )


def test_unread_field_entries_hold():
    unread = _unread_fields()
    for name, reason in UNREAD_FIELDS.items():
        assert name in unread, f"{name} is read or no longer a field; take it off UNREAD_FIELDS"
        _, cls, attr = name.split(".")
        assert reason == PUBLIC, f"{name}: unknown reason {reason!r}"
        assert cls in lacunary.__all__, f"{name}: {cls} is not in lacunary.__all__"
        assert f"`{attr}`" in README, f"the README does not name {name}"
