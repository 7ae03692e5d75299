"""Module boundaries: no library code uses the log-domain number format,
f and g share one certified domain, one kernel forms and screens the
factors of both canonical products, no guarded pass reaches that
kernel's cancellation screen, and every error but ConfigError is
numerical.

``logdomain`` is imported only by the package ``__init__.py``, as a
module that binds none of its names; every evaluator runs with its
functions made to raise.  Everything the package hands across a module
boundary, and everything it exports, is plain mpmath.  Away from the
zeros, ``coefficients.py`` takes f' and f'' for B0 from the one pass of
``product._f_jet_and_head``, and f' for the finite-difference route from
``product.f_jet``, rather than assembling them from ``log_derivative``.
Only that pass forms f'': ``f_jet`` has no order-2 mode, and
``proximity_m`` no default, that only tests select.
"""

import ast
import dataclasses
import random
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

import lacunary
import lacunary.cli
from lacunary import (
    CancellationError, NearPoleError, NearZeroError, TailError, config_from_blocks, make_schedule
)
from lacunary import product
import lacunary.logdomain
from lacunary.coefficients import build_H, make_system
from lacunary.interpolation import RationalInterpolant, eval_g, g_tail_bound, residues_from_f
from lacunary.product import (
    derivs_at_zero,
    eval_f,
    eval_f_scan,
    f_jet,
    f_tail_log_bound,
    log_derivative,
    zero_point,
)

PACKAGE = Path(lacunary.__file__).resolve().parent

LOG_DOMAIN_NAMES = (
    "LOG_ZERO",
    "LogComplex",
    "log_add",
    "log_add_ex",
    "log_from_value",
    "principal_arg",
    "to_value",
)


def _imports_logdomain(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.endswith("logdomain") and (node.level > 0 or module == "lacunary.logdomain"):
                return True
            if module in ("", "lacunary") and any(a.name == "logdomain" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "lacunary.logdomain" for a in node.names):
                return True
    return False


def _binds_logdomain_names(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("logdomain"):
            return True
    return False


def test_only_init_imports_logdomain():
    """Only __init__.py imports logdomain, as a module, binding none of its
    names (the benchmark's traced run looks the module up)."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    importers = {name for name, tree in trees.items() if _imports_logdomain(tree)}
    assert importers == {"__init__.py"}
    assert not any(_binds_logdomain_names(tree) for tree in trees.values())


def test_package_exports_no_log_domain_name():
    for name in LOG_DOMAIN_NAMES:
        assert name not in lacunary.__all__
        assert not hasattr(lacunary, name), name
    for name in lacunary.__all__:
        assert getattr(getattr(lacunary, name), "__module__", None) != "lacunary.logdomain", name


def test_public_evaluators_return_mpc():
    cfg = config_from_blocks([(4, 2), (16, 4)])
    rule_cfg = make_schedule(0.5, 2, "factorial")
    assert eval_f(cfg, 4) == 0  # on a zero: the exact zero
    with pytest.raises(CancellationError) as lossy:
        eval_f(cfg, 4 * (1 + mpf(10) ** -98))
    values = [
        eval_f(cfg, 2),
        eval_f(cfg, 0),
        eval_f(cfg, 4),
        lossy.value.result,  # the lossy value
        eval_f(rule_cfg, mpc(3, 1)),
        eval_f_scan(rule_cfg, mpc(40, 1)),
        *derivs_at_zero(cfg, 2, 1),
        build_H(0.25).eval(mpc(1, 2)),
    ]
    for value in values:
        assert isinstance(value, mpc), type(value)


def test_factor_extraction_runs_without_the_log_domain(monkeypatch):
    """Every evaluator of f runs while each function of lacunary.logdomain
    is patched to raise, under every name that binds it in the package."""

    def refuse(*args, **kwargs):
        raise AssertionError("log domain used")

    functions = {
        name: value
        for name, value in vars(lacunary.logdomain).items()
        if callable(value) and getattr(value, "__module__", None) == "lacunary.logdomain"
    }
    tree = ast.parse(Path(lacunary.logdomain.__file__).read_text(encoding="utf-8"))
    # every function and class that the module defines, so none escapes the patch
    assert set(functions) == {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    ids = {id(value) for value in functions.values()}
    modules = [m for n, m in sys.modules.items() if n == "lacunary" or n.startswith("lacunary.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in ids:
                monkeypatch.setattr(module, name, refuse)
    cfg = config_from_blocks([(4, 2), (16, 4)])
    rule_cfg = make_schedule(0.5, 5, "factorial")
    for k, m in ((1, 1), (2, 3)):
        assert len(derivs_at_zero(cfg, k, m)) == 2
    rat = residues_from_f(cfg)
    assert sum(map(len, rat.residues)) == 6
    z = mpc(3, 1)
    assert eval_f(cfg, z) == f_jet(cfg, z)[0]
    assert len(f_jet(rule_cfg, z)) == 2
    assert log_derivative(rule_cfg, z) != 0
    assert eval_f_scan(rule_cfg, mpc(40, 1)) != 0


def test_scan_cancellation_carries_mpc():
    """eval_f_scan raises the same CancellationError as eval_f near a zero,
    carrying the lossy factor as an mpc."""
    cfg = config_from_blocks([(4, 2), (16, 4)])
    z = 4 * (1 + mpf(10) ** -98)
    for evaluate in (eval_f, eval_f_scan):
        with pytest.raises(CancellationError) as info:
            evaluate(cfg, z)
        assert isinstance(info.value.result, mpc), evaluate.__name__


def test_coefficients_does_not_use_log_derivative():
    tree = ast.parse((PACKAGE / "coefficients.py").read_text(encoding="utf-8"))
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(tree)
    }
    assert "log_derivative" not in names
    assert "f_jet" in names


def test_f_and_g_share_one_certified_domain():
    """factorial K=2 is certified on |z| < r_3/2 = 32: at |z| = 32 f, f_jet,
    the tail bound of f, g and the tail bound of g all raise TailError."""
    cfg = make_schedule(0.5, 2, "factorial")
    rat = residues_from_f(cfg)
    edge = cfg.block(cfg.K + 1)[0] / 2
    assert edge == 32
    for z in (edge, mpc(0, edge)):
        for evaluate in (
            lambda: eval_f(cfg, z),
            lambda: f_jet(cfg, z),
            lambda: f_tail_log_bound(cfg, abs(z)),
            lambda: eval_g(rat, z),
            lambda: g_tail_bound(rat, abs(z)),
        ):
            with pytest.raises(TailError):
                evaluate()
    inside = edge * (1 - mpf(10) ** -20)
    assert eval_g(rat, inside) != 0 and g_tail_bound(rat, inside) > 0


def test_every_error_but_config_is_numerical():
    """The CLI maps ConfigError to exit 2 and NumericalError to exit 3, so
    every other class in errors.py must derive from NumericalError."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def numerical(name):
        return name == "NumericalError" or any(numerical(b) for b in bases.get(name, ()))

    others = sorted(set(bases) - {"LacunaryError", "ConfigError"})
    assert "NumericalError" in others and len(others) > 1
    assert [name for name in others if not numerical(name)] == []


def _sites(tree: ast.AST, match) -> list[str]:
    """Dotted names of the functions (and classes) whose bodies hold a node
    that ``match`` accepts, once per node; module level has the empty name."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return sites


def _call_sites(tree: ast.AST, name: str) -> list[str]:
    """Dotted names of the functions (and classes) whose bodies call
    ``name``; a call at module level has the empty name."""

    def calls(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name in (
            getattr(func, "id", None), getattr(func, "attr", None)
        )

    return _sites(tree, calls)


def test_one_memo_per_config():
    """A config keeps its memos in one field, ``_memo``, outside ``__init__``,
    and ``LacunaryConfig._memo_of`` alone gets or builds them: no other code
    of the package reads, subscripts, assigns or mutates ``._memo``."""
    fields = [f.name for f in dataclasses.fields(product.LacunaryConfig) if not f.init]
    assert fields == ["_memo"]
    sites = {
        f"{path.stem}.{site}"
        for path in PACKAGE.glob("*.py")
        for site in _sites(
            ast.parse(path.read_text(encoding="utf-8")),
            lambda node: isinstance(node, ast.Attribute) and node.attr == "_memo",
        )
    }
    assert sites == {"product.LacunaryConfig._memo_of"}


def test_one_cancellation_screen():
    """CancellationError is constructed by f's factor kernel, which H's
    factors reach through ``_jet`` as f's do, and by the B0 quotient,
    nowhere else (``logdomain`` is excepted until it is deleted)."""
    sites = sorted(
        f"{path.stem}.{site}"
        for path in PACKAGE.glob("*.py")
        if path.name != "logdomain.py"
        for site in _call_sites(ast.parse(path.read_text(encoding="utf-8")), "CancellationError")
    )
    assert sites == ["coefficients._direct", "product._block_terms"]


def test_one_kernel_for_both_canonical_products():
    """f's factor kernel ``_block_terms`` is called by the product loop
    ``_sweep`` behind ``_jet`` and by the residue pass's screen, nowhere
    else: H is a list of degree-1 blocks that ``HProduct.eval`` hands to
    ``_jet``."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    sites = sorted(
        f"{stem}.{site}"
        for stem, tree in trees.items()
        for site in _call_sites(tree, "_block_terms")
    )
    assert sites == ["product._block_residues", "product._sweep"]
    assert "HProduct.eval" in _call_sites(trees["coefficients"], "_jet")


def _squares_plus(node) -> bool:
    """``x * x + y`` with x and y names: f'' = f (L1^2 + L1')'s bracket."""
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and isinstance(node.right, ast.Name) and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Mult)
        and all(isinstance(x, ast.Name) for x in (node.left.left, node.left.right))
        and node.left.left.id == node.left.right.id
    )


def test_one_route_forms_f_second_derivative():
    """f'' is formed on B0's route alone, ``_f_jet_and_head``: no def of the
    package takes ``order`` but the kernel's ``_jet`` and ``_finish``, so
    ``f_jet`` has no order-2 mode that only tests select, and the bracket
    L1^2 + L1' of f'' = f (L1^2 + L1') is written once.  ``proximity_m``
    has no parameter with a default: every caller names the pole moduli
    its quadrature keeps away from."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    takes_order = sorted(
        f"{stem}.{site}"
        for stem, tree in trees.items()
        for site in _sites(tree, lambda node: isinstance(node, ast.arg) and node.arg == "order")
    )
    assert takes_order == ["product._finish", "product._jet"]
    brackets = sorted(
        f"{stem}.{site}" for stem, tree in trees.items() for site in _sites(tree, _squares_plus)
    )
    assert brackets == ["product._f_jet_and_head"]
    (proximity,) = [
        node for node in trees["interpolation"].body
        if isinstance(node, ast.FunctionDef) and node.name == "proximity_m"
    ]
    assert proximity.args.defaults == [] and not any(proximity.args.kw_defaults)


def test_one_home_for_circle_nodes():
    """Directions on a circle are formed by ``_unit_root`` for the roots of
    unity that the zeros and the residue pass share, and by
    ``_circle_levels`` for the nested trapezoid rule that the f' windings,
    the 2f quadrature and ``proximity_m`` share, nowhere else."""
    sites = sorted(
        f"{path.stem}.{site}"
        for path in PACKAGE.glob("*.py")
        for site in _call_sites(ast.parse(path.read_text(encoding="utf-8")), "expjpi")
    )
    assert sites == ["product._circle_levels", "product._unit_root"]


def test_root_index_kernel_serves_the_block_pass_alone():
    """``_extracted_raw`` is called by the residue pass's range function,
    ``_block_residues.closed_form`` (which ``_in_ranges`` runs on every
    CPU), and nowhere else, its per-pair helper ``_pair_terms`` by it alone, and ``derivs_at_zero``
    reaches none of them nor ``_other_blocks``: the f' and f'' that 3f
    holds the stored residues against come from f's one-pass kernel, so a
    fault in the block pass shows."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    assert [site for tree in trees for site in _call_sites(tree, "_extracted_raw")] == [
        "_block_residues.closed_form"
    ]
    assert [site for tree in trees for site in _call_sites(tree, "_pair_terms")] == [
        "_extracted_raw"
    ]
    assert "derivs_at_zero" not in [
        site for tree in trees for site in _call_sites(tree, "_other_blocks")
    ]


def test_only_product_imports_libmp():
    """mpmath's raw tuples stay inside ``product.py``, the residue pass's
    home: no other module imports ``mpmath.libmp``."""
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name == "mpmath.libmp" or name.startswith("mpmath.libmp.") for name in names):
                importers.add(path.name)
    assert importers == {"product.py"}


def test_interpolant_holds_residues_and_certificates_alone():
    """The config fixes every pole, so the interpolant keeps no copy of
    them: its fields are the residues, their certificates and the config,
    and no module writes to a frozen dataclass behind its back."""
    names = [field.name for field in dataclasses.fields(RationalInterpolant)]
    assert sorted(names) == sorted(
        ["residues", "sum_included", "block_sums", "block_max", "tail_sum_bound", "cfg"]
    )
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
                value = node.value
                assert not (isinstance(value, ast.Name) and value.id == "object"), path.name


GUARDED_CONFIGS = {
    "headline-30": lambda: make_schedule(0.5, 4, "factorial", dps=30),
    "headline-100": lambda: make_schedule(0.5, 4, "factorial"),
    "headline-200": lambda: make_schedule(0.5, 4, "factorial", dps=200),
    "theorem": lambda: make_schedule(0.45, 4, "factorial"),
    "doubly_exp": lambda: make_schedule(0.5, 3, "doubly_exp"),
    "three-blocks": lambda: config_from_blocks([[4, 2], [16, 4], [300, 17]]),
    "degree-one": lambda: config_from_blocks([[4, 1], [256, 15]]),
}


@pytest.mark.parametrize("name", sorted(GUARDED_CONFIGS))
def test_guarded_passes_never_reach_the_cancellation_screen(name):
    """f_jet, log_derivative and g refuse every z within 10^(-P/2),
    relative, of a zero, and a factor reaches the screen only below
    10^(5-P), about 10^(P/2-5) times nearer.  At seeded points 1.0001 to
    10^6 times that margin from seeded zeros of every block, in seeded
    directions, none of them raises; at 0.9999 times it their guards do."""
    cfg = GUARDED_CONFIGS[name]()
    rat = make_system(cfg, defer_top=True).rat
    rng = random.Random(name)
    guarded = (
        (lambda z: f_jet(cfg, z), NearZeroError),
        (lambda z: log_derivative(cfg, z), NearZeroError),
        (lambda z: eval_g(rat, z), NearPoleError),
    )
    with mp.workdps(cfg.dps):
        margin = mp.power(10, -mpf(cfg.dps) / 2)
        scales = [mpf("1.0001"), mpf(10) ** 6] + [mpf(10) ** rng.uniform(0, 6) for _ in range(2)]
        for k, (_, n) in enumerate(cfg.blocks, start=1):
            for m in sorted({0, rng.randrange(n), n // 2}):
                xi = zero_point(cfg, k, m)
                turn = mp.expjpi(2 * mpf(rng.random()))
                for evaluate, refusal in guarded:
                    with pytest.raises(refusal):
                        evaluate(xi * (1 + mpf("0.9999") * margin * turn))
                    for scale in scales:
                        evaluate(xi * (1 + scale * margin * turn))
