"""The log-domain number format stays behind lacunary.product.

Only ``product.py`` may import ``logdomain``; everything the package
hands across a module boundary, and everything it exports, is plain
mpmath.  Away from the zeros, ``coefficients.py`` takes f' and f'' from
``product.f_jet`` rather than assembling them from ``log_derivative``.
"""

import ast
from pathlib import Path

import pytest
from mpmath import mpc, mpf

import lacunary
from lacunary import CancellationError, config_from_blocks, make_schedule
import lacunary.product
from lacunary.coefficients import build_H
from lacunary.interpolation import residues_from_f
from lacunary.product import derivs_at_zero, eval_f, eval_f_scan

PACKAGE = Path(lacunary.__file__).resolve().parent

LOG_DOMAIN_NAMES = (
    "LOG_ONE",
    "LOG_ZERO",
    "LogComplex",
    "log_add",
    "log_add_ex",
    "log_div",
    "log_from_value",
    "log_mul",
    "log_neg",
    "log_pow_int",
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


def test_only_product_imports_logdomain():
    importers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if _imports_logdomain(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"product.py"}


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
    values = [
        eval_f(cfg, 2),
        eval_f(cfg, 0),
        eval_f(cfg, 4),
        eval_f(cfg, 4 * (1 + mpf(10) ** -98), strict=False),  # the lossy value
        eval_f(rule_cfg, mpc(3, 1)),
        eval_f_scan(rule_cfg, mpc(40, 1)),
        *derivs_at_zero(cfg, 2, 1, order=4),
        build_H(0.25, 64).eval(mpc(1, 2)),
    ]
    for value in values:
        assert isinstance(value, mpc), type(value)


def test_factor_extraction_runs_without_the_log_domain(monkeypatch):
    """derivs_at_zero and residues_from_f use no log-domain name: with every
    one bound in lacunary.product made to raise, both still run."""

    def refuse(*args, **kwargs):
        raise AssertionError("log domain used")

    for name, value in list(vars(lacunary.product).items()):
        if name in LOG_DOMAIN_NAMES or getattr(value, "__module__", None) == "lacunary.logdomain":
            monkeypatch.setattr(lacunary.product, name, refuse)
    cfg = config_from_blocks([(4, 2), (16, 4)])
    for order in (1, 2, 3, 4):
        for k, m in ((1, 1), (2, 3)):
            assert len(derivs_at_zero(cfg, k, m, order=order)) == order
    rat = residues_from_f(cfg)
    assert len(rat.residues) == 6
    # the guard is live: the log-domain evaluators do hit it
    with pytest.raises(AssertionError, match="log domain used"):
        eval_f(cfg, 3)


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
