import hashlib
import importlib.util
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import mpmath

from lacunary.cli import _entry_residue, _hex, main
from lacunary.coefficients import H_TRUNCATION
from lacunary.errors import CancellationError
from lacunary.growth import _logmag
from lacunary.interpolation import config_interpolant, eval_g
from lacunary.product import _jet, _scan_blocks, _unit_root, zeros

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"

# ``tests/golden.json``: per mpmath version and backend, the sha256 of the
# CLI outputs below, written by ``tests/write_golden.py``
GOLDEN = Path(__file__).resolve().parent / "golden.json"
GOLDEN_CONFIGS = {
    "headline": {"rho_f": 0.5, "rule": "factorial", "K": 4, "precision_digits": 100, "rho_H": 0.4},
    "theorem": {"rho_f": 0.45, "rule": "factorial", "K": 4, "precision_digits": 100, "rho_H": 0.48},
    "readme": {"blocks": [[4, 2], [16, 4]], "rho_f": 0.5},
}
# ``verify --checks all`` on each of GOLDEN_CONFIGS, and ``construct
# --precision 200`` on the headline: its name in golden.json, the files
GOLDEN_VERIFY_FILES = ("records.jsonl", "verify_summary.json")
GOLDEN_CONSTRUCT = "construct --precision 200: headline"
GOLDEN_CONSTRUCT_FILES = ("residues.json", "system.json")
# the output of GOLDEN_CONSTRUCT, where a run of GOLDEN_RUNS reads artifacts
GOLDEN_ARTIFACTS = "{construct}"


def golden_verify(name):
    return f"verify --checks all: {name}"


def _golden_scan(kind, config="headline"):
    return config, ("scan", "--scan", kind), (f"{kind}.csv", f"{kind}_summary.json")


# the other runs that golden.json pins, by their name there: (config, command
# and options, files).  "readme-rule" is the README's rule config, without
# rho_H, so that its indicator scan is of f (the headline's exits 3)
GOLDEN_RUN_CONFIGS = {
    **GOLDEN_CONFIGS,
    "readme-rule": {"rho_f": 0.5, "rule": "factorial", "K": 4, "precision_digits": 100},
}
GOLDEN_RUNS = {
    f"{' '.join(argv)}: {config}": (config, argv, files)
    for config, argv, files in (
        ("headline", ("verify", "--precision", "200", "--artifacts", GOLDEN_ARTIFACTS, "--checks",
                      "interpolation,summability,cauchy,asymptotics"), GOLDEN_VERIFY_FILES),
        ("headline", ("verify", "--checks", "all", "--precision", "200"), GOLDEN_VERIFY_FILES),
        ("headline", ("verify", "--checks", "interpolation,residual", "--points", "12",
                      "--seed", "1"), GOLDEN_VERIFY_FILES),
        _golden_scan("order"),
        _golden_scan("witness"),
        _golden_scan("indicator", "readme-rule"),
    )
}


def golden_run(root, name, construct):
    """Run GOLDEN_RUNS[name] in ``root``, reading the artifacts in ``construct``:
    (exit code, output directory)."""
    config, argv, _ = GOLDEN_RUNS[name]
    path = root / f"{config}.json"
    path.write_text(json.dumps(GOLDEN_RUN_CONFIGS[config]))
    out = root / re.sub(r"\W+", "_", name)
    argv = [str(construct) if a == GOLDEN_ARTIFACTS else a for a in argv]
    return main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]]), out


def golden_key():
    """The golden.json key of this machine: the bits of every output
    depend on mpmath's version and on its backend."""
    return f"mpmath {mpmath.__version__}, backend {mpmath.libmp.BACKEND}"


def output_digests(out, names):
    """The sha256 of each file of ``names`` in ``out``; for records.jsonl or a
    CSV also the first 16 hex digits of each line's, so that a mismatch can
    name the first record that differs."""
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    lined = golden_lined(names)
    if lined:
        lines = (out / lined).read_bytes().splitlines()
        digests["record_lines"] = [hashlib.sha256(line).hexdigest()[:16] for line in lines]
    return digests


def golden_lined(names):
    """The file of ``names`` that holds one record per line (records.jsonl or
    a scan's CSV), or None."""
    return next((name for name in names if name.endswith((".jsonl", ".csv"))), None)


def rel_err(a, b):
    """|a - b| / |b| as an mpf; b must be nonzero."""
    a = mpmath.mpc(a)
    b = mpmath.mpc(b)
    return abs(a - b) / abs(b)


def read_residue(entry):
    """The residue of a residues.json entry, exactly: read as ``verify
    --artifacts`` reads it, at a precision that holds its mantissas."""
    with mpmath.workprec(4 * max(map(len, entry["residue"]))):
        return _entry_residue(entry, entry["k"], entry["m"])


def write_residue(entry, u):
    """Store u in a residues.json entry, exactly, as ``construct`` writes it."""
    u = mpmath.mpc(u)
    entry["residue"] = [_hex(u.real), _hex(u.imag)]


def with_residue(rat, k, m, value):
    """Copy of interpolant ``rat`` with residue (k, m) replaced and its
    certificates recomputed by ``config_interpolant``: the fault injector."""
    if not (1 <= k <= rat.cfg.K and 0 <= m < rat.cfg.blocks[k - 1][1]):
        raise ValueError(f"no zero ({k}, {m}) in the config")
    residues = [list(block) for block in rat.residues]
    residues[k - 1][m] = mpmath.mpc(value)
    return config_interpolant(rat.cfg, residues)


@contextmanager
def bench_run():
    """``benchmarks/run.py`` loaded as a module.  run.py puts its own
    directory on sys.path and imports spans and speed; both are undone on
    exit, so import every library module first that must outlive it."""
    path = list(sys.path)
    before = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - before:
            del sys.modules[name]


def direct_g(rat, z):
    """g(z) as the plain partial-fraction sum over every pole, block by
    block in the config's zero order: the second route for the library's
    closed form of the top block."""
    z = mpmath.mpc(z)
    total = mpmath.mpc(0)
    for k, residues in enumerate(rat.residues, start=1):
        for p, u in zip(zeros(rat.cfg, k), residues):
            total += u / (z - p)
    return total


# ---------------------------------------------------------------------------
# second routes that only the tests run


def log_max_modulus(fn, r, n_theta: int = 64):
    """(max_theta ln|fn(r e^{i theta})|, argmax theta) by grid + golden section:
    the direct-evaluation route for the term-sum formula of
    ``growth.log_max_modulus_bound``."""
    mp = mpmath.mp
    r = mpmath.mpf(r)
    best_j = 0
    best = mpmath.mpf("-inf")
    for j in range(n_theta):
        v = _logmag(fn(r * mp.expjpi(2 * mpmath.mpf(j) / n_theta)))
        if v > best:
            best, best_j = v, j
    lo = 2 * mp.pi * (best_j - 1) / n_theta
    hi = 2 * mp.pi * (best_j + 1) / n_theta
    phi = (mp.sqrt(5) - 1) / 2

    def h(theta):
        return _logmag(fn(r * mp.exp(mpmath.mpc(0, 1) * theta)))

    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = h(x1), h(x2)
    while hi - lo > mpmath.mpf("1e-6"):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = h(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = h(x1)
    theta_star = (lo + hi) / 2
    return max(best, f1, f2), theta_star


def alignment_correction(cfg, r):
    """The gap between the term sum of ``growth.log_max_modulus_bound`` and
    a lower bound for ln M(r), with an exp for every block of
    ``product._scan_blocks``: rotate the block of largest m_j = e^-|y_j|,
    y_j = n_j ln(r/r_j), to its maximizing angle; every other block then
    gives up at most ln((1 + m_j)/(1 - m_j)) against its term, by the
    reverse triangle inequality.  ln M(r) lies in [sum - correction, sum]."""
    mp = mpmath.mp
    with mp.workdps(cfg.dps):
        r = mpmath.mpf(r)
        ms = []
        for r_k, n_k in _scan_blocks(cfg, r):
            y = cfg._multiplicity(n_k) * (mp.log(r) - mp.log(r_k))
            ms.append(mp.exp(-abs(y)) if y != 0 else mpmath.mpf(1))
        dominant = max(range(len(ms)), key=lambda i: ms[i])
        correction = mpmath.mpf(0)
        for i, m_i in enumerate(ms):
            if i != dominant:
                correction += mp.log1p(m_i) - mp.log1p(-m_i)
        return correction


def block_residues_per_zero(cfg, k):
    """u = -f''/f'^2 at every zero of block k by the closed form of
    ``product._block_residues``, u = (n - 1 + 2 S1)/(n P), in plain mpc
    arithmetic: every zero m on its own, at the unit root omega^i of
    ``product._unit_root`` for each other block's index i = (m n_j) mod n,
    with no conjugate symmetry, no shared factor and no library kernel.
    The second route for the block pass on raw tuples."""
    mp = mpmath.mp
    r, n = cfg.blocks[k - 1]
    with mp.workdps(cfg.dps):
        others = []
        for j, (rj, nj) in enumerate(cfg.blocks, start=1):
            if j != k:
                with mp.extraprec(nj.bit_length() + 10):
                    others.append((nj, mp.power(r / rj, nj)))
        residues = []
        for m in range(n):
            P = mpmath.mpc(1)
            S1 = mpmath.mpc(0)
            for nj, a in others:
                rt = _unit_root(m * nj % n, n)
                w = a * rt
                factor = 1 - w
                if a > 1:
                    s = 1 / (1 - mp.conj(rt) / a)
                else:
                    s = w * (-1 / factor)
                P *= factor
                S1 += nj * s
            residues.append((n - 1 + 2 * S1) / (n * P))
        return residues


def lower_jet(rat, z):
    """(f, f'/f) over blocks 1..K-1 at z, the head that ``_g_sum`` and
    ``_top_block`` read, from a pass of its own as ``eval_g`` forms it."""
    return _jet(rat.cfg.blocks[:-1], mpmath.mpc(z), 1, False)[:2]


def recover_residue(rat, k, m):
    """(1/2pi i) of g around pole (k, m): residue recovery independent
    of factor extraction where g is the direct sum over the poles.
    Around a zero of the top block, where ``_g_sum`` takes the closed form
    from the config, the contour integrates that closed form, so the
    stored residue is held against the closed form's own residue there.

    The contour radius is a quarter of the distance to the nearest other
    pole, so the regular part integrates to zero, on 64 nodes, up to a
    spectrally small quadrature error.  Every node is that far from every
    pole, so ``eval_g``'s guards pass.
    """
    mp = mpmath.mp
    with mp.workdps(rat.cfg.dps):
        poles = [zeros(rat.cfg, j) for j in range(1, rat.cfg.K + 1)]
        xi = poles[k - 1][m]
        dist = min(
            (
                abs(xi - p)
                for j, block in enumerate(poles, start=1)
                for i, p in enumerate(block)
                if (j, i) != (k, m)
            ),
            default=abs(xi),
        )
        radius = dist / 4
        nodes = 64
        total = mpmath.mpc(0)
        for j in range(nodes):
            w = mp.expjpi(2 * mpmath.mpf(j) / nodes)
            total += eval_g(rat, xi + radius * w) * w
        return total * radius / nodes


def h_tail_log_bound(h, radius):
    """Bound on the omitted log-factors of H at |z| = radius:
    radius * M^{1-1/rho} / (1/rho - 1), M = H_TRUNCATION."""
    with mpmath.mp.workdps(h.dps):
        inv = 1 / h.rho
        return mpmath.mpf(radius) * mpmath.mp.power(H_TRUNCATION, 1 - inv) / (inv - 1)


def h_product_oracle(h, z, factors):
    """prod_{m<=factors} (1 + z/m^{1/rho}) at h's order and precision, term
    by term with ``mp.fprod``: no kernel of the library."""
    with mpmath.mp.workdps(h.dps):
        z = mpmath.mpc(z)
        return mpmath.fprod(1 + z / mpmath.power(m, 1 / h.rho) for m in range(1, factors + 1))


def nearest_zero_scan(blocks, z):
    """``product.nearest_zero`` over ``blocks`` at the working precision by a
    full scan: the chord to every block's nearest zero, in block order, the
    first of equal chords kept.  The radially pruned scan must give its
    tuple bit for bit."""
    mp, mpf = mpmath.mp, mpmath.mpf
    a = abs(z)
    if a == 0:
        r1, _ = blocks[0]
        return 1, 0, mpf(r1), mpf(1)
    theta = mp.arg(z)
    best = None
    for k, (r, n) in enumerate(blocks, start=1):
        m = int(mp.nint(theta * n / (2 * mp.pi)))
        dtheta = theta - 2 * mp.pi * mpf(m) / n
        chord2 = (a - r) ** 2 + 4 * a * r * mp.sin(dtheta / 2) ** 2
        dist = mp.sqrt(chord2)
        if best is None or dist < best[2]:
            best = (k, m % n, dist, dist / r)
    return best


# ---------------------------------------------------------------------------
# the one-pass kernel in plain mpc arithmetic, as it stood before
# ``product._jet`` moved onto raw libmp tuples: the oracle that the raw
# kernel must match bit for bit


def reference_lossy_modulus(a, lossy):
    """|1 - a| < max(1, a) ``lossy``, the first clause of the screen."""
    return bool(lossy) and abs(1 - a) < max(1, a) * lossy


def reference_block_terms(w, a, terms, lossy):
    """(1 - w, s, t) for one block's power w with a = |w|, in mpc."""
    mp = mpmath.mp
    factor = 1 - w
    scale = max(1, a)
    if factor and reference_lossy_modulus(a, lossy) and abs(factor) < scale * lossy:
        digits_lost = float(mp.log(scale / abs(factor), 10))
        message = f"factor cancelled {digits_lost:.1f} of {mp.dps} digits"
        raise CancellationError(message, result=factor, digits_lost=digits_lost)
    if not terms:
        return factor, None, None
    if a > 1:
        v = 1 / w
        inv = 1 / (1 - v)
        s = inv
    else:
        v, inv = w, -1 / factor
        s = w * inv
    return factor, s, v * inv * inv if terms == 2 else None


def reference_jet(blocks, z, order, strict):
    """(f, f'/f, (f'/f)') over ``blocks`` in one pass of mpc arithmetic,
    each power one ``mp.power`` with n.bit_length() + 20 guard bits."""
    mp = mpmath.mp
    mpc, mpf = mpmath.mpc, mpmath.mpf
    terms = order if z != 0 else 0
    lossy = mpf(10) ** (5 - mp.dps) if strict else None
    error = None
    f = mpc(1)
    l1 = l2 = mpc(0)
    for r, n in blocks:
        if n == 1:
            w = z / r
        else:
            with mp.extraprec(n.bit_length() + 20):
                w = mp.power(z / r, n)
        try:
            factor, s, t = reference_block_terms(w, abs(w), terms, lossy)
        except CancellationError as exc:
            error, lossy, terms, factor = exc, None, 0, exc.result
        f *= factor
        if terms:
            l1 += n * s
            if terms == 2:
                l2 -= n * (s + n * t)
    if error is not None:
        error.result = f
        raise error
    if terms:
        l1, l2 = l1 / z, l2 / (z * z)
    elif order:
        l1 = mpc(sum(-1 / r for r, n in blocks if n == 1))
        l2 = mpc(sum(-mpf(n) / (r * r) for r, n in blocks if n <= 2))
    return f, l1, l2
