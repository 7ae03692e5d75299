"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here, not computed from the implementation under test;
oracles are hand or exact-fraction computations recorded in the assertions.
"""

import json
import random
import time

from mpmath import mp, mpc, mpf

from lacunary import config_from_blocks, make_schedule
from lacunary.checks import check_residual
from lacunary.cli import main as cli_main
from lacunary.coefficients import (
    H_TRUNCATION,
    build_H,
    cauchy_ratio,
    eval_A0,
    eval_B0,
    interpolation_identity_residuals,
    make_system,
)
from lacunary.growth import (
    HZeroDiskFamily,
    crg_witness,
    indicator_scan,
    nevanlinna,
    order_scan,
    verify_thm2_asymptotics,
)
from lacunary.interpolation import eval_g, proximity_m, residues_from_f
from lacunary.product import derivative_ratio_bound, zeros

from helpers import h_product_oracle, read_residue, with_residue, write_residue


def report(number: int, name: str, passed: bool, details: str, elapsed: float):
    state = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} [{name}]: {state} ({details}, {elapsed:.1f}s)")
    assert passed, f"criterion {number} ({name}): {details}"


def test_criterion_1_symbolic_anchor():
    """Blocks [[1,2]] reproduce A0(z) = -z and B0(z) = 2 at 20 points to
    relative 10^(10-P); runtime < 1 s."""
    start = time.perf_counter()
    sys1 = make_system(config_from_blocks([(1, 2)]))
    tol = mpf(10) ** (10 - sys1.dps)
    rng = random.Random(1)
    worst = mpf(0)
    count = 0
    while count < 20:
        z = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < mpf("0.1") or min(abs(z - 1), abs(z + 1)) < mpf("0.05"):
            continue
        worst = max(worst, abs(eval_A0(sys1, z) - (-z)) / abs(z))
        worst = max(worst, abs(eval_B0(sys1, z) - 2) / 2)
        count += 1
    elapsed = time.perf_counter() - start
    passed = worst < tol and elapsed < 1.0
    report(1, "symbolic anchor", passed, f"max_rel_err={mp.nstr(worst, 3)}", elapsed)


def test_criterion_2_interpolation_identity():
    """Factorial rho=0.5, K=4, P=100: max over all 11 + 64-of-4096 zeros of
    |A0(z_k) f'(z_k) + f''(z_k)| / |f''(z_k)| below 1e-40; runtime < 2 min."""
    start = time.perf_counter()
    cfg = make_schedule(0.5, 4, "factorial", dps=100)
    sys4 = make_system(cfg)
    rows = interpolation_identity_residuals(sys4)
    worst = max(value for _, _, value in rows)
    elapsed = time.perf_counter() - start
    passed = len(rows) == 11 + 64 and worst < mpf("1e-40") and elapsed < 120
    report(2, "interpolation identity", passed,
           f"{len(rows)} zeros, max={mp.nstr(worst, 3)}", elapsed)


def test_criterion_3_ode_residuals():
    """Same config plus rho_H = 0.4: relative ODE residual < 1e-40 at 200
    seeded annulus points with |z| <= r_3, for c_scale in {1, 10};
    runtime < 5 min."""
    start = time.perf_counter()
    cfg = make_schedule(0.5, 4, "factorial", dps=100)
    sys4 = make_system(cfg, rho_H=0.4)
    records = check_residual(sys4, seed=3, n_points=200)
    base = [r for r in records if r["eq"] == "1c"]
    pert = [r for r in records if r["eq"] == "1d"]
    scales = {r["c_scale"] for r in pert}
    worst = max(r["value"] for r in records)
    elapsed = time.perf_counter() - start
    passed = (
        len(base) == 200
        and scales == {1, 10}
        and worst < 1e-40
        and all(r["pass"] for r in records)
        and elapsed < 300
    )
    report(3, "ODE residuals", passed,
           f"{len(records)} records, max={worst:.2e}", elapsed)


def test_criterion_4_derivative_ratio_bounds():
    """Doubly-exp [[4,2],[16,4]]: ratio at xi=16 equals 109/900 = 0.121111...
    to 1e-20 and is <= e/16; factorial k=2,3,4 ratios strictly decreasing,
    each <= 2e prod_{j<k}(r_j/r_k)^{n_j}; contour agreement < 1e-20 from
    the first 32 nodes."""
    start = time.perf_counter()
    cfg2 = config_from_blocks([(4, 2), (16, 4)])
    cr = cauchy_ratio(cfg2, 2)
    ok = abs(cr.direct - mpf(109) / 900) < mpf("1e-20")
    ok = ok and abs(cr.direct) <= mp.e * (mpf(4) / 16) ** 2
    ok = ok and cr.agreement < mpf("1e-20") and cr.nodes == 32

    cfg4 = make_schedule(0.5, 4, "factorial")
    ratios = []
    for k in (2, 3, 4):
        crk = cauchy_ratio(cfg4, k)
        ratios.append(abs(crk.direct))
        ok = ok and abs(crk.direct) <= derivative_ratio_bound(cfg4, k)
    ok = ok and ratios[0] > ratios[1] > ratios[2]
    elapsed = time.perf_counter() - start
    report(4, "derivative-ratio bounds", ok,
           f"xi=16 agreement={mp.nstr(cr.agreement, 3)}, ratios={[mp.nstr(x, 3) for x in ratios]}",
           elapsed)


def test_criterion_5_proximity_and_characteristic():
    """Factorial K=3: m(r, g) at {10, 100, 1000} r_3 nonincreasing with the
    final value < 0.01, and |T(r,g) - N(r,g)| < 0.05 at r = 100 r_3."""
    start = time.perf_counter()
    cfg = make_schedule(0.5, 3, "factorial")
    rat = residues_from_f(cfg)
    poles = [p for k in range(1, cfg.K + 1) for p in zeros(cfg, k)]
    moduli = sorted({abs(p) for p in poles})
    g = lambda z: eval_g(rat, z)
    r3 = cfg.blocks[-1][0]
    values = [proximity_m(g, scale * r3, avoid_moduli=moduli) for scale in (10, 100, 1000)]
    monotone = values[0] >= values[1] >= values[2]
    final_ok = values[2] < mpf("0.01")
    m, n, t = nevanlinna(g, [abs(p) for p in poles], 100 * r3)
    char_ok = abs(t - n) < mpf("0.05")
    elapsed = time.perf_counter() - start
    passed = monotone and final_ok and char_ok
    report(5, "proximity decay and characteristic", passed,
           f"m={[mp.nstr(v, 3) for v in values]}, |T-N|={mp.nstr(abs(t - n), 3)}", elapsed)


def test_criterion_6_order_witness():
    """Factorial rho=0.5, scan k=4..7: peak ratios in [0.40, 0.70]; a_k < 0.05
    for k >= 5, strictly decreasing; b_k in [0.3, 1.5]; verdict 'violation';
    runtime < 1 min."""
    start = time.perf_counter()
    cfg = make_schedule(0.5, 7, "factorial")
    scan = order_scan(cfg, range(4, 8))
    peaks = scan.ratios("peak")
    ok = all(mpf("0.40") <= x <= mpf("0.70") for x in peaks)
    rep = crg_witness(cfg, range(4, 8))
    a5_on = rep.a[1:]
    ok = ok and all(x < mpf("0.05") for x in a5_on)
    ok = ok and all(x > y for x, y in zip(rep.a, rep.a[1:]))
    ok = ok and all(mpf("0.3") <= x <= mpf("1.5") for x in rep.b)
    ok = ok and rep.verdict == "violation"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(6, "order / lower-order witness", ok,
           f"peaks={[mp.nstr(x, 4) for x in peaks]}, verdict={rep.verdict}", elapsed)


def test_criterion_7_asymptotics():
    """verify_thm2_asymptotics at k=3 (factorial K=4) passes all four
    sub-checks at the stated finite-level error scales; zero-free disk
    confirmed for every block whose disk separates from its neighbours."""
    start = time.perf_counter()
    cfg = make_schedule(0.5, 4, "factorial")
    rep = verify_thm2_asymptotics(cfg, 3, seed=0)
    applicable = [d for d in rep.disks if d.applicable]
    passed = (
        rep.partial_pass
        and rep.logderiv_pass
        and rep.fprime_pass
        and rep.disks_pass
        and len(applicable) >= 1
        and all(d.winding == 0 for d in applicable)
    )
    elapsed = time.perf_counter() - start
    report(7, "near-circle asymptotics", passed,
           f"devs=({mp.nstr(rep.partial_dev_max, 2)}, {mp.nstr(rep.logderiv_dev_max, 2)}, "
           f"{mp.nstr(rep.fprime_dev_max, 2)}), applicable_blocks={[d.block for d in applicable]}",
           elapsed)


def test_criterion_8_h_positivity():
    """Indicator scan of H (rho_H = 0.25) at r = 1e6, 360 angles with
    exclusion handling: every non-excluded sample positive; H(1) = 2.1668
    within 1e-3 of the 10x-truncation oracle value."""
    start = time.perf_counter()
    h = build_H(mpf("0.25"))
    thetas = [2 * mp.pi * j / 360 for j in range(360)]
    scan = indicator_scan(h.eval, h.rho, thetas, [mpf(10) ** 6], exclusion=HZeroDiskFamily(h))
    nonexcluded = [s for s in scan.samples if not s.excluded]
    positive = all(s.ratio > 0 for s in nonexcluded)
    h1 = h.eval(1).real
    oracle = h_product_oracle(h, 1, 10 * H_TRUNCATION).real
    value_ok = abs(h1 - mpf("2.1668")) < mpf("1e-3") and abs(oracle - mpf("2.1668")) < mpf("1e-3")
    elapsed = time.perf_counter() - start
    passed = positive and value_ok and scan.budget_ok and len(nonexcluded) > 300
    report(8, "H positivity", passed,
           f"min_ratio={mp.nstr(scan.min_ratio(), 4)}, H(1)={mp.nstr(h1, 6)}", elapsed)


def test_criterion_9_fault_injection(tmp_path):
    """Perturbing a single residue by 1e-3 makes the interpolation identity
    (criterion 2's check) fail and the CLI exit code become 1."""
    start = time.perf_counter()
    cfg_payload = {"rho_f": 0.5, "rule": "factorial", "K": 4, "precision_digits": 100}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg_payload))
    art = tmp_path / "art"
    assert cli_main(["construct", "--config", str(cfg_path), "--out", str(art)]) == 0

    entries = json.loads((art / "residues.json").read_text())
    victim = next(i for i, e in enumerate(entries) if e["k"] == 2 and e["m"] == 0)
    write_residue(entries[victim], read_residue(entries[victim]) + mpf("1e-3"))
    (art / "residues.json").write_text(json.dumps(entries))

    code = cli_main(
        ["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v"),
         "--artifacts", str(art), "--checks", "interpolation"]
    )
    records = [
        json.loads(line)
        for line in (tmp_path / "v" / "records.jsonl").read_text().splitlines()
    ]
    failed = [r for r in records if not r["pass"]]
    passed = (
        code == 1
        and len(failed) == 1
        and failed[0]["zero"] == [2, 0]
        and failed[0]["value"] > 1e-40
    )
    elapsed = time.perf_counter() - start
    report(9, "fault injection", passed,
           f"exit={code}, failed_zero={failed[0]['zero'] if failed else None}", elapsed)


def test_criterion_9_library_level_per_block():
    """Same sensitivity property at the library level, one injected fault
    per block."""
    start = time.perf_counter()
    cfg = make_schedule(0.5, 3, "factorial")
    clean = make_system(cfg)
    all_detected = True
    for k in (1, 2, 3):
        bad = with_residue(clean.rat, k, 0, clean.rat.residues[k - 1][0] + mpf("1e-3"))
        sys_bad = make_system(cfg, rat=bad)
        rows = interpolation_identity_residuals(sys_bad)
        worst = max(value for _, _, value in rows)
        all_detected = all_detected and worst > mpf("1e-40")
    elapsed = time.perf_counter() - start
    report(9, "fault injection (library, per block)", all_detected, "3 blocks probed", elapsed)
