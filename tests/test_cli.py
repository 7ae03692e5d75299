"""CLI: artifact construction, verification exit codes, scans, determinism."""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

import lacunary
from lacunary import (
    checks,
    cli,
    coefficients,
    config_from_blocks,
    errors,
    growth,
    interpolation,
    product,
)
from lacunary.cli import main

from helpers import (
    GOLDEN, GOLDEN_CONFIGS, GOLDEN_CONSTRUCT, GOLDEN_CONSTRUCT_FILES, GOLDEN_RUNS,
    GOLDEN_VERIFY_FILES, golden_key, golden_lined, golden_run, golden_verify, output_digests,
    read_residue, write_residue
)

ANCHOR = {"blocks": [[1, 2]], "rho_f": 0.5, "precision_digits": 100, "rho_H": 0.25}
FACT3 = {"rho_f": 0.5, "rule": "factorial", "K": 3, "precision_digits": 100, "rho_H": 0.4}
FACT7 = {"rho_f": 0.5, "rule": "factorial", "K": 7, "precision_digits": 100}
SINGLE = {"blocks": [[4, 2]], "rho_f": 0.5, "precision_digits": 100}
ONE_FACTOR = {"blocks": [[2, 1]], "rho_f": 0.5}  # f = 1 - z/2
HEADLINE = {"rho_f": 0.5, "rule": "factorial", "K": 4, "precision_digits": 100}
THEOREM = {"rho_f": 0.45, "rule": "factorial", "K": 4, "precision_digits": 100, "rho_H": 0.48}


def _not_strict(constant):
    raise ValueError(f"records.jsonl holds {constant}, which is no strict JSON")


def read_records(out):
    """The records of ``verify``'s records.jsonl in ``out``, parsed as
    strict JSON: a NaN or an Infinity fails the test."""
    lines = (out / "records.jsonl").read_text().splitlines()
    return [json.loads(line, parse_constant=_not_strict) for line in lines]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# the configs that ``verify --checks all`` runs on once per module
VERIFY_ALL = {
    **GOLDEN_CONFIGS,
    "factorial-K3": {"rho_f": 0.5, "rule": "factorial", "K": 3},
    "readme-rule": {"rho_f": 0.5, "rule": "factorial", "K": 4},
}


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    """``verify --checks all`` on the config of VERIFY_ALL by that name, run
    once per module and shared: (exit code, output directory)."""
    runs = {}

    def run(name):
        if name not in runs:
            root = tmp_path_factory.mktemp(name)
            cfg = write_config(root, VERIFY_ALL[name])
            runs[name] = main(["verify", "--config", cfg, "--out", str(root / "v"), "--checks", "all"]), root / "v"
        return runs[name]

    return run


class TestConstruct:
    def test_zero_and_residue_counts(self, tmp_path):
        cfg = write_config(tmp_path, FACT3)
        out = tmp_path / "out"
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
        zeros = json.loads((out / "zeros.json").read_text())
        assert zeros["count"] == 11
        assert [b["n"] for b in zeros["blocks"]] == [1, 2, 8]
        residues = json.loads((out / "residues.json").read_text())
        assert len(residues) == 11

    def test_failed_run_leaves_no_stale_artifacts(self, tmp_path, capsys):
        """A construct that exits 2 first deletes the four files of the
        passing construct before it, so ``verify --artifacts`` cannot read
        them as its own; a config.json that is the --config being read
        stays, and construct from it still runs."""
        rule = {"rho_f": 0.5, "rule": "factorial", "K": 3}
        out = tmp_path / "out"
        construct = ["construct", "--out", str(out), "--config"]
        names = ("config.json", "zeros.json", "residues.json", "system.json")
        assert main([*construct, write_config(tmp_path, rule)]) == 0
        assert all((out / name).exists() for name in names)
        assert main([*construct, write_config(tmp_path, {**rule, "rho_H": 0.7}, "bad.json")]) == 2
        assert "config error" in capsys.readouterr().err
        for name in names:
            assert not (out / name).exists(), name
        verify = ["verify", "--config", write_config(tmp_path, rule), "--out", str(tmp_path / "v")]
        assert main([*verify, "--artifacts", str(out), "--checks", "summability"]) == 2
        assert main([*construct, write_config(tmp_path, rule)]) == 0
        assert main([*construct, str(out / "config.json")]) == 0
        assert all((out / name).exists() for name in names)

    def test_residues_json_is_the_indent_1_dump(self, tmp_path, monkeypatch):
        """construct writes residues.json entry by entry, byte for byte the
        ``json.dump(entries, fh, indent=1)`` and newline of every other
        output, here on a pass patched to return a zero part, negative
        parts, and nan and infinite parts."""
        special = [mpc(0, -3), mpc("-0.25", "1e-400"), mpc(mp.nan, mp.inf), mpc(-mp.inf, 7)]
        real = interpolation._block_residues

        def patched(cfg, k):
            block = real(cfg, k)
            return [special[m] if m < len(special) else u for m, u in enumerate(block)]

        monkeypatch.setattr(interpolation, "_block_residues", patched)
        cfg = write_config(tmp_path, FACT3)
        out = tmp_path / "out"
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
        config = lacunary.config_from_dict(FACT3)
        entries = [
            {"k": k, "m": m, "residue": [cli._hex(u.real), cli._hex(u.imag)]}
            for k in range(1, config.K + 1)
            for m, u in enumerate(patched(config, k))
        ]
        parts = {x for e in entries for x in e["residue"]}
        assert {"0x0p0", "-0x3p0", "-0x1p-2", "nan", "inf", "-inf"} <= parts
        assert (out / "residues.json").read_text() == json.dumps(entries, indent=1) + "\n"

    def test_anchor_residues_are_half(self, tmp_path):
        cfg = write_config(tmp_path, {"blocks": [[1, 2]], "precision_digits": 100})
        out = tmp_path / "out"
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
        residues = json.loads((out / "residues.json").read_text())
        assert len(residues) == 2
        for entry in residues:
            assert abs(read_residue(entry) - 0.5) < 1e-15

    def test_system_certificates_present(self, tmp_path):
        cfg = write_config(tmp_path, FACT3)
        out = tmp_path / "out"
        main(["construct", "--config", cfg, "--out", str(out)])
        system = json.loads((out / "system.json").read_text())
        assert system["summability"]["passed"] is True
        assert system["H"]["theorem_hypothesis_met"] is False
        assert float(system["sigma_certificate"]["total"]) > 0

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["construct", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_rho_exit_2(self, tmp_path, capsys):
        """An out-of-range rho_f and values of the wrong type are config
        errors, never a traceback; a count (K, precision_digits, a block's
        n) that is a float, a bool or Infinity is never truncated to an int."""
        rule = {"rho_f": 0.5, "rule": "factorial", "K": 3}
        for i, payload in enumerate(
            (
                {**rule, "rho_f": 1.2},
                {**rule, "K": "four"},
                {**rule, "rho_f": "abc"},
                {**rule, "precision_digits": "x"},
                {**rule, "rho_H": "x"},
                {"blocks": [[4, 2], ["a", 4]], "rho_f": 0.5},
                {"blocks": 5, "rho_f": 0.5},
                {**rule, "K": 4.5},
                {**rule, "K": True},
                {"blocks": [[4, 2.7], [16, 4]], "rho_f": 0.5},
                {**rule, "precision_digits": float("inf")},
            )
        ):
            cfg = write_config(tmp_path, payload, name=f"config{i}.json")
            code = main(["construct", "--config", cfg, "--out", str(tmp_path / f"o{i}")])
            assert code == 2, payload
            assert "config error" in capsys.readouterr().err, payload

    @pytest.mark.parametrize("key", ["rho_f", "rho_H"])
    def test_boolean_order_is_refused_by_its_type(self, tmp_path, capsys, key):
        """A JSON true is no order 1.0: the error names its type, as it does
        for a count."""
        cfg = write_config(tmp_path, {**HEADLINE, "rho_H": 0.4, key: True})
        assert main(["construct", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be a number, got True\n"

    @pytest.mark.parametrize(
        "radius, message",
        [
            ("true", "block 1: radius must be a positive finite number, got True"),
            ("Infinity", "block 1: radius must be a positive finite number, got +inf"),
            ("1e400", "block 1: radius must be a positive finite number, got +inf"),
        ],
    )
    def test_radius_is_read_as_strictly_as_rho(self, tmp_path, capsys, radius, message):
        """A JSON true is no radius 1, and Infinity (or 1e400, which json
        reads as inf) is no radius at all: each exits 2 naming the block,
        never a traceback with exit 1."""
        cfg = tmp_path / "config.json"
        cfg.write_text(f'{{"blocks": [[{radius}, 2]], "rho_f": 0.5}}')
        assert main(["construct", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestVerify:
    def test_anchor_all_checks_pass(self, tmp_path):
        cfg = write_config(tmp_path, ANCHOR)
        out = tmp_path / "v"
        code = main(["verify", "--config", cfg, "--out", str(out), "--points", "20"])
        assert code == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["passed"] is True
        assert summary["failed"] == 0
        records = read_records(out)
        assert all("eq" in r for r in records)
        eqs = {r["eq"] for r in records}
        assert {"3f", "1c", "1d", "3x", "1b", "2f", "2a", "2c", "2e", "3a", "3h"} <= eqs

    CAUCHY_2F = ("cauchy", "2f", None, "blockwise ratios strictly decreasing", None)

    def test_records_are_strict_json_beyond_float_range(self, tmp_path):
        """On [[3.3,1],[1e30,32]] the 2f record and the finite-difference 1b
        record at (1, 0) hold values near 10^841 and 10^906, beyond float
        range: they read null with their log10, as does 2f's agreement,
        while the 1b ratio near 10^-942 reads 0.0 with its log10, so every
        line parses as strict JSON."""
        cfg = write_config(tmp_path, {"blocks": [[3.3, 1], [1e30, 32]], "rho_f": 0.05})
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "--checks", "cauchy"]) == 1
        at_one = [r for r in read_records(out) if r["zero"] == [1, 0]]
        ratio, contour, fd = at_one
        expected = [("1b", True), ("2f", False), ("1b", False)]
        assert [(r["eq"], r["pass"]) for r in at_one] == expected
        assert ratio["value"] == 0.0 and -943 < ratio["log10_value"] < -941
        assert contour["value"] is None and 840 < contour["log10_value"] < 842
        assert fd["value"] is None and 906 < fd["log10_value"] < 907
        assert contour["agreement_half"] is None

    @pytest.mark.parametrize(
        "name, count, failing",
        [
            pytest.param("headline", 698, [CAUCHY_2F], id="headline"),
            pytest.param(
                "theorem",
                696,
                [
                    CAUCHY_2F,
                    ("asymptotics", "2c", [3, 0], "disk free of zeros of f'", 1),
                    (
                        "asymptotics",
                        "2c",
                        None,
                        "zero-free disk confirmed for every applicable block",
                        None,
                    ),
                ],
                id="theorem",
            ),
            pytest.param("factorial-K3", 230, [CAUCHY_2F], id="factorial-K3"),
            pytest.param("readme-rule", 298, [CAUCHY_2F], id="readme-rule"),
        ],
    )
    def test_all_checks_fail_only_the_known_records(self, verify_all, name, count, failing):
        """``verify --checks all`` exits 1 on these configs, failing exactly
        the records that ROADMAP.md item 2 leaves open: the blockwise-ratio
        record of 2(a) (the step from block 1 to block 2), also on the
        README's rule config without rho_H; and on the theorem config, the
        zero-free disk of block 3 (winding 1) and its summary, 2(b).  When
        those items land the runs exit 0 and this test changes with them."""
        code, out = verify_all(name)
        assert code == 1
        records = read_records(out)
        assert len(records) == count
        failed = [
            (r["check"], r["eq"], r["zero"], r.get("property"), r.get("winding"))
            for r in records
            if not r["pass"]
        ]
        assert failed == failing

    def test_readme_explicit_config_passes(self, verify_all):
        """The README's explicit config passes every check: 2c's bound on
        z f'/f at block 1 counts block 2's term, 4 a/(1 - a) / 2 with
        a = (4.4/16)^4, 0.01150, over a deviation of 0.01109."""
        code, out = verify_all("readme")
        assert code == 0
        records = read_records(out)
        assert len(records) == 221
        (rec,) = [r for r in records if r["eq"] == "2c" and "property" not in r]
        assert 0.0110 < rec["value"] < rec["bound"] < 0.0116

    def test_asymptotics_2a_keeps_block_4s_deviation(self, tmp_path):
        """2a (i) bounds |f_{>3} - 1| over the product of block 4 alone,
        whose power near r_3 is about 10^-22026: the kernel's negligible
        tail must not leave that block out (f is exactly 1 before it), or
        the deviation reads exactly 0 and loses its log10 while the record
        still passes."""
        cfg = write_config(tmp_path, GOLDEN_CONFIGS["headline"])
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "--checks", "asymptotics"]) == 0
        (rec,) = [r for r in read_records(out) if r["eq"] == "2a"]
        assert (rec["value"], rec["bound"], rec["pass"]) == (0.0, 0.0, True)
        assert "log10_value" in rec, "the deviation read exactly 0"
        assert abs(rec["log10_value"] + 22026.02) < 0.01
        assert abs(rec["log10_bound"] + 22024.49) < 0.01

    def test_logderiv_record_not_applicable_near_the_next_block(self, tmp_path):
        """On [[4,1],[4.6,2]] block 2's term can move z f'/f at block 1 by
        21.5 n_1, so the 2c record of z f'/f passes as not applicable, with
        its deviation and a reason but no bound."""
        cfg = write_config(tmp_path, {"blocks": [[4, 1], [4.6, 2]], "rho_f": 0.47})
        out = tmp_path / "v"
        main(["verify", "--config", cfg, "--out", str(out), "--checks", "asymptotics"])
        records = read_records(out)
        (rec,) = [r for r in records if r["eq"] == "2c" and r["zero"] is None and "property" not in r]
        assert rec["pass"] is True and rec["applicable"] is False and rec["bound"] is None
        assert rec["reason"] == "blocks above 1 can move z f'/f by n_k or more"
        assert 1 < rec["value"] < 2

    def test_disk_summary_without_applicable_disk(self, tmp_path):
        """On factorial K=3 neither disk sits between its neighbouring
        circles, so the summary of the zero-free disks passes as not
        applicable, with the reason of each block."""
        cfg = write_config(tmp_path, {"rho_f": 0.5, "rule": "factorial", "K": 3})
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "--checks", "asymptotics"]) == 0
        summary = read_records(out)[-1]
        assert summary["property"] == "zero-free disk confirmed for every applicable block"
        assert summary["pass"] is True and summary["applicable"] is False
        assert summary["reason"] == (
            "no block's disk applies (block 1: disk reaches the next circle; "
            "block 2: disk reaches the previous circle)"
        )

    def test_low_precision_exit_3_with_suggestion(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FACT3)
        code = main(
            ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--precision", "30"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "suggested precision" in err

    def test_unknown_check_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, ANCHOR)
        code = main(
            ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--checks", "nope"]
        )
        assert code == 2

    def test_check_list_naming_no_check_exit_2(self, tmp_path, capsys):
        """A --checks list of separators alone would run nothing and pass."""
        cfg = write_config(tmp_path, ANCHOR)
        for raw in (",", " , "):
            code = main(
                ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--checks", raw]
            )
            assert code == 2
            assert "names no check" in capsys.readouterr().err
        assert not (tmp_path / "v" / "verify_summary.json").exists()

    def test_check_list_naming_a_check_twice_exit_2(self, tmp_path, capsys):
        """A repeated name would run its check twice, and report would count
        each of its records twice."""
        cfg = write_config(tmp_path, ANCHOR)
        for raw in ("summability,summability", "summability, interpolation,summability "):
            code = main(
                ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--checks", raw]
            )
            assert code == 2
            assert "names 'summability' twice" in capsys.readouterr().err
        assert not (tmp_path / "v" / "verify_summary.json").exists()

    def test_failed_run_leaves_no_stale_outputs(self, tmp_path, capsys):
        """A verify that exits 3 and a scan that exits 2 delete the outputs of
        the passing run before them, so ``report`` sees neither."""
        cfg = write_config(tmp_path, {"rho_f": 0.55, "rule": "doubly_exp", "K": 3})
        out = tmp_path / "run"
        verify = ["verify", "--config", cfg, "--out", str(out), "--checks"]
        scan = ["scan", "--config", cfg, "--out", str(out), "--scan", "indicator", "--angles"]
        assert main([*verify, "summability"]) == 0
        assert main([*scan, "4"]) == 0
        assert (out / "verify_summary.json").exists() and (out / "indicator.csv").exists()
        assert main([*verify, "proximity"]) == 3
        assert "TailError" in capsys.readouterr().err
        assert main([*scan, "0"]) == 2
        for name in ("records.jsonl", "verify_summary.json", "indicator.csv",
                     "indicator_summary.json"):
            assert not (out / name).exists(), name
        assert main(["report", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verify"] is None and report["scans"] == {}

    def test_g_checks_never_sample_g_where_certified(self, tmp_path, monkeypatch):
        """On the headline, B(r) < 1 at every radius of proximity and
        characteristic, so both pass from the block sums alone."""

        def unreachable(*args):
            raise AssertionError("g sampled")

        for module in (checks, coefficients, interpolation):
            for name in ("eval_g", "_g_sum"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, unreachable)
        cfg = write_config(tmp_path, HEADLINE)
        code = main(
            ["verify", "--config", cfg, "--out", str(tmp_path / "v"),
             "--checks", "proximity,characteristic"]
        )
        assert code == 0

    def test_proximity_writes_one_verdict_record(self, tmp_path):
        """proximity writes one 3a record, the verdict at 1000 r_K; its
        per_radius holds m and B at each multiple of r_K, the values the
        per-radius records held when each radius had its own."""
        cfg = write_config(tmp_path, {**HEADLINE, "rho_H": 0.4})
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "--checks", "proximity"]) == 0
        (rec,) = read_records(out)
        assert (rec["eq"], rec["value"], rec["bound"], rec["pass"]) == ("3a", 0.0, 0.01, True)
        assert rec["property"] == "m(r,g) nonincreasing with small final value"
        assert rec["sup_g_bound"] == 2.7824962796159914e-10
        assert rec["per_radius"] == {
            "10": {"m": 0.0, "sup_g_bound": 2.7824963331219228e-08},
            "100": {"m": 0.0, "sup_g_bound": 2.7824962844801668e-09},
            "1000": {"m": 0.0, "sup_g_bound": 2.7824962796159914e-10},
        }

    def test_proximity_fails_where_m_grows(self, tmp_path, monkeypatch):
        """m = 0, 0.001, 0.002 ends below 0.01, so the verdict fails on the
        nonincreasing clause alone."""
        ms = iter(mpf(x) for x in ("0", "0.001", "0.002"))
        monkeypatch.setattr(checks, "g_proximity", lambda rat, r: (next(ms), mpf(2)))
        cfg = write_config(tmp_path, HEADLINE)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "--checks", "proximity"]) == 1
        (rec,) = read_records(out)
        assert rec["value"] == 0.002 < rec["bound"] and rec["pass"] is False
        assert [r["m"] for r in rec["per_radius"].values()] == [0.0, 0.001, 0.002]

    def test_removed_config_keys_exit_2(self, tmp_path, capsys):
        """H's truncation, the perturbation scale and the series switch
        radius are constants; a config that sets one is refused by name."""
        for key, value in (("H_truncation", 64), ("c_scale", 1), ("near_zero_delta", 1e-8)):
            cfg = write_config(tmp_path, {**ANCHOR, key: value})
            code = main(
                ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--checks", "summability"]
            )
            assert code == 2
            assert key in capsys.readouterr().err

    def test_misspelt_key_exit_2(self, tmp_path, capsys):
        """rho_h for rho_H would drop H and its 1d records without a word:
        the key is refused by name."""
        cfg = write_config(tmp_path, {**HEADLINE, "rho_h": 0.4})
        out = tmp_path / "v"
        code = main(
            ["verify", "--config", cfg, "--out", str(out), "--checks", "residual", "--points", "2"]
        )
        assert code == 2
        assert "'rho_h'" in capsys.readouterr().err
        assert not (out / "records.jsonl").exists()

    def test_rule_and_k_with_blocks_exit_2(self, tmp_path, capsys):
        """An explicit config that also sets rule and K is refused, naming
        both, rather than built from its blocks with rule and K dropped."""
        payload = {"blocks": [[4, 2], [16, 4]], "rule": "factorial", "K": 4, "rho_f": 0.5}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "c"
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'rule'" in err and "'K'" in err
        assert not (out / "config.json").exists()

    def test_count_below_one_exit_2(self, tmp_path, capsys):
        """A residual check over no points would pass with no records, and an
        indicator scan over no angles would judge nothing: both exit 2."""
        cfg = write_config(tmp_path, ANCHOR)
        out = str(tmp_path / "v")
        for argv in (
            ["verify", "--checks", "residual", "--points", "0"],
            ["scan", "--scan", "indicator", "--angles", "0"],
        ):
            assert main([*argv, "--config", cfg, "--out", out]) == 2
            assert f"{argv[-2]} must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "v" / "records.jsonl").exists()

    def test_g_checks_stay_on_the_certified_domain(self, tmp_path, capsys):
        """factorial K=2 is certified on |z| < r_3/2 = 32.  proximity samples
        g from 10 r_2 = 40 on and characteristic at 100 r_2 = 400, where the
        8 omitted poles of block 3 (r_3 = 64) would add 8 ln(400/64) to N:
        each check exits 3 with TailError instead of reporting a value."""
        cfg = write_config(tmp_path, {"rho_f": 0.5, "rule": "factorial", "K": 2})
        for check in ("proximity", "characteristic"):
            code = main(
                ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--checks", check]
            )
            assert code == 3
            assert "TailError" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["residual", "asymptotics"])
    def test_starved_sampler_exit_3(self, tmp_path, monkeypatch, capsys, check):
        """Both annulus samplers share one rejection loop: with every draw
        inside a zero disk each run ends in DivergenceError, exit 3."""
        monkeypatch.setattr(growth, "nearest_zero", lambda cfg, z: (1, 0, mpf(0), mpf(0)))
        cfg = write_config(tmp_path, FACT3)
        code = main(
            ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--checks", check,
             "--points", "2"]
        )
        assert code == 3
        assert "DivergenceError: annulus sampling starved" in capsys.readouterr().err

    def test_fault_injection_detected(self, tmp_path):
        """Perturbing one stored residue by 1e-3 must fail the interpolation
        identity for exactly that zero and flip the exit code to 1."""
        cfg = write_config(tmp_path, FACT3)
        art = tmp_path / "art"
        assert main(["construct", "--config", cfg, "--out", str(art)]) == 0
        clean = main(
            [
                "verify", "--config", cfg, "--out", str(tmp_path / "v0"),
                "--artifacts", str(art), "--checks", "interpolation",
            ]
        )
        assert clean == 0
        entries = json.loads((art / "residues.json").read_text())
        write_residue(entries[3], read_residue(entries[3]) + mpf("1e-3"))
        (art / "residues.json").write_text(json.dumps(entries))
        code = main(
            [
                "verify", "--config", cfg, "--out", str(tmp_path / "v1"),
                "--artifacts", str(art), "--checks", "interpolation",
            ]
        )
        assert code == 1
        records = read_records(tmp_path / "v1")
        failed = [r["zero"] for r in records if not r["pass"]]
        assert failed == [[3, 0]]

    def test_exact_zero_reference_one_block(self, tmp_path):
        """f = 1 - z/2 has f'' exactly 0 at its zero: 3f reads 0, the 2f and
        finite-difference 1b records are not applicable, and every check
        passes."""
        cfg = write_config(tmp_path, ONE_FACTOR)
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out), "--points", "2"]) == 0
        records = read_records(out)
        (identity,) = [r for r in records if r["eq"] == "3f"]
        assert identity["value"] == 0.0 and identity["pass"]
        cauchy = [r for r in records if r["check"] == "cauchy"]
        assert [(r["eq"], r.get("route"), r.get("applicable")) for r in cauchy] == [
            ("1b", None, None),
            ("2f", None, False),
            ("1b", "finite-difference of 1/f'", False),
        ]
        assert cauchy[0]["value"] == 0.0 and cauchy[0]["pass"]
        for r in cauchy[1:]:
            assert r["value"] is None and r["pass"]
            assert r["reason"] == "f''/f'^2 is exactly 0 at the zero"

    def test_exact_zero_reference_factorial_k1(self, tmp_path, capsys):
        """Factorial K=1 is f = 1 - z/2 times its tail: the identity passes,
        and cauchy's quadrature circle leaves |z| < r_2/2 with a named
        TailError."""
        cfg = write_config(tmp_path, {"rho_f": 0.5, "rule": "factorial", "K": 1})
        verify = ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--points", "2"]
        assert main([*verify, "--checks", "interpolation"]) == 0
        capsys.readouterr()
        assert main([*verify, "--checks", "all"]) == 3
        assert "TailError: |z| = 2.0625 >= r_{K+1}/2 = 2.0" in capsys.readouterr().err

    def test_fault_injection_detected_where_f2_is_zero(self, tmp_path):
        """With f'' exactly 0 at the zero, a stored residue of 1e-30 is
        measured against |A0 f'| and fails 3f."""
        cfg = write_config(tmp_path, ONE_FACTOR)
        art = tmp_path / "art"
        assert main(["construct", "--config", cfg, "--out", str(art)]) == 0
        entries = json.loads((art / "residues.json").read_text())
        write_residue(entries[0], mpf("1e-30"))
        (art / "residues.json").write_text(json.dumps(entries))
        out = tmp_path / "v"
        verify = ["verify", "--config", cfg, "--out", str(out), "--artifacts", str(art)]
        assert main([*verify, "--checks", "interpolation"]) == 1
        (rec,) = read_records(out)
        assert rec["zero"] == [1, 0] and rec["value"] == 1.0 and rec["pass"] is False

    def test_summability_fails_on_finite_residue_beyond_block_bound(self, tmp_path):
        """A block-4 residue scaled by 10^3 keeps sum |u/z| finite, but its
        |u| passes the block's residue-ratio bound: 3x must fail."""
        cfg = write_config(tmp_path, HEADLINE)
        art = tmp_path / "art"
        assert main(["construct", "--config", cfg, "--out", str(art)]) == 0
        verify = ["verify", "--config", cfg, "--artifacts", str(art), "--checks", "summability"]
        assert main([*verify, "--out", str(tmp_path / "v0")]) == 0
        entries = json.loads((art / "residues.json").read_text())
        i = next(i for i, e in enumerate(entries) if (e["k"], e["m"]) == (4, 1234))
        with mp.workdps(110):
            write_residue(entries[i], 1000 * read_residue(entries[i]))
        (art / "residues.json").write_text(json.dumps(entries))
        assert main([*verify, "--out", str(tmp_path / "v1")]) == 1
        (rec,) = read_records(tmp_path / "v1")
        assert rec["eq"] == "3x" and rec["pass"] is False
        assert rec["value"] < float("inf")
        assert rec["per_block_max_residue"]["4"] > rec["per_block_residue_bound"]["4"]
        assert rec["reason"].startswith("block 4: largest |u| 3.05416")
        for k in "123":
            assert rec["per_block_max_residue"][k] <= rec["per_block_residue_bound"][k]

    def test_artifacts_below_the_run_precision_exit_2(self, tmp_path, capsys, headline_artifacts):
        """Residues written at 100 digits hold 100 digits: a 200-digit run
        refuses them rather than vouch for them at 200."""
        cfg, built = headline_artifacts
        code = main(
            ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--artifacts", str(built),
             "--precision", "200", "--checks", "interpolation,summability"]
        )
        assert code == 2
        assert "were written at 100 digits, below 200" in capsys.readouterr().err

    def test_artifact_count_mismatch_exit_2(self, tmp_path, capsys):
        """An artifact that does not hold the config's zeros, in the config's
        order, is a configuration error: a missing entry, the entries
        reversed, an entry without its residue, a file that holds no list,
        a residue that is not a list of two strings, and a label that is
        no integer, even one that int() would read as the right one."""
        cfg = write_config(tmp_path, FACT3)
        art = tmp_path / "art"
        main(["construct", "--config", cfg, "--out", str(art)])
        entries = json.loads((art / "residues.json").read_text())
        no_residue = [{"k": 1, "m": 0}] + entries[1:]
        # a string would index as its characters: "12" read as 1 + 2i
        bad = [[{**entries[0], "residue": r}] + entries[1:] for r in ("12", ["1", "2", "3"])]
        # entry 1 is zero (2, 0)
        labels = ({"k": 2.5}, {"k": "2"}, {"m": False})
        bad += [entries[:1] + [{**entries[1], **label}] + entries[2:] for label in labels]
        for i, tampered in enumerate((entries[:-1], entries[::-1], no_residue, 5, None, *bad)):
            (art / "residues.json").write_text(json.dumps(tampered))
            capsys.readouterr()
            code = main(
                [
                    "verify", "--config", cfg, "--out", str(tmp_path / f"v{i}"),
                    "--artifacts", str(art), "--checks", "interpolation,residual",
                ]
            )
            assert code == 2, i
            assert "config error" in capsys.readouterr().err, i

    def test_residue_not_in_hex_exit_2(self, tmp_path, capsys):
        """A residue part must be written as construct writes it,
        [-]0x<hex mantissa>p<binary exponent>: a decimal from an earlier
        artifact is refused, and so is hex without its 0x prefix, which
        float.fromhex would read ("0.5" as 0.3125), or with no digits."""
        cfg = write_config(tmp_path, FACT3)
        art = tmp_path / "art"
        assert main(["construct", "--config", cfg, "--out", str(art)]) == 0
        entries = json.loads((art / "residues.json").read_text())
        for part in ("0.5", "12", "0x", "0x1p"):
            tampered = [{**entries[0], "residue": [part, "0x0p0"]}] + entries[1:]
            (art / "residues.json").write_text(json.dumps(tampered))
            code = main(
                ["verify", "--config", cfg, "--out", str(tmp_path / "v"),
                 "--artifacts", str(art), "--checks", "interpolation"]
            )
            assert code == 2, part
            err = capsys.readouterr().err
            assert f"{part!r} is not of the form [-]0x<hex mantissa>p<binary exponent>" in err, err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from([15, 100, 200, 400]),
    st.integers(min_value=0, max_value=2**1400),
    st.integers(min_value=-1200, max_value=1200),
    st.booleans(),
)
def test_residue_hex_round_trip(dps, man, exp, negative):
    """A residue part written at dps digits reads back exactly at dps,
    rounded once at fewer digits, and as the nearest double by
    float.fromhex."""
    with mp.workdps(dps):
        x = mpf((-man if negative else man, exp))
        text = cli._hex(x)
        assert cli._unhex(text) == x
    for lower in (d for d in (15, 100, 200) if d < dps):
        with mp.workdps(lower):
            assert cli._unhex(text) == +x
    if sys.float_info.min <= abs(float(x)) <= sys.float_info.max:
        assert float.fromhex(text) == float(x)


def test_residue_hex_of_zero_and_nonfinite():
    assert [cli._hex(mpf(x)) for x in (0, "nan", "inf", "-inf")] == ["0x0p0", "nan", "inf", "-inf"]
    assert cli._unhex("0x0p0") == 0 and mp.isnan(cli._unhex("nan"))


def test_artifact_reader_keeps_the_bits_of_mpc():
    """``_entry_residue`` builds each residue from its parts' raw tuples,
    rounded once by ``_unhex``: the bits of ``mpc(_unhex(re), _unhex(im))``
    for non-finite parts, zero, negative parts and parts written at more
    bits than the reading precision.  Malformed and out-of-order entries
    raise the same ConfigError messages."""
    rng = random.Random(45)
    with mp.workdps(400):
        wide = [mpf(rng.random()) * mpf(2) ** rng.randint(-300, 300) for _ in range(4)]
        parts = ["nan", "inf", "-inf", "0x0p0", cli._hex(-mpf(3) / 7), cli._hex(mpf(5))]
        parts += [cli._hex(x) for x in wide] + [cli._hex(-x) for x in wide]
    for dps in (30, 100, 200):
        with mp.workdps(dps):
            for re in parts:
                for im in parts:
                    got = cli._entry_residue({"k": 2, "m": 3, "residue": [re, im]}, 2, 3)
                    assert got._mpc_ == mpc(cli._unhex(re), cli._unhex(im))._mpc_, (dps, re, im)
    with pytest.raises(errors.ConfigError) as info:
        cli._entry_residue({"k": 2, "m": 0, "residue": ["0x1p0", "0x0p0"]}, 1, 0)
    assert str(info.value) == "artifact entry is zero (2, 0); config order expects (1, 0)"
    for residue in ("12", ["1", 2], ["0x1p0"]):
        with pytest.raises(errors.ConfigError) as info:
            cli._entry_residue({"k": 1, "m": 0, "residue": residue}, 1, 0)
        expected = f"artifact entry (1, 0): residue must be a list of two strings, got {residue!r}"
        assert str(info.value) == expected


class TestTopBlockDeferral:
    """``verify`` forms block K's residues only when a check of
    ``checks.RESIDUE_CHECKS`` is selected, and then inside make_system."""

    @pytest.fixture
    def formed(self, monkeypatch):
        """(k, inside make_system) of every residue pass."""
        calls, inside = [], []
        real_pass, real_system = interpolation._block_residues, cli.make_system

        def counted(cfg, k):
            calls.append((k, bool(inside)))
            return real_pass(cfg, k)

        def system(*args, **kwargs):
            inside.append(True)
            try:
                return real_system(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(interpolation, "_block_residues", counted)
        monkeypatch.setattr(cli, "make_system", system)
        return calls

    @pytest.mark.parametrize(
        "names, code",
        [("characteristic", 0), ("summability", 0), ("proximity", 0), ("cauchy,asymptotics", 1)],
    )
    def test_checks_that_read_no_stored_residue_form_no_block_k(
        self, tmp_path, formed, names, code
    ):
        cfg = write_config(tmp_path, {**HEADLINE, "rho_H": 0.4})
        argv = ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--checks", names]
        assert main(argv) == code
        assert formed == [(1, True), (2, True), (3, True)]

    @pytest.mark.parametrize("names", ["interpolation", "residual", "summability,residual"])
    def test_residue_checks_form_block_k_once_inside_make_system(self, tmp_path, formed, names):
        cfg = write_config(tmp_path, {**HEADLINE, "rho_H": 0.4})
        argv = ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--checks", names]
        assert main([*argv, "--points", "1"]) == 0
        assert formed == [(1, True), (2, True), (3, True), (4, True)]


class TestHOnlyForResidual:
    """``verify`` builds H only when a check of ``checks.H_CHECKS`` is
    selected: ``residual``'s 1d records are the one reader of H."""

    @pytest.mark.parametrize(
        "names, builds",
        [
            ("characteristic", 0),
            ("summability", 0),
            ("proximity", 0),
            ("cauchy,asymptotics", 0),
            ("residual", 1),
            ("all", 1),
        ],
    )
    def test_verify_builds_h_only_for_residual(self, tmp_path, monkeypatch, names, builds):
        built = []
        real = coefficients.build_H

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(coefficients, "build_H", counted)
        cfg = write_config(tmp_path, {**HEADLINE, "rho_H": 0.4})
        argv = ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--checks", names]
        assert main([*argv, "--points", "1"]) in (0, 1)
        assert len(built) == builds


class TestPastTheEnumerationCap:
    """At factorial K = 5 block 5 has n_5 = 2^60 zeros.  Only ``zeros`` and
    the residue pass meet the enumeration cap, so the five checks that read
    no stored residue run there; whatever forms block 5 exits 2."""

    UNFORMED = "cauchy,asymptotics,summability,proximity,characteristic"
    CAP = "config error: block 5 has 1152921504606846976 zeros; enumeration capped at 1000000\n"
    THEOREM_2C = [
        ("asymptotics", "2c", [3, 0], "disk free of zeros of f'", 1),
        ("asymptotics", "2c", None, "zero-free disk confirmed for every applicable block", None),
    ]

    @pytest.mark.parametrize("precision", ["100", "200"])
    @pytest.mark.parametrize(
        "payload, failing",
        [
            pytest.param({**HEADLINE, "rho_H": 0.4}, [TestVerify.CAUCHY_2F], id="headline"),
            pytest.param(THEOREM, [TestVerify.CAUCHY_2F, *THEOREM_2C], id="theorem"),
        ],
    )
    def test_checks_that_form_no_block_5_fail_only_the_k4_records(
        self, tmp_path, payload, failing, precision
    ):
        """The records that fail are those that fail at K = 4 (ROADMAP.md
        items 2(a) and 2(b)); block 5's own records pass."""
        cfg = write_config(tmp_path, {**payload, "K": 5})
        out = tmp_path / "v"
        argv = ["verify", "--config", cfg, "--out", str(out), "--precision", precision]
        assert main([*argv, "--checks", self.UNFORMED]) == 1
        records = read_records(out)
        failed = [
            (r["check"], r["eq"], r["zero"], r.get("property"), r.get("winding"))
            for r in records
            if not r["pass"]
        ]
        assert failed == failing
        assert any(r["zero"] == [5, 0] for r in records)

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--checks", "all"], ["verify", "--checks", "residual"], ["construct"]],
        ids=["verify-all", "verify-residual", "construct"],
    )
    def test_commands_that_form_block_5_exit_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, {**HEADLINE, "K": 5, "rho_H": 0.4})
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().err == self.CAP

    def test_a_contour_finer_than_the_precision_exits_3_with_a_precision_that_runs(
        self, tmp_path, capsys
    ):
        """On factorial 0.55 K = 5 the quadrature circle of zero (5, 0),
        radius r_5/(32 n_5), lies below 10^-20 r_5 at 40 digits; the
        suggested 43 digits resolve it, and the run gets to its records."""
        cfg = write_config(tmp_path, {"rho_f": 0.55, "rule": "factorial", "K": 5})
        out = tmp_path / "v"
        argv = ["verify", "--config", cfg, "--out", str(out), "--checks", "cauchy", "--precision"]
        assert main([*argv, "40"]) == 3
        assert capsys.readouterr().err == (
            "precision insufficient: contour radius 5.6294995e+14 outside "
            "[10^-20 r_5, r_5/n_5] (suggested precision: 43)\n"
        )
        assert main([*argv, "43"]) == 1
        assert any(r["zero"] == [5, 0] for r in read_records(out))


class TestScan:
    def test_witness_violation_for_factorial(self, tmp_path):
        cfg = write_config(tmp_path, FACT7)
        out = tmp_path / "s"
        assert main(["scan", "--config", cfg, "--out", str(out), "--scan", "witness"]) == 0
        summary = json.loads((out / "witness_summary.json").read_text())
        assert summary["verdict"] == "violation"
        assert summary["ks"] == [4, 5, 6, 7]
        header = (out / "witness.csv").read_text().splitlines()[0]
        assert header == "r,theta,log_abs_f,ratio,excluded"

    def test_witness_no_violation_single_block(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        out = tmp_path / "s"
        assert main(["scan", "--config", cfg, "--out", str(out), "--scan", "witness"]) == 0
        summary = json.loads((out / "witness_summary.json").read_text())
        assert summary["verdict"] == "no violation"

    def test_order_scan_summary(self, tmp_path):
        cfg = write_config(tmp_path, FACT7)
        out = tmp_path / "s"
        assert main(["scan", "--config", cfg, "--out", str(out), "--scan", "order"]) == 0
        summary = json.loads((out / "order_summary.json").read_text())
        assert summary["peaks_in_band"] is True
        assert summary["dips_strictly_decreasing"] is True
        assert len(summary["peak_ratios"]) == 4

    def test_indicator_scan_of_h(self, tmp_path):
        cfg = write_config(tmp_path, ANCHOR)
        out = tmp_path / "s"
        code = main(
            ["scan", "--config", cfg, "--out", str(out), "--scan", "indicator", "--angles", "36"]
        )
        assert code == 0
        summary = json.loads((out / "indicator_summary.json").read_text())
        assert summary["target"] == "H"
        assert summary["all_positive"] is True
        assert summary["budget_ok"] is True
        lines = (out / "indicator.csv").read_text().splitlines()
        assert len(lines) == 37

    def test_indicator_scan_of_f(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        out = tmp_path / "s"
        code = main(
            ["scan", "--config", cfg, "--out", str(out), "--scan", "indicator", "--angles", "16"]
        )
        assert code == 0
        summary = json.loads((out / "indicator_summary.json").read_text())
        assert summary["target"] == "f"
        assert summary["budget_ok"] is True

    def test_indicator_scan_on_zeros_past_k(self, tmp_path):
        """factorial K=2 scans at 16 r_2 = 64 = r_3: the samples at theta = 0
        and pi sit on zeros of block 3, which the scan's f takes.  They are
        excluded with the 28 other samples within r_3/n_3 = 8 of a block-3
        zero, and block 3's disks (sum 64) break the r/10 budget."""
        cfg = write_config(tmp_path, {"rho_f": 0.5, "rule": "factorial", "K": 2})
        out = tmp_path / "s"
        code = main(
            ["scan", "--config", cfg, "--out", str(out), "--scan", "indicator", "--angles", "90"]
        )
        assert code == 0
        summary = json.loads((out / "indicator_summary.json").read_text())
        assert summary["excluded_samples"] == 30
        assert summary["budget_ok"] is False
        rows = [row.split(",") for row in (out / "indicator.csv").read_text().splitlines()[1:]]
        assert len(rows) == 90 and all(len(row) == 5 for row in rows)
        on_zeros = [row for row in rows if float(row[1]) in (0.0, float(mp.pi))]
        assert len(on_zeros) == 2
        assert all(row[4] == "True" for row in on_zeros)


class TestReport:
    def test_aggregates_and_exit_codes(self, tmp_path):
        cfg = write_config(tmp_path, ANCHOR)
        out = tmp_path / "run"
        main(["verify", "--config", cfg, "--out", str(out), "--points", "10",
              "--checks", "interpolation,summability"])
        main(["scan", "--config", cfg, "--out", str(out), "--scan", "indicator",
              "--angles", "12"])
        assert main(["report", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["verify"]["failed"] == 0
        assert "indicator" in report["scans"]

    def test_report_flags_failures(self, tmp_path):
        cfg = write_config(tmp_path, FACT3)
        art = tmp_path / "art"
        main(["construct", "--config", cfg, "--out", str(art)])
        entries = json.loads((art / "residues.json").read_text())
        write_residue(entries[0], read_residue(entries[0]) + mpf("1e-3"))
        (art / "residues.json").write_text(json.dumps(entries))
        out = tmp_path / "run"
        main(["verify", "--config", cfg, "--out", str(out), "--artifacts", str(art),
              "--checks", "interpolation"])
        assert main(["report", "--out", str(out)]) == 1

    def test_report_flags_nonpositive_indicator(self, tmp_path):
        """An indicator scan within its disk budget still fails the report
        when a nonexcluded ratio is not positive."""
        out = tmp_path / "run"
        out.mkdir()
        summary = {"scan": "indicator", "target": "f", "min_ratio_nonexcluded": -0.5,
                   "all_positive": False, "excluded_samples": 0, "budget_ok": True}
        (out / "indicator_summary.json").write_text(json.dumps(summary))
        assert main(["report", "--out", str(out)]) == 1
        assert json.loads((out / "report.json").read_text())["passed"] is False


    def test_missing_directory_exit_2(self, tmp_path, capsys):
        """--out naming no directory is unreadable input: exit 2 with a
        message that names it, and no directory is made."""
        out = tmp_path / "missing"
        assert main(["report", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_records_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "records.jsonl").write_text('{"check": "residual", "pass": true}\n{"check": "res')
        assert main(["report", "--out", str(out)]) == 2
        assert "records.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, summary, reason",
        [
            ("order", {"scan": "order", "dips_strictly_decreasing": True}, "peaks_in_band"),
            ("witness", ["violation"], "not a JSON object"),
        ],
        ids=["order-without-gate-field", "witness-not-an-object"],
    )
    def test_incomplete_summary_exit_2(self, tmp_path, capsys, name, summary, reason):
        out = tmp_path / "run"
        out.mkdir()
        (out / f"{name}_summary.json").write_text(json.dumps(summary))
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{name}_summary.json" in err and reason in err


def test_record_keeps_the_log10_of_an_underflowing_value():
    """2a compares mpf values like 9.5e-22027 against 3.2e-22025: both read
    0.0 as floats, and the record also carries their log10."""
    from lacunary.checks import record

    rec = record("asymptotics", "2a", mpf("9.5e-22027"), mpf("3.2e-22025"), True)
    assert (rec["value"], rec["bound"]) == (0.0, 0.0)
    assert abs(rec["log10_value"] + 22026.0223) < 1e-3
    assert abs(rec["log10_bound"] + 22024.4949) < 1e-3
    assert list(rec)[-3:] == ["log10_value", "log10_bound", "pass"]
    for value, bound in ((mpf(0), mpf("1e-40")), (mpf("1e-300"), None)):
        assert not any(key.startswith("log10") for key in record("c", "1c", value, bound, True))


ERROR_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.LacunaryError)
    and cls is not errors.LacunaryError
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error(tmp_path, monkeypatch, capsys, cls):
    """main maps ConfigError to 2 and every NumericalError to 3, printing
    the suggested precision of PrecisionInsufficient."""
    kwargs = {"suggested_dps": 321} if cls is errors.PrecisionInsufficient else {}

    def fail(*args, **kw):
        raise cls("planted", **kwargs)

    monkeypatch.setattr(cli, "make_system", fail)
    cfg = write_config(tmp_path, ANCHOR)
    code = main(["construct", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "planted" in err
    if cls is errors.ConfigError:
        assert code == 2
    else:
        assert issubclass(cls, errors.NumericalError) and code == 3
    if cls is errors.PrecisionInsufficient:
        assert "suggested precision: 321" in err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize(
    "command, extra",
    [("construct", ()), ("verify", ("--checks", "summability")), ("scan", ("--scan", "order"))],
    ids=["construct", "verify", "scan"],
)
def test_out_that_is_no_directory_exits_2(tmp_path, capsys, command, extra, under):
    """An --out that is a file, or a path under one, cannot hold the
    outputs: exit 2 with a message that names --out, file untouched."""
    cfg = write_config(tmp_path, ANCHOR)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "out" if under else blocker
    assert main([command, "--config", cfg, "--out", str(out), *extra]) == 2
    assert f"--out {out}" in capsys.readouterr().err
    assert blocker.read_text() == "kept"


def _off_by_one_n3(monkeypatch, art):
    """growth.log_derivative evaluates the headline product with n_3 = 9
    instead of 8, a config that still passes the schedule's validation."""
    blocks = config_from_blocks([(2, 1), (4, 2), (64, 9), (2**24, 4096)]).blocks
    real = growth.log_derivative

    def wrong(cfg, z):
        return real(dataclasses.replace(cfg, blocks=blocks), z)

    monkeypatch.setattr(growth, "log_derivative", wrong)


def _residues_off_by_1e30(monkeypatch, art):
    """The stored residues (2, 1), (3, 5) and (4, 1234) scaled by 1 + 1e-30."""
    path = art / "residues.json"
    entries = json.loads(path.read_text())
    for e in entries:
        if (e["k"], e["m"]) in ((2, 1), (3, 5), (4, 1234)):
            with mp.workdps(110):
                write_residue(e, (1 + mpf(10) ** -30) * read_residue(e))
    path.write_text(json.dumps(entries))


def _residue_4_1234_times_10(monkeypatch, art):
    """The stored residue (4, 1234) scaled by 10: block 4's largest |u|
    then reads 3.05e-63, against the residue-ratio bound 1.65e-63."""
    path = art / "residues.json"
    entries = json.loads(path.read_text())
    (e,) = [e for e in entries if (e["k"], e["m"]) == (4, 1234)]
    with mp.workdps(110):
        write_residue(e, 10 * read_residue(e))
    path.write_text(json.dumps(entries))


def _residue_4_1234_doubled(monkeypatch, art):
    """The stored residue (4, 1234) doubled: 6.1e-64, inside the residue-ratio
    bound 1.65e-63 but twice block 4's closed-form bound M_4 = 3.05e-64."""
    path = art / "residues.json"
    entries = json.loads(path.read_text())
    (e,) = [e for e in entries if (e["k"], e["m"]) == (4, 1234)]
    with mp.workdps(110):
        write_residue(e, 2 * read_residue(e))
    path.write_text(json.dumps(entries))


def _residue_4_1234_nan(monkeypatch, art):
    """The stored residue (4, 1234) read as NaN: sum |u/z| is then no
    finite number."""
    path = art / "residues.json"
    entries = json.loads(path.read_text())
    (e,) = [e for e in entries if (e["k"], e["m"]) == (4, 1234)]
    write_residue(e, mpc(mp.nan, 0))
    path.write_text(json.dumps(entries))


def _residue_2_1_times_1e12(monkeypatch, art):
    """The stored residue (2, 1), |u| = 0.39, scaled by 10^12.

    On 10..1000 r_K (r_K = 2^24) the block sums bound |g| by 2.8e-8, so
    a residue fault reaches m(r, g) only once |u| exceeds about r - r_2:
    1.7e8 at 10 r_K and 1.7e10 at 1000 r_K, where the final 3a record
    judges m.  Faults of the size the other rows plant leave |g| < 1 on
    every circle, and m = 0 is then the right answer.  This one lifts the
    final m to 3.14 (bound 0.01) and the 3h gap at 100 r_K to 5.45
    (bound 0.05), both through the quadrature."""
    path = art / "residues.json"
    entries = json.loads(path.read_text())
    (e,) = [e for e in entries if (e["k"], e["m"]) == (2, 1)]
    with mp.workdps(110):
        write_residue(e, mpf(10) ** 12 * read_residue(e))
    path.write_text(json.dumps(entries))


def _kernel_s1_off_by_1e30(monkeypatch, art):
    """``product._extracted_raw``, the block pass's kernel, returns S1 scaled
    by 1 + 1e-30, and construct rebuilds residues.json under that fault:
    every stored residue takes it, while 3f's f' and f'' come from a route
    that does not run the kernel, so all 75 records fail."""
    real = product._extracted_raw

    def wrong(*args):
        P, S1 = real(*args)
        return P, (mp.make_mpc(S1) * (1 + mpf(10) ** -30))._mpc_

    monkeypatch.setattr(product, "_extracted_raw", wrong)
    cfg = write_config(art.parent, {**HEADLINE, "rho_H": 0.4}, name="kernel.json")
    assert main(["construct", "--config", cfg, "--out", str(art)]) == 0


@pytest.fixture(scope="module")
def headline_artifacts(tmp_path_factory):
    """The headline config with H, and its construct output, made once."""
    root = tmp_path_factory.mktemp("headline")
    cfg = write_config(root, {**HEADLINE, "rho_H": 0.4})
    assert main(["construct", "--config", cfg, "--out", str(root / "art")]) == 0
    return cfg, root / "art"


@pytest.fixture(scope="module")
def headline_artifacts_200(headline_artifacts):
    """``construct --precision 200`` on the headline config with H, made once."""
    cfg, built = headline_artifacts
    art = built.parent / "art200"
    assert main(["construct", "--config", cfg, "--out", str(art), "--precision", "200"]) == 0
    return art


class TestArtifactRoundTrip:
    def test_residues_only_and_records_unchanged(
        self, tmp_path, headline_artifacts, headline_artifacts_200
    ):
        """residues.json holds (k, m) and the residue of each zero, nothing
        else, and verifying from it writes the records that verifying from
        a fresh construction writes, byte for byte, at 100 and 200 digits."""
        cfg, built = headline_artifacts
        built_200 = headline_artifacts_200
        for art, dps in ((built, "100"), (built_200, "200")):
            entries = json.loads((art / "residues.json").read_text())
            assert len(entries) == 4107
            assert all(sorted(e) == ["k", "m", "residue"] for e in entries)
            outs = []
            for name, extra in (("fresh", ()), ("artifact", ("--artifacts", str(art)))):
                out = tmp_path / f"{name}{dps}"
                code = main(
                    ["verify", "--config", cfg, "--out", str(out), "--points", "5",
                     "--precision", dps, "--checks", "interpolation,summability,residual", *extra]
                )
                assert code == 0
                outs.append((out / "records.jsonl").read_bytes())
            assert outs[0] == outs[1], dps

    def test_artifact_checks_form_no_pole(self, monkeypatch, tmp_path, headline_artifacts):
        """No check of the contour route sums g, so verifying from the
        artifacts forms no zero of the config: it exits 1 on the known
        cauchy record, as it does with the zeros in reach."""

        def unreachable(cfg, k):
            raise AssertionError(f"zeros of block {k} formed")

        monkeypatch.setattr(interpolation, "zeros", unreachable)
        cfg, built = headline_artifacts
        code = main(
            ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--artifacts", str(built),
             "--checks", "interpolation,summability,cauchy,asymptotics"]
        )
        assert code == 1

    def test_top_block_zeros_never_formed(self, monkeypatch, tmp_path, headline_artifacts):
        """construct forms no zero, and a plain verify that sums g forms
        none of the 4096 zeros of block 4: the residue pass works on unit
        roots alone, and g takes block 4 in closed form."""
        calls = []
        real = product.zeros

        def counting(cfg, k):
            calls.append(k)
            return real(cfg, k)

        for module in (product, interpolation, cli):
            if hasattr(module, "zeros"):
                monkeypatch.setattr(module, "zeros", counting)
        cfg, _ = headline_artifacts
        common = ["--config", cfg]
        assert main(["construct", *common, "--out", str(tmp_path / "art")]) == 0
        assert calls == []
        code = main(
            ["verify", *common, "--out", str(tmp_path / "v"), "--points", "2",
             "--checks", "interpolation,residual"]
        )
        assert code == 0 and 4 not in calls and calls

    def test_artifact_residual_forms_no_top_block_zero(
        self, monkeypatch, tmp_path, headline_artifacts
    ):
        """Verifying the residual from the artifacts sums g, and block 4's
        part of g comes in closed form from the config at every sample
        point, so none of the 4096 zeros of block 4 is formed."""
        calls = []
        real = product.zeros

        def counting(cfg, k):
            calls.append(k)
            return real(cfg, k)

        for module in (product, interpolation, cli):
            if hasattr(module, "zeros"):
                monkeypatch.setattr(module, "zeros", counting)
        cfg, built = headline_artifacts
        code = main(
            ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--artifacts", str(built),
             "--checks", "residual", "--points", "2"]
        )
        assert code == 0
        assert calls and 4 not in calls


    @pytest.mark.parametrize(
        "blocks",
        [[[4, 1], [2**100, 32]], [[3.3, 1], [1e30, 32]]],
        ids=["integer-radius", "float-radius"],
    )
    def test_verify_through_the_written_config(self, tmp_path, blocks):
        """The config.json that construct writes holds the radii it read,
        bit for bit: verifying the artifacts through it passes, as it does
        through the config construct read."""
        cfg = write_config(tmp_path, {"blocks": blocks, "rho_f": 0.05})
        art = tmp_path / "art"
        assert main(["construct", "--config", cfg, "--out", str(art)]) == 0
        for i, config in enumerate((cfg, str(art / "config.json"))):
            code = main(
                ["verify", "--config", config, "--out", str(tmp_path / f"v{i}"),
                 "--artifacts", str(art), "--checks", "interpolation,summability"]
            )
            assert code == 0, config


class TestFaultMatrix:
    """Each row plants one targeted fault in a verify run on the headline
    config: the target check must pass clean and, with the fault in place
    (exit 1), fail as many records of the target identity as the fault
    reaches: one 2c record of block 3, all 75 3f records, the one 3x
    record, the one 3a record, the one 3h record, and the 1c record of
    each of the 20 points."""

    @pytest.mark.parametrize(
        "check, eq, failures, extra, fault",
        [
            pytest.param("asymptotics", "2c", 1, (), _off_by_one_n3, id="asymptotics-wrong-n3"),
            pytest.param(
                "interpolation",
                "3f",
                75,
                (),
                _kernel_s1_off_by_1e30,
                id="interpolation-extraction-kernel",
            ),
            pytest.param(
                "summability", "3x", 1, (), _residue_4_1234_times_10,
                id="summability-large-residue",
            ),
            pytest.param(
                "summability", "3x", 1, (), _residue_4_1234_doubled,
                id="summability-doubled-residue",
            ),
            pytest.param(
                "summability", "3x", 1, (), _residue_4_1234_nan,
                id="summability-nonfinite-residue",
            ),
            pytest.param(
                "proximity", "3a", 1, (), _residue_2_1_times_1e12, id="proximity-large-residue"
            ),
            pytest.param(
                "characteristic",
                "3h",
                1,
                (),
                _residue_2_1_times_1e12,
                id="characteristic-large-residue",
            ),
            pytest.param(
                "residual",
                "1c",
                20,
                ("--points", "20"),
                _residues_off_by_1e30,
                id="residual-wrong-residue",
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="B0 is defined as -(f'' + A0 f')/f on the direct route, so "
                    "f'' + A f' + B f cancels whatever the residues are",
                ),
            ),
        ],
    )
    def test_fault_fails_its_check(
        self, tmp_path, monkeypatch, headline_artifacts, check, eq, failures, extra, fault
    ):
        cfg, built = headline_artifacts
        art = tmp_path / "art"
        art.mkdir()
        for name in ("residues.json", "config.json"):
            shutil.copy(built / name, art / name)

        def verify(name):
            out = tmp_path / name
            code = main(
                ["verify", "--config", cfg, "--out", str(out), "--artifacts", str(art),
                 "--checks", check, *extra]
            )
            return code, read_records(out)

        code, records = verify("clean")
        assert code == 0 and all(r["pass"] for r in records)
        # g's checks pass clean from the certificate B < 1 ...
        assert all(r.get("sup_g_bound", 0) < 1 for r in records)
        fault(monkeypatch, art)
        code, records = verify("fault")
        assert code == 1
        failed = [r for r in records if r["check"] == check and r["eq"] == eq and not r["pass"]]
        assert len(failed) == failures
        # ... and fail a fault through the quadrature
        assert all(r.get("sup_g_bound", 1) >= 1 for r in failed)


class TestGolden:
    """The CLI's outputs are byte for byte those that ``tests/golden.json``
    holds for this mpmath version and backend (``tests/write_golden.py``
    writes them): ``verify --checks all`` on the headline, theorem and
    README explicit configs at 100 digits, from the runs TestVerify reads,
    ``construct --precision 200`` on the headline, and the runs of
    GOLDEN_RUNS: the contour verify from that construct, ``verify --checks
    all`` at 200 digits, the residual verify, and the order, witness and
    indicator scans.  A key with no digests fails."""

    @pytest.fixture(scope="class")
    def golden(self):
        table = json.loads(GOLDEN.read_text(encoding="utf-8"))
        key = golden_key()
        if key not in table:
            pytest.fail(
                f"tests/golden.json holds no digests for {key!r} (it has {sorted(table)}); "
                "write them with tests/write_golden.py on a commit whose outputs are trusted"
            )
        return table[key]

    @staticmethod
    def _compare(expected, out, files):
        got = output_digests(out, files)
        assert sorted(got) == sorted(expected), "tests/golden.json pins other files"
        lines, want = got.get("record_lines", []), expected.get("record_lines", [])
        if lines != want:
            i = next((i for i, (a, b) in enumerate(zip(lines, want)) if a != b), min(len(lines), len(want)))
            lined = golden_lined(files)
            if i >= len(lines):
                named = "none: the run wrote fewer records"
            elif lined == "records.jsonl":
                rec = read_records(out)[i]
                named = ", ".join(f"{k}={rec.get(k)!r}" for k in ("check", "eq", "zero", "property"))
            else:
                named = (out / lined).read_text().splitlines()[i]
            pytest.fail(f"{lined} differs first at line {i + 1} of {len(lines)} "
                        f"(golden {len(want)}): {named}")
        changed = [name for name in got if got[name] != expected[name]]
        assert not changed, f"{out}: {changed} differ from tests/golden.json"

    @pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
    def test_verify_all_outputs(self, golden, verify_all, name):
        self._compare(golden[golden_verify(name)], verify_all(name)[1], GOLDEN_VERIFY_FILES)

    def test_construct_outputs_at_200_digits(self, golden, headline_artifacts_200):
        self._compare(golden[GOLDEN_CONSTRUCT], headline_artifacts_200, GOLDEN_CONSTRUCT_FILES)

    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_run_outputs(self, golden, tmp_path, headline_artifacts_200, name):
        code, out = golden_run(tmp_path, name, headline_artifacts_200)
        assert code in (0, 1), name
        self._compare(golden[name], out, GOLDEN_RUNS[name][2])

    def test_headline_indicator_scan_exits_3_with_no_outputs(self, tmp_path):
        """H is certified only to a_64/2 = 16384, below the scan's radius
        10^6: the headline's indicator scan exits 3 and writes neither of
        its files."""
        out = tmp_path / "out"
        cfg = write_config(tmp_path, GOLDEN_CONFIGS["headline"])
        assert main(["scan", "--config", cfg, "--out", str(out), "--scan", "indicator"]) == 3
        assert not (out / "indicator.csv").exists()
        assert not (out / "indicator_summary.json").exists()


class TestEachDiskCircleOnce:
    """``verify`` evaluates f' once at each node of a disk circle
    |z - r_k| = r_k/n_k: the 2c windings, the 2e nodes and 2f's first
    winding radius share the config's samples.  When each check sampled
    its own, ``--checks all`` made 384 evaluations on the headline and 864
    on the theorem config."""

    @pytest.fixture
    def nodes(self, monkeypatch):
        """The f' evaluations of the test's runs, one (block, radius,
        direction) each, counted at every binding of the sampler."""
        nodes, real = [], product._fprime_on_circle

        def counting(cfg, k, radius, directions):
            nodes.extend((k, radius, w) for w in directions)
            return real(cfg, k, radius, directions)

        for module in (product, coefficients, growth):
            monkeypatch.setattr(module, "_fprime_on_circle", counting)
        return nodes

    @staticmethod
    def _verify(tmp_path, name, checks):
        """The records of one verify on a fresh config."""
        out = tmp_path / f"{name}-{checks}"
        cfg = write_config(tmp_path, GOLDEN_CONFIGS[name], f"{name}.json")
        assert main(["verify", "--config", cfg, "--out", str(out), "--checks", checks]) in (0, 1)
        return read_records(out)

    @pytest.mark.parametrize("name, evaluations", [("headline", 352), ("theorem", 608)])
    def test_verify_all_evaluates_each_node_once(self, nodes, tmp_path, name, evaluations):
        self._verify(tmp_path, name, "all")
        assert len(nodes) == len(set(nodes)) == evaluations

    @pytest.mark.parametrize("name, evaluations", [("headline", 352), ("theorem", 608)])
    def test_check_order_changes_no_record(self, nodes, tmp_path, name, evaluations):
        """Whichever of cauchy and asymptotics fills the samples, each writes
        the same records from the same evaluations."""
        runs = []
        for checks in ("cauchy,asymptotics", "asymptotics,cauchy"):
            nodes.clear()
            runs.append(self._verify(tmp_path, name, checks))
            assert len(nodes) == len(set(nodes)) == evaluations
        for check in ("cauchy", "asymptotics"):
            first, second = ([r for r in records if r["check"] == check] for records in runs)
            assert first == second and first


class TestEachConstantOnce:
    """``verify`` forms once what is fixed for the whole command: the grid
    directions of its circles (``LacunaryConfig._grid``), the winding of
    each disk circle (``coefficients.disk_winding``) and the cancellation
    bands of each precision (``product._bands``).  When each was formed
    where it was read, ``verify --precision 200 --checks
    cauchy,asymptotics`` on the headline called ``mp.expjpi`` 352 times for
    32 grid directions, summed disk 3's winding twice and formed the
    bands 431 times."""

    @staticmethod
    def _verify(tmp_path):
        cfg = write_config(tmp_path, GOLDEN_CONFIGS["headline"])
        argv = ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--precision", "200",
                "--checks", "cauchy,asymptotics"]
        assert main(argv) == 1

    def test_grid_directions_formed_once(self, monkeypatch, tmp_path):
        """Grid direction e^{i pi (2i + 1)/4096}, whose argument times 4096
        is odd, unlike the unit roots' 2m/n."""
        calls, expjpi = [], mp.expjpi
        monkeypatch.setattr(mp, "expjpi", lambda x: calls.append(x) or expjpi(x))
        self._verify(tmp_path)
        grid = [x for x in calls if (x * coefficients.MAX_NODES) % 2 == 1]
        assert len(grid) == len(set(grid)) == 32

    def test_disk_winding_summed_once(self, monkeypatch, tmp_path):
        """The sampler counted at every binding: each circle's winding is
        summed once, disk 3's among them (cauchy and asymptotics (iv))."""
        sums, real = [], coefficients.sample_winding

        def counting(cfg, k, radius, samples):
            sums.append((k, radius))
            return real(cfg, k, radius, samples)

        for module in (coefficients, growth):
            if hasattr(module, "sample_winding"):
                monkeypatch.setattr(module, "sample_winding", counting)
        self._verify(tmp_path)
        r_3, n_3 = product.make_schedule(0.5, 4, "factorial", dps=200).blocks[2]
        with mp.workdps(200):
            assert sums.count((3, r_3 / n_3)) == 1
        assert len(sums) == len(set(sums))

    def test_bands_formed_once_per_precision(self, monkeypatch, tmp_path):
        """Every ``_bands(strict, prec)`` call of the run returns one object
        per argument pair."""
        formed, real = {}, product._bands

        def recording(strict, prec):
            bands = real(strict, prec)
            formed.setdefault((strict, prec), {})[id(bands)] = bands
            return bands

        monkeypatch.setattr(product, "_bands", recording)
        self._verify(tmp_path)
        with mp.workdps(200):
            assert (True, mp.prec) in formed
        assert all(len(objects) == 1 for objects in formed.values())


class TestEachRuleBlockOnce:
    """Each command forms block k of a rule schedule once: the config keeps
    the blocks past K it has formed.  When every ``block(k)`` past K formed
    its block again, a headline order or witness scan formed blocks 5..8
    9, 7, 5 and 2 times, and ``verify --checks all`` formed block 5 895
    times."""

    @pytest.fixture
    def formed(self, monkeypatch):
        """The k of every ``_rule_block`` call of the test's runs."""
        formed, real = [], product._rule_block

        def counting(rule, rho, k):
            formed.append(k)
            return real(rule, rho, k)

        monkeypatch.setattr(product, "_rule_block", counting)
        return formed

    @pytest.mark.parametrize(
        "argv, last",
        [(["scan", "--scan", "order"], 8), (["scan", "--scan", "witness"], 8),
         (["verify", "--checks", "all"], 5)],
        ids=["order", "witness", "verify-all"],
    )
    def test_headline_forms_each_block_once(self, formed, tmp_path, argv, last):
        cfg = write_config(tmp_path, GOLDEN_CONFIGS["headline"])
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 1)
        assert sorted(formed) == list(range(1, last + 1))


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, FACT3)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["verify", "--config", cfg, "--out", str(out), "--points", "10",
                  "--seed", "7", "--checks", "interpolation,residual,summability"])
            main(["scan", "--config", cfg, "--out", str(out), "--scan", "witness"])
            main(["construct", "--config", cfg, "--out", str(out / "art")])
            outs.append(out)
        a, b = outs
        for rel in (
            "records.jsonl",
            "verify_summary.json",
            "witness.csv",
            "witness_summary.json",
            "art/zeros.json",
            "art/residues.json",
            "art/system.json",
        ):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_json_outputs_keep_their_layout(self, tmp_path):
        """Every JSON file that construct, verify, scan and report write is
        ``json.dumps(obj, indent=1)`` plus a newline, whatever the writer."""
        cfg = write_config(tmp_path, ANCHOR)
        out = tmp_path / "run"
        common = ["--config", cfg, "--out", str(out)]
        main(["construct", *common])
        main(["verify", *common, "--points", "2", "--checks", "interpolation,summability"])
        for kind in ("order", "witness", "indicator"):
            main(["scan", *common, "--scan", kind, "--angles", "8"])
        main(["report", "--out", str(out)])
        names = sorted(path.name for path in out.glob("*.json"))
        assert names == [
            "config.json", "indicator_summary.json", "order_summary.json", "report.json",
            "residues.json", "system.json", "verify_summary.json", "witness_summary.json",
            "zeros.json",
        ]
        for name in names:
            text = (out / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=1) + "\n", name

    def test_seed_changes_sample_points(self, tmp_path):
        cfg = write_config(tmp_path, ANCHOR)
        rec = {}
        for seed in ("1", "2"):
            out = tmp_path / seed
            main(["verify", "--config", cfg, "--out", str(out), "--points", "5",
                  "--seed", seed, "--checks", "residual"])
            rec[seed] = read_records(out)
        assert rec["1"] != rec["2"]


def test_module_entry_point(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    # the child finds the package where this process found it, installed or not
    src = str(Path(lacunary.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lacunary", "construct", "--config", str(bad),
         "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr
