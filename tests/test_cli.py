"""CLI: artifact construction, verification exit codes, scans, determinism."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

import lacunary
from lacunary import (
    checks,
    cli,
    coefficients,
    config_from_blocks,
    errors,
    growth,
    interpolation,
)
from lacunary.cli import main

ANCHOR = {"blocks": [[1, 2]], "rho_f": 0.5, "precision_digits": 100, "rho_H": 0.25}
FACT3 = {"rho_f": 0.5, "rule": "factorial", "K": 3, "precision_digits": 100, "rho_H": 0.4}
FACT7 = {"rho_f": 0.5, "rule": "factorial", "K": 7, "precision_digits": 100}
SINGLE = {"blocks": [[4, 2]], "rho_f": 0.5, "precision_digits": 100}
HEADLINE = {"rho_f": 0.5, "rule": "factorial", "K": 4, "precision_digits": 100}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_anchor_residues_are_half(self, tmp_path):
        cfg = write_config(tmp_path, {"blocks": [[1, 2]], "precision_digits": 100})
        out = tmp_path / "out"
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
        residues = json.loads((out / "residues.json").read_text())
        assert len(residues) == 2
        for entry in residues:
            assert abs(float(entry["residue"][0]) - 0.5) < 1e-15

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
        errors, never a traceback."""
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
            )
        ):
            cfg = write_config(tmp_path, payload, name=f"config{i}.json")
            code = main(["construct", "--config", cfg, "--out", str(tmp_path / f"o{i}")])
            assert code == 2, payload
            assert "config error" in capsys.readouterr().err, payload


class TestVerify:
    def test_anchor_all_checks_pass(self, tmp_path):
        cfg = write_config(tmp_path, ANCHOR)
        out = tmp_path / "v"
        code = main(["verify", "--config", cfg, "--out", str(out), "--points", "20"])
        assert code == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["passed"] is True
        assert summary["failed"] == 0
        records = [
            json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()
        ]
        assert all("eq" in r for r in records)
        eqs = {r["eq"] for r in records}
        assert {"3f", "1c", "1d", "3x", "1b", "2f", "2a", "2c", "2e", "3a", "3h"} <= eqs

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
        entries[3]["residue"][0] = str(float(entries[3]["residue"][0][:20]) + 1e-3)
        (art / "residues.json").write_text(json.dumps(entries))
        code = main(
            [
                "verify", "--config", cfg, "--out", str(tmp_path / "v1"),
                "--artifacts", str(art), "--checks", "interpolation",
            ]
        )
        assert code == 1
        records = [
            json.loads(line)
            for line in (tmp_path / "v1" / "records.jsonl").read_text().splitlines()
        ]
        failed = [r["zero"] for r in records if not r["pass"]]
        assert failed == [[3, 0]]

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
            entries[i]["residue"] = [mp.nstr(1000 * mpf(x), 105) for x in entries[i]["residue"]]
        (art / "residues.json").write_text(json.dumps(entries))
        assert main([*verify, "--out", str(tmp_path / "v1")]) == 1
        (rec,) = [
            json.loads(line)
            for line in (tmp_path / "v1" / "records.jsonl").read_text().splitlines()
        ]
        assert rec["eq"] == "3x" and rec["pass"] is False
        assert rec["value"] < float("inf")
        assert rec["per_block_max_residue"]["4"] > rec["per_block_residue_bound"]["4"]
        for k in "123":
            assert rec["per_block_max_residue"][k] <= rec["per_block_residue_bound"][k]

    def test_artifact_count_mismatch_exit_2(self, tmp_path, capsys):
        """An artifact that does not hold the config's zeros, in the config's
        order, is a configuration error: a missing entry, the entries
        reversed, an entry without its residue, a file that holds no list,
        and a residue that is not a list of two strings."""
        cfg = write_config(tmp_path, FACT3)
        art = tmp_path / "art"
        main(["construct", "--config", cfg, "--out", str(art)])
        entries = json.loads((art / "residues.json").read_text())
        no_residue = [{"k": 1, "m": 0}] + entries[1:]
        # a string would index as its characters: "12" read as 1 + 2i
        bad = [[{**entries[0], "residue": r}] + entries[1:] for r in ("12", ["1", "2", "3"])]
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


class TestScan:
    def test_witness_violation_for_factorial(self, tmp_path):
        cfg = write_config(tmp_path, FACT7)
        out = tmp_path / "s"
        assert main(["scan", "--config", cfg, "--out", str(out), "--scan", "witness"]) == 0
        summary = json.loads((out / "witness_summary.json").read_text())
        assert summary["verdict"] == "violation"
        assert summary["ks"] == [4, 5, 6, 7]
        header = (out / "witness.csv").read_text().splitlines()[0]
        assert header == "r,theta,log_abs_f,ratio,excluded,pass"

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
        entries[0]["residue"][0] = str(float(entries[0]["residue"][0][:20]) + 1e-3)
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


def _off_by_one_n3(monkeypatch, art):
    """growth.log_derivative evaluates the headline product with n_3 = 9
    instead of 8, a config that still passes the schedule's validation."""
    blocks = config_from_blocks([(2, 1), (4, 2), (64, 9), (2**24, 4096)]).blocks
    real = growth.log_derivative

    def wrong(cfg, z, order=1):
        return real(dataclasses.replace(cfg, blocks=blocks), z, order)

    monkeypatch.setattr(growth, "log_derivative", wrong)


def _residues_off_by_1e30(monkeypatch, art):
    """The stored residues (2, 1), (3, 5) and (4, 1234) scaled by 1 + 1e-30."""
    path = art / "residues.json"
    entries = json.loads(path.read_text())
    for e in entries:
        if (e["k"], e["m"]) in ((2, 1), (3, 5), (4, 1234)):
            with mp.workdps(110):
                scale = 1 + mpf(10) ** -30
                e["residue"] = [mp.nstr(scale * mpf(x), 105) for x in e["residue"]]
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
        e["residue"] = [mp.nstr(mpf(10) ** 12 * mpf(x), 105) for x in e["residue"]]
    path.write_text(json.dumps(entries))


@pytest.fixture(scope="module")
def headline_artifacts(tmp_path_factory):
    """The headline config with H, and its construct output, made once."""
    root = tmp_path_factory.mktemp("headline")
    cfg = write_config(root, {**HEADLINE, "rho_H": 0.4})
    assert main(["construct", "--config", cfg, "--out", str(root / "art")]) == 0
    return cfg, root / "art"


class TestArtifactRoundTrip:
    def test_residues_only_and_records_unchanged(self, tmp_path, headline_artifacts):
        """residues.json holds (k, m) and the residue of each zero, nothing
        else, and verifying from it writes the records that verifying from
        a fresh construction writes, byte for byte."""
        cfg, built = headline_artifacts
        entries = json.loads((built / "residues.json").read_text())
        assert len(entries) == 4107
        assert all(sorted(e) == ["k", "m", "residue"] for e in entries)
        outs = []
        for name, extra in (("fresh", ()), ("artifact", ("--artifacts", str(built)))):
            out = tmp_path / name
            code = main(
                ["verify", "--config", cfg, "--out", str(out), "--points", "5",
                 "--checks", "interpolation,summability,residual", *extra]
            )
            assert code == 0
            outs.append((out / "records.jsonl").read_bytes())
        assert outs[0] == outs[1]


class TestFaultMatrix:
    """Each row plants one targeted fault in a verify run on the headline
    config: the target check must pass clean and fail a record of the
    target identity with the fault in place (exit 1)."""

    @pytest.mark.parametrize(
        "check, eq, extra, fault",
        [
            pytest.param("asymptotics", "2c", (), _off_by_one_n3, id="asymptotics-wrong-n3"),
            pytest.param(
                "proximity", "3a", (), _residue_2_1_times_1e12, id="proximity-large-residue"
            ),
            pytest.param(
                "characteristic",
                "3h",
                (),
                _residue_2_1_times_1e12,
                id="characteristic-large-residue",
            ),
            pytest.param(
                "residual",
                "1c",
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
        self, tmp_path, monkeypatch, headline_artifacts, check, eq, extra, fault
    ):
        cfg, built = headline_artifacts
        art = tmp_path / "art"
        art.mkdir()
        shutil.copy(built / "residues.json", art / "residues.json")

        def verify(name):
            out = tmp_path / name
            code = main(
                ["verify", "--config", cfg, "--out", str(out), "--artifacts", str(art),
                 "--checks", check, *extra]
            )
            lines = (out / "records.jsonl").read_text().splitlines()
            return code, [json.loads(line) for line in lines]

        code, records = verify("clean")
        assert code == 0 and all(r["pass"] for r in records)
        # g's checks pass clean from the certificate B < 1 ...
        assert all(r.get("sup_g_bound", 0) < 1 for r in records)
        fault(monkeypatch, art)
        code, records = verify("fault")
        assert code == 1
        failed = [r for r in records if r["check"] == check and r["eq"] == eq and not r["pass"]]
        assert failed
        # ... and fail a fault through the quadrature
        assert all(r.get("sup_g_bound", 1) >= 1 for r in failed)


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

    def test_seed_changes_sample_points(self, tmp_path):
        cfg = write_config(tmp_path, ANCHOR)
        rec = {}
        for seed in ("1", "2"):
            out = tmp_path / seed
            main(["verify", "--config", cfg, "--out", str(out), "--points", "5",
                  "--seed", seed, "--checks", "residual"])
            rec[seed] = (out / "records.jsonl").read_text()
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
