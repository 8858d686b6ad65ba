"""Exit codes, artifact formats, and byte-level determinism of the CLI."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import platelab
from platelab import _lapack, semigroup
from platelab.cli import COMMANDS, build_parser, main, read_config, \
    parse_alpha_spec, parse_grid_spec

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")

# the clamped pair in the declarative .bc format
CLAMPED_BC = ("name myclamped\nb1 order 0\nb1 term 0 1 0 0 0\n"
              "b2 order 1\nb2 term 1 0 -1 0 0\n")


PLATE_2D = ["--bc", "hinged", "--dim", "2", "--n", "16"]


def run_cli(*args):
    return main(list(args))


class TestExitCodes:
    def test_ls_check_pass(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("ls-check", "--bc", "clamped", "--samples", "60",
                       "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["conjugated"]["counterexample"] is None

    def test_ls_check_degenerate_fails(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli("ls-check", "--bc", "degenerate_equal",
                       "--samples", "60", "--out", str(out))
        assert code == 1

    @pytest.mark.parametrize("args", [
        ["ls-check", "--bc", "degenerate_equal", "--samples", "3"],
        ["subell", "--psi", "parabola:0.1", "--tau0", "0.01", "--ratio-hi",
         "1e4", "--gamma", "1.0"],
    ], ids=["ls-check", "subell"])
    def test_failed_check_writes_one_document(self, args, tmp_path, capsys):
        assert run_cli(*args) == 1
        captured = capsys.readouterr()
        rep = json.loads(captured.out)      # one document, not the report twice
        assert captured.err.startswith("check failed:")
        if args[0] == "ls-check":
            assert rep["conjugated"]["counterexample"] is not None
        # with --out the report lands in the file only
        out = tmp_path / "r.json"
        assert run_cli(*args, "--out", str(out)) == 1
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text()) == rep

    def test_ls_check_bc_file_alone(self, tmp_path, capsys):
        bc, out = tmp_path / "my.bc", tmp_path / "r.json"
        bc.write_text(CLAMPED_BC)
        assert run_cli("ls-check", "--bc-file", str(bc), "--samples", "20",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["bc"] == "my.bc"

    def test_unknown_bc_is_config_error(self, capsys):
        assert run_cli("spectrum", "--bc", "nonsense") == 2

    def test_bad_dt_is_config_error(self, capsys):
        assert run_cli("simulate", "--bc", "clamped", "--dt", "-1") == 2

    def test_bad_kappa_band(self, capsys):
        assert run_cli("ls-check", "--bc", "clamped", "--kappa0", "0") == 2
        assert "--kappa0" in capsys.readouterr().err
        for cmd in ("subell", "gamma-search"):
            assert run_cli(cmd, "--tau0", "2", "--ratio-hi", "1") == 2, cmd
            assert "need ratio_hi >= tau0" in capsys.readouterr().err

    def test_size_limits_are_config_errors(self, capsys, monkeypatch):
        # dense eigenvectors for the initial data, then the dense reduction
        assert run_cli("simulate", "--bc", "clamped", "--n", "3200") == 2
        assert "3199 > 3000" in capsys.readouterr().err
        # the resolvent's estimate for 165 unknowns, half-bandwidth 22: 16 B
        # times 165 (3 * 22 + 1) factor entries and (330 + 8) 330 vector
        # entries
        monkeypatch.setattr("platelab.semigroup.MAX_RESOLVENT_BYTES", 10 ** 6)
        assert run_cli("resolvent", "--bc", "hinged", "--dim", "2",
                       "--n", "16", "--n-y", "12") == 2
        assert "1961520 > 1000000 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["spectrum", "assemble"])
    def test_count_out_of_range_is_config_error(self, cmd, tmp_path, capsys):
        out = str(tmp_path / "out")
        for count in ("100", "-3"):
            assert run_cli(cmd, "--bc", "clamped", "--n", "16", "--count", count,
                           "--out", out) == 2, count
            assert "size-15 operator" in capsys.readouterr().err
        assert run_cli(cmd, "--bc", "clamped", "--n", "16", "--count", "15",
                       "--out", out) == 0

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bc = clamped\nsmaples = 5\n")
        assert run_cli("ls-check", "--config", str(cfg)) == 2
        assert "run.cfg:2: unknown key 'smaples'" in capsys.readouterr().err

    def test_bad_region_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ratio_hi = wide\n")
        for cmd in ("subell", "gamma-search"):
            assert run_cli(cmd, "--config", str(cfg)) == 2, cmd

    @pytest.mark.parametrize("args, config, named", [
        (["simulate", "--bc", "clamped", "--tau", "3"], None, "--tau"),
        (["spectrum", "--bc", "clamped", "--dim", "3"], None, "--dim"),
        (["spectrum", "--bc", "hinged", "--dim", "2", "--n-y", "4"], None,
         "--n-y"),
        (["spectrum", "--bc", "clamped", "--length", "-1"], None, "--length"),
        (["simulate", "--bc", "clamped", "--log-every", "0"], None,
         "--log-every"),
        (["ls-check", "--bc", "clamped", "--samples", "-3"], None,
         "--samples"),
        (["subell", "--gamma", "-1"], None, "--gamma"),
        (["roots", "--sigma", "-1"], None, "--sigma"),
        (["subell", "--kappa0-prime", "5"], None, "--kappa0-prime"),
        (["gamma-search", "--region-n", "0"], None, "--region-n"),
        (["decay-fit", "--bc", "clamped", "--n", "16", "--T", "-1"], None,
         "--T"),
        (["decay-fit", "--bc", "clamped", "--n", "16", "--T", "0.1"], None,
         "T = 0.1"),
        (["decay-fit", "--bc", "clamped", "--n", "16", "--T", "inf"], None,
         "--T"),
        (["simulate", "--bc", "clamped", "--n", "16", "--dt", "inf"], None,
         "--dt"),
        (["subell", "--ratio-hi", "nan"], None, "--ratio-hi"),
        (["spectrum", "--bc", "clamped", "--bc-file", "x.bc"], None,
         "--bc-file"),
        (["spectrum", "--bc", "ex4_id_dn2_A", "--bc-param-a", "-2"], None,
         "parameter symbol"),
        (["spectrum"], "bc = clamped\nn = 16.7\n", "n = 16.7"),
        (["spectrum"], "bc = clamped\nsamples = 5\n", "'samples'"),
        (["ls-check", "--bc", "clamped", "--bc-file", "{bc}"], None,
         "--bc cannot be combined with --bc-file"),
        (["ls-check", "--bc-param-a", "7", "--bc-file", "{bc}"], None,
         "--bc-param-a cannot be combined with --bc-file"),
        (["ls-check", "--bc", "clamped", "--tau", "0.5"], None, "--tau"),
        (["simulate", "--bc", "clamped", "--n", "16", "--T", "0.1", "--alpha",
          "const:-1"], None, "--alpha"),
        (["simulate", "--bc", "clamped", "--n", "16", "--T", "0.1", "--alpha",
          "bump:0.3:0.5:nan"], None, "--alpha"),
        (["resolvent", "--bc", "neumann_pair", "--n", "16", "--alpha",
          "const:0", "--sigma-grid", "0:2:1"], None, "--alpha"),
        (["resolvent", "--bc", "ex3_dn_dn3_A", "--bc-param-a", "1", "--n",
          "60", "--sigma-grid", "0:2:1"], None, "--bc-param-a 1.0: the "
         "operator is indefinite"),
        (["simulate", "--bc", "ex3_dn_dn3_A", "--bc-param-a", "1", "--n",
          "60", "--T", "0.1"], None, "--bc-param-a 1.0: the operator is "
         "indefinite"),
        (["decay-fit", "--bc", "ex5_dn2A_dn3", "--bc-param-a", "-1"], None,
         "--bc-param-a -1.0: the operator is indefinite"),
        (["simulate", "--bc", "ex4_id_dn2_A", "--bc-param-a", "-3", "--T",
          "0.1"], None, "--bc-param-a -3.0: the operator is indefinite"),
        (["resolvent", "--bc", "clamped", "--n", "40000", "--sigma-grid",
          "0:1:1"], None, "--bc clamped --n 40000: the operator is indefinite"),
        (["resolvent", "--bc", "ex2_dn2_dn3", "--n", "600", "--sigma-grid",
          "0:2:1"], None, "exceeds its limit 0.01"),
        (["resolvent", "--bc", "neumann_pair", "--n", "5000", "--sigma-grid",
          "0:2:1"], None, "exceeds its limit 0.01"),
        (["spectrum", "--bc", "ex5_dn2A_dn3", "--dim", "2", "--n", "16"], None,
         "the ex5_dn2A_dn3 boundary operators carry tangential derivatives"),
        (["spectrum", "--bc", "ex2_dn2_dn3", "--dim", "2", "--n", "16"], None,
         "free edge with Poisson ratio nu = 2"),
        (["ls-check", "--bc", "clamped", "--mu0", "-1"], None, "--mu0"),
        (["ls-check", "--bc", "clamped", "--mu1", "-1"], None, "--mu1"),
        (["roots", "--dphi-normal", "0"], None, "--dphi-normal"),
        (["roots", "--dphi-normal", "-1"], None, "--dphi-normal"),
        (["roots", "--xi-prime", "0", "--tau", "0", "--sigma", "0"], None,
         "--xi-prime, --tau and --sigma"),
        (["spectrum", "--bc", "clamped", "--n", "8", "--length", "1e-80"],
         None, "--length 1e-80: cell width"),
        (["spectrum", "--bc", "clamped", "--n", "8", "--length", "1e80"],
         None, "--length 1e+80: cell width"),
        (["spectrum", "--bc", "hinged", "--dim", "2", "--n", "16",
          "--length-y", "1e-80"], None, "--length-y 1e-80: cell width"),
        (["resolvent", "--bc", "clamped", "--n", "16", "--sigma-grid",
          "0:1e308:1e307"], None, "--sigma-grid 0:1e308:1e307: B(z) has a "
         "non-finite entry"),
        (["resolvent", "--bc", "clamped", "--n", "16", "--sigma-grid",
          "0:1.7e308:1e308"], None, "grid point 2 = lo + 2 step overflows"),
        (["resolvent", "--bc", "clamped", "--n", "16",
          "--sigma-grid=-1.7e308:1.7e308:1e308"], None,
         "hi + step / 2 - lo overflows"),
        (["resolvent", "--bc", "clamped", "--n", "16", "--sigma-grid",
          "-1.7e308:1.7e308:1e308"], None, "hi + step / 2 - lo overflows"),
        (["resolvent", "--bc", "clamped", "--n", "16", "--sigma-grid",
          "0:1:1e-300"], None, "1e+300 grid points cannot be built"),
        (["resolvent", "--bc", "clamped", "--n", "16", "--sigma-grid", "0:1"],
         None, "--sigma-grid '0:1': expected lo:hi:step"),
        (["decay-fit", "--bc", "clamped", "--n", "200", "--T", "10", "--dt",
          "0.5", "--n-power", "40"], None, "--n-power 40 on the 200-cell "
         "grid: |A^n Y0|^2 = inf or C = 0 is not finite"),
        (["simulate", "--bc", "clamped", "--n", "16", "--T", "1e9", "--dt",
          "1e-3"], None, "energy log refused for T = 1000000000.0, dt = "
         "0.001, log_every = 1: its three arrays of 1000000000001 rows take "
         "24000000000024 > 1073741824 bytes"),
        (["decay-fit", "--bc", "clamped", "--n", "16", "--T", "1e9", "--dt",
          "1e-3"], None, "energy log refused for T = 1000000000.0, dt = "
         "0.001, log_every = 10"),
        (["simulate", "--bc", "clamped", "--n", "16", "--T", "1e9", "--dt",
          "1e-3", "--log-every", "100000"], None, "time stepping refused for "
         "T = 1000000000.0, dt = 0.001: its 1000000000000 steps exceed "
         "1000000000"),
        (["decay-fit", "--bc", "clamped", "--n", "16", "--T", "2e6", "--dt",
          "1e-3", "--log-every", "1000"], None, "time stepping refused for "
         "T = 2000000.0, dt = 0.001: its 2000000000 steps exceed 1000000000"),
        (["ls-check", "--bc-file", "/nonexistent/x.bc"], None, "--bc-file"),
        (["spectrum", "--bc", "clamped", "--config", "/nonexistent/run.cfg"],
         None, "--config"),
        (["subell", "--gamma", "1e308"], None, "--gamma 1e+308 and --psi "
         "parabola:0.1: phi = exp(gamma psi) or a derivative overflows"),
        (["subell", "--psi", "affine:1e308:1e308"], None,
         "--psi affine:1e308:1e308: phi = exp(gamma psi)"),
        (["gamma-search", "--psi", "parabola:1e308"], None,
         "--psi parabola:1e308: phi = exp(gamma psi) or a derivative "
         "overflows at gamma = 1.0"),
        (["subell", "--tau0", "1e-300", "--ratio-hi", "1e4", "--psi",
          "affine:300:0.001"], None,
         "--psi affine:300:0.001: {q_s, q_a} overflows"),
        (["roots", "--xi-prime", "1e200"], None, "--xi-prime, --tau, "
         "--sigma, --dphi-normal and --dphi-tangential: lambda = inf"),
        (["roots", "--dphi-tangential", "1e300", "--tau", "1e10"], None,
         "--dphi-tangential: lambda = 1e+10 or a factor root is not finite"),
        (["roots", "--tau", "1e200"], None, "--tau, --sigma, --dphi-normal "
         "and --dphi-tangential: lambda = inf"),
    ], ids=["simulate-tau", "dim-3", "n-y-4", "length-negative",
            "log-every-0", "samples-negative", "gamma-negative",
            "sigma-negative", "kappa0-prime-removed", "region-n-0",
            "T-negative", "T-below-half-step", "T-inf", "dt-inf",
            "ratio-hi-nan", "bc-file-outside-ls-check",
            "bc-param-inadmissible", "config-n-not-int",
            "config-key-of-ls-check", "bc-with-bc-file",
            "bc-param-a-with-bc-file", "ls-check-tau-nonzero",
            "alpha-negative", "alpha-nan", "alpha-blind-to-kernel",
            "indefinite-resolvent", "indefinite-simulate",
            "indefinite-decay-fit", "indefinite-tilted-hinge",
            "indefinite-by-roundoff", "generator-roundoff-ex2",
            "generator-roundoff-neumann", "2d-tangential-family",
            "2d-free-edge-nu2", "mu0-negative",
            "mu1-negative", "dphi-normal-0", "dphi-normal-negative",
            "roots-degenerate-point", "length-h4-underflow",
            "length-h4-overflow", "length-y-h4-underflow",
            "sigma-grid-overflow", "sigma-grid-point-overflow",
            "sigma-grid-extent-overflow", "sigma-grid-spaced-leading-minus",
            "sigma-grid-count", "sigma-grid-short", "n-power-overflow",
            "simulate-log-too-large", "decay-fit-log-too-large",
            "simulate-too-many-steps", "decay-fit-too-many-steps",
            "bc-file-missing", "config-missing", "subell-gamma-overflow",
            "subell-psi-overflow", "gamma-search-psi-overflow",
            "subell-bracket-overflow", "roots-xi-prime-overflow",
            "roots-root-overflow", "roots-tau-overflow"])
    def test_bad_input_names_its_key(self, args, config, named, tmp_path,
                                     capsys):
        bc = tmp_path / "my.bc"
        bc.write_text(CLAMPED_BC)
        args = [a.format(bc=bc) for a in args]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            args = args + ["--config", str(cfg)]
        assert run_cli(*args, "--out", str(tmp_path / "out")) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, point", [
        (["--psi", "peak:0:1:0.5", "--region-lo", "0.4", "--region-hi", "0.6"],
         "x = [0.5]"),
        (["--psi", "affine:0:0"], "x = [0.05]"),
    ], ids=["peak-inside-region", "flat-weight"])
    def test_subell_critical_point_fails_the_check(self, args, point, tmp_path,
                                                   capsys):
        # no characteristic solve exists where dphi = 0; gamma-search names
        # such a point too, and each failed run writes its manifest
        for cmd in ("subell", "gamma-search"):
            out = tmp_path / f"{cmd}.json"
            assert run_cli(cmd, *args, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("check failed:") and point in err, cmd
            rep = json.loads(out.read_text())
            assert point in rep["failure"], cmd
            assert rep["schema"] == f"{cmd}-v2" and rep["psi"] == args[1], cmd

    def test_gamma_search_overflow_names_its_gamma(self, tmp_path, capsys):
        # the bracket overflows at the doubled gamma 64 before any margin is
        # positive: a failed search, like "no admissible gamma"
        out = tmp_path / "g.json"
        assert run_cli("gamma-search", "--tau0", "1e-300", "--ratio-hi", "1e4",
                       "--psi", "parabola:5", "--out", str(out)) == 1
        named = "no admissible gamma below 64.0: {q_s, q_a} overflows"
        assert named in capsys.readouterr().err
        assert named in json.loads(out.read_text())["failure"]

    @pytest.mark.parametrize("args", [
        ["simulate", "--bc", "clamped", "--n", "16", "--alpha", "bump:0.3"],
        ["simulate", "--bc", "clamped", "--n", "16", "--alpha", "file:{p}"],
        ["gamma-search", "--psi", "affine:1"],
        ["resolvent", "--bc", "clamped", "--n", "16", "--sigma-grid", "0:5"],
        ["simulate", "--bc", "clamped", "--n", "16",
         "--alpha", "bump:0.3:0.5:1.0:9"],
        ["simulate", "--bc", "clamped", "--n", "16", "--alpha", "const:1:2"],
        ["gamma-search", "--psi", "parabola:0.1:9"],
        ["simulate", "--bc", "clamped", "--n", "16",
         "--alpha", "bump:nan:0.5:1.0"],
        ["simulate", "--bc", "clamped", "--n", "16",
         "--alpha", "bump:0.5:0.3:1.0"],
        ["simulate", "--bc", "clamped", "--n", "16", "--alpha", "file:{far}"],
        ["simulate", "--bc", "clamped", "--n", "16",
         "--alpha", "file:/nonexistent/x.txt"],
    ], ids=["bump-short", "file-columns", "affine-short", "grid-no-step",
            "bump-long", "const-long", "parabola-long", "bump-nan",
            "bump-reversed", "file-off-interval", "file-missing"])
    def test_malformed_spec_is_config_error(self, args, tmp_path, capsys):
        profile = tmp_path / "alpha.txt"
        profile.write_text("0 0 1\n1 0 1\n")
        # a 1-D profile whose rows, x in [5, 6], miss every node
        far = tmp_path / "far.txt"
        far.write_text("5 0\n5.5 1\n5.75 1\n6 0\n")
        args = [a.format(p=profile, far=far) for a in args]
        assert run_cli(*args, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "bad spec" in err and args[-2] in err

    def test_ls_check_stdout_is_one_document(self, capsys):
        # the determinant at omega' = 1 is in the report, and --tau is not
        # an ls-check key
        assert run_cli("ls-check", "--bc", "hinged", "--samples", "20") == 0
        rep = json.loads(capsys.readouterr().out)
        assert [r["determinant"] for r in rep["unconjugated"]
                if r["omega_prime"] == 1.0] == [{"re": 0.0, "im": -2.0}]
        assert run_cli("ls-check", "--bc", "hinged", "--tau", "0") == 2
        assert "--tau" in capsys.readouterr().err


class TestArtifacts:
    def test_spectrum_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--bc", "hinged", "--n", "200",
                       "--count", "5", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert meta == ["# bc = hinged", "# bc_param_a = None", "# count = 5",
                        "# dim = 1", "# length = 1", "# length_y = None",
                        "# n = 200", "# n_y = None", "# schema = spectrum-v3"]
        data = np.loadtxt([l for l in lines if not l.startswith("#")][1:],
                          delimiter=",")
        for k in range(1, 6):
            assert abs(data[k - 1, 1] - (k * math.pi) ** 4) / (k * math.pi) ** 4 \
                < 0.005

    def test_spectrum_2d_manifest(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--bc", "hinged", "--dim", "2", "--n", "16",
                       "--n-y", "8", "--length-y", "0.5", "--count", "3",
                       "--out", str(out)) == 0
        meta = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert meta == ["# bc = hinged", "# bc_param_a = None", "# count = 3",
                        "# dim = 2", "# length = 1", "# length_y = 0.5",
                        "# n = 16", "# n_y = 8", "# schema = spectrum-v3"]

    def test_spectrum_beyond_dense_cap(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--bc", "clamped", "--n", "3200",
                       "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        mu = np.loadtxt(lines[1:], delimiter=",")[:, 1]
        assert mu.size == 5 and np.all(np.diff(mu) > 0)
        # discretization error plus roundoff eps * |M| with |M| <= 16 / h^4
        ref, h = 4.730040744862704 ** 4, 1.0 / 3200
        assert abs(mu[0] - ref) <= 30 * h ** 2 * ref + 10 * 2.3e-16 * 16 / h ** 4

    def test_simulate_monotone_csv(self, tmp_path):
        out = tmp_path / "log.csv"
        assert run_cli("simulate", "--bc", "clamped", "--n", "64",
                       "--alpha", "bump:0.3:0.5:1.0", "--T", "2.0",
                       "--dt", "0.01", "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        data = np.loadtxt(lines[1:], delimiter=",")
        e = data[:, 1]
        assert np.all(np.diff(e) <= 1e-9 * e[0])

    def test_simulate_2d_closes_ledger(self, tmp_path):
        out = tmp_path / "log.csv"
        dt = 0.01
        for bc in ("hinged", "clamped"):
            assert run_cli("simulate", "--bc", bc, "--dim", "2", "--n", "24",
                           "--n-y", "16", "--T", "1.0", "--dt", str(dt),
                           "--out", str(out)) == 0, bc
            lines = [l for l in out.read_text().splitlines()
                     if not l.startswith("#")]
            data = np.loadtxt(lines[1:], delimiter=",")
            e, diss = data[:, 1], data[:, 2]
            assert data.shape[0] == 101 and e[-1] < e[0], bc
            assert abs(diss.sum() * dt - (e[0] - e[-1])) <= 1e-10 * e[0], bc

    def test_simulate_log_every_closes_ledger(self, tmp_path):
        # a row every 10 steps carries the mean rate since the previous
        # row, so sum(dissipation * dt between rows) still telescopes
        out = tmp_path / "log.csv"
        assert run_cli("simulate", "--bc", "clamped", "--n", "100",
                       "--T", "500", "--dt", "0.5", "--log-every", "10",
                       "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        data = np.loadtxt(lines[1:], delimiter=",")
        t, e, diss = data[:, 0], data[:, 1], data[:, 2]
        assert data.shape[0] == 101
        assert abs(np.sum(diss[1:] * np.diff(t)) - (e[0] - e[-1])) <= 1e-8 * e[0]

    def test_resolvent_table(self, tmp_path):
        out = tmp_path / "res.csv"
        assert run_cli("resolvent", "--bc", "clamped", "--n", "48",
                       "--sigma-grid", "0:10:1", "--out", str(out)) == 0
        text = out.read_text()
        assert "# C =" in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data.shape[0] == 11
        assert np.all(np.isfinite(data[:, 1]))
        assert "# unconverged = 0" in text
        assert "# schema = resolvent-v4" in text
        # every norm stays below 1, so the clipped fit C = 0 bounds nothing
        assert np.all(data[:, 1] <= 1.0)
        assert "# C = 0\n" in text and "# vacuous = True" in text

    def test_resolvent_fit_with_a_large_norm_is_not_vacuous(self, tmp_path):
        # the benchmark sweep's grid: its peak norm sits next to an eigenvalue
        out = tmp_path / "res.csv"
        assert run_cli("resolvent", "--bc", "clamped", "--n", "200", "--alpha",
                       "bump:0.2:0.7:4.0", "--sigma-grid", "118:124:0.5",
                       "--out", str(out)) == 0
        text = out.read_text()
        meta = dict(l[2:].split(" = ") for l in text.splitlines()
                    if l.startswith("#"))
        assert meta["vacuous"] == "False"
        assert float(meta["C"]) == pytest.approx(6.5703157083e-4, rel=1e-5)

    def test_resolvent_unconverged_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(semigroup, "LANCZOS_MAXITER", 1)
        out = tmp_path / "res.csv"
        assert run_cli("resolvent", "--bc", "clamped", "--n", "48",
                       "--sigma-grid", "0:5:1", "--out", str(out)) == 1
        text = out.read_text()
        assert "# unconverged = 6" in text
        assert "# max_iterations = 1" in text
        assert "did not converge" in capsys.readouterr().err

    def test_resolvent_negative_energy_fails(self, tmp_path, capsys):
        # ex4 at a = -2/L has the stationary mode x (L - x), which the kernel
        # basis lacks: the Lanczos energy of a residual goes negative
        out = tmp_path / "r.csv"
        assert run_cli("resolvent", "--bc", "ex4_id_dn2_A", "--bc-param-a",
                       "-1", "--length", "2", "--n", "100", "--sigma-grid",
                       "0:2:1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed: residual ")
        assert "'s energy is -" in err and "at sigma = 1 " in err

    def test_resolvent_kernel_family_through_origin(self, tmp_path):
        # free ends: a two-dimensional kernel, and a reduced eigenvalue
        # 0.0071 from sigma = 0
        out = tmp_path / "res.csv"
        assert run_cli("resolvent", "--bc", "ex2_dn2_dn3", "--n", "60",
                       "--sigma-grid", "0:30:1", "--out", str(out)) == 0
        assert "# unconverged = 0" in out.read_text()

    def test_resolvent_arpack_failure_fails(self, tmp_path, monkeypatch,
                                            capsys):
        # ARPACK stopped after one restart, short of convergence at each point
        eig_largest = _lapack.eig_largest
        monkeypatch.setattr(_lapack, "eig_largest",
                            lambda *args: eig_largest(*args[:-1], 1))
        out = tmp_path / "res.csv"
        assert run_cli("resolvent", "--bc", "clamped", "--n", "48",
                       "--sigma-grid", "0:2:1", "--out", str(out)) == 1
        text = out.read_text()
        assert "# unconverged = 3" in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        data = np.loadtxt(lines[1:], delimiter=",")
        assert np.isnan(data[:, 3]).all() and np.isfinite(data[:, 1]).all()
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, args, results", [
        ("simulate", [*PLATE_2D, "--T", "0.1"], {"scheme", "schema"}),
        ("resolvent", [*PLATE_2D, "--sigma-grid", "0:2:1"],
         {"C", "vacuous", "skipped", "unconverged", "max_iterations",
          "schema"}),
        ("spectrum", PLATE_2D, {"schema"}),
        ("decay-fit", [*PLATE_2D, "--T", "5", "--dt", "0.5"],
         {"C", "amp", "final_energy", "schema"}),
        ("catalog", [], {"catalog", "schema"}),
        ("roots", [], {"case", "marginal", "factors", "quartic_roots",
                       "schema"}),
        ("ls-check", ["--bc", "clamped", "--samples", "5"],
         {"unconjugated", "perturbation_radius", "conjugated", "schema"}),
        ("subell", ["--gamma", "25", "--region-n", "3"],
         {"factor_1", "factor_2", "schema"}),
        ("gamma-search", ["--region-n", "3"],
         {"gamma0", "margins", "evaluations", "schema"}),
    ])
    def test_csv_header_echoes_every_key(self, cmd, args, results, tmp_path):
        # every artifact, CSV or JSON, is a manifest of its command's keys
        out = tmp_path / "out"
        assert run_cli(cmd, *args, "--out", str(out)) == 0
        text = out.read_text()
        if text.startswith("{"):
            meta = json.loads(text)
            assert meta["schema"] == (f"{cmd}-v4" if cmd == "ls-check"
                                      else f"{cmd}-v2")
            grid, unset = (2, 16, 1.0), None
        else:
            meta = dict(l[2:].split(" = ") for l in text.splitlines()
                        if l.startswith("#"))
            grid, unset = ("2", "16", "1"), "None"
        assert set(meta) == set(COMMANDS[cmd][1]) - {"out"} | results
        if "--dim" in args:
            assert (meta["dim"], meta["n_y"], meta["length_y"]) == grid
            assert meta["bc_param_a"] == unset

    def test_resolvent_beyond_dense_cap(self, tmp_path):
        # counting the kernel reads the band: no dense eigh at 3,199 unknowns
        out = tmp_path / "res.csv"
        assert run_cli("resolvent", "--bc", "clamped", "--n", "3200",
                       "--sigma-grid", "0:2:1", "--out", str(out)) == 0
        assert "# unconverged = 0" in out.read_text()

    def test_decay_fit_json(self, tmp_path):
        out = tmp_path / "fit.json"
        assert run_cli("decay-fit", "--bc", "clamped", "--n", "48",
                       "--T", "50", "--dt", "0.5", "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        assert math.isfinite(rep["C"]) and rep["C"] > 0

    @pytest.mark.parametrize("cmd", ["simulate", "decay-fit"])
    def test_rising_energy_log_fails(self, cmd, tmp_path, monkeypatch, capsys):
        # both commands validate the log: one row whose energy rises
        simulate = semigroup.simulate

        def rising(*args, **kwargs):
            log, state = simulate(*args, **kwargs)
            log.energies[-1] = 2.0 * log.energies[0]
            return log, state
        monkeypatch.setattr(semigroup, "simulate", rising)
        assert run_cli(cmd, "--bc", "clamped", "--n", "16", "--T", "5",
                       "--dt", "0.5", "--out", str(tmp_path / "out")) == 1
        assert "energy increases" in capsys.readouterr().err

    def test_assemble_export(self, tmp_path):
        outdir = tmp_path / "op"
        assert run_cli("assemble", "--bc", "neumann_pair", "--n", "16",
                       "--count", "2", "--out", str(outdir)) == 0
        assert (outdir / "nodes.txt").exists()
        assert (outdir / "matrix.txt").exists()
        assert (outdir / "eigenvalues.txt").exists()

    def test_roots_json(self, tmp_path):
        out = tmp_path / "roots.json"
        assert run_cli("roots", "--tau", "2", "--sigma", "1",
                       "--xi-prime", "0", "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["case"] == "NoUpperRoot"

    def test_catalog_lists_families(self, tmp_path):
        out = tmp_path / "cat.json"
        assert run_cli("catalog", "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        names = {e["name"] for e in rep["catalog"]}
        assert {"hinged", "clamped", "neumann_pair"} <= names

    def test_ls_check_perturbation_radius(self, tmp_path):
        # LS is an open condition: the radius at omega' = +-1 reaches the
        # cap for clamped and is 0 for a pair that already fails
        radii = {}
        for bc, code in (("clamped", 0), ("degenerate_equal", 1)):
            out = tmp_path / f"{bc}.json"
            assert run_cli("ls-check", "--bc", bc, "--samples", "5",
                           "--out", str(out)) == code
            radii[bc] = json.loads(out.read_text())["perturbation_radius"]
        assert radii == {
            "clamped": [{"omega_prime": 1.0, "radius": 1.0, "capped": True},
                        {"omega_prime": -1.0, "radius": 1.0, "capped": True}],
            "degenerate_equal": [
                {"omega_prime": 1.0, "radius": 0.0, "capped": False},
                {"omega_prime": -1.0, "radius": 0.0, "capped": False}]}

    def test_subell_and_gamma_search(self, tmp_path):
        out = tmp_path / "g.json"
        assert run_cli("gamma-search", "--psi", "parabola:0.1",
                       "--tau0", "0.01", "--ratio-hi", "1e4",
                       "--out", str(out)) == 0
        gamma0 = json.loads(out.read_text())["gamma0"]
        assert math.isfinite(gamma0)
        out2 = tmp_path / "s.json"
        assert run_cli("subell", "--psi", "parabola:0.1", "--tau0", "0.01",
                       "--ratio-hi", "1e4", "--gamma", str(2 * gamma0),
                       "--out", str(out2)) == 0
        rep = json.loads(out2.read_text())
        assert rep["factor_2"]["margin"] > 0
        # too small a gamma fails the check with exit code 1
        assert run_cli("subell", "--psi", "parabola:0.1", "--tau0", "0.01",
                       "--ratio-hi", "1e4", "--gamma", "1.0",
                       "--out", str(tmp_path / "f.json")) == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("simulate", "--bc", "clamped", "--n", "48",
                           "--T", "1.0", "--dt", "0.02", "--seed", "3",
                           "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("ls-check", "--bc", "hinged", "--samples", "40",
                           "--seed", "9", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_resolvent_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("resolvent", "--bc", "clamped", "--n", "48",
                           "--sigma-grid", "0:5:1", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args", [
        ["spectrum", "--bc", "hinged", "--dim", "2", "--n", "16",
         "--count", "7"],
        # 5,001 rows: more than one CSV_CHUNK_ROWS block
        ["simulate", "--bc", "clamped", "--n", "16", "--T", "2500",
         "--dt", "0.5"],
        ["resolvent", "--bc", "neumann_pair", "--n", "16",
         "--sigma-grid", "0:4:1"],
    ], ids=["spectrum", "simulate", "resolvent"])
    def test_stdout_and_file_bytes_agree(self, args, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run_cli(*args, "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli(*args, "--out", "-") == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        if args[0] == "simulate":
            lines = [l for l in out.read_text().splitlines()
                     if not l.startswith("#")]
            t = np.loadtxt(lines[1:], delimiter=",")[:, 0]
            assert np.array_equal(t, 0.5 * np.arange(5001))


class TestLogMemory:
    def test_simulate_memory_per_logged_row(self, tmp_path):
        # the log is three float arrays (24 B a row) and the CSV is written
        # in blocks of rows, so the traced peak grows by well under 64 B per
        # logged row; both horizons pass more than one block
        def peak(T):
            args = ["simulate", "--bc", "clamped", "--n", "16", "--T", str(T),
                    "--dt", "0.5", "--out", str(tmp_path / "log.csv")]
            tracemalloc.start()
            try:
                assert run_cli(*args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        run_cli("simulate", "--bc", "clamped", "--n", "16", "--T", "1",
                "--dt", "0.5", "--out", str(tmp_path / "warm.csv"))
        short, long = peak(2100), peak(5100)     # 4,201 and 10,201 rows
        assert long - short <= 64 * 6000, (short, long)


class TestConfigFile:
    def test_round_trip_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bc = hinged\nn = 200\ncount = 3\n# comment\n")
        parsed = read_config(cfg, COMMANDS["spectrum"][1])
        assert parsed == {"bc": "hinged", "n": 200, "count": 3}
        out = tmp_path / "s.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--count", "2",
                       "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines[1:]) == 2

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("  # comment\nbc = clamped # trailing comment\n"
                       "alpha = file:/data/prof#1.txt\n")
        parsed = read_config(cfg, COMMANDS["simulate"][1])
        assert parsed == {"bc": "clamped", "alpha": "file:/data/prof#1.txt"}

    def test_malformed_line_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bc壊hinged\n")
        assert run_cli("spectrum", "--config", str(cfg)) == 2
        assert "run.cfg:1" in capsys.readouterr().err

    def test_alpha_specs(self):
        nodes = np.linspace(0, 1, 11)[:, None]
        bump = parse_alpha_spec("bump:0.3:0.5:2.0", nodes)
        assert bump.max() == 2.0 and bump[0] == 0.0
        const = parse_alpha_spec("const:0.5", nodes)
        assert np.all(const == 0.5)

    def test_grid_spec(self):
        g = parse_grid_spec("0:2:0.5")
        assert np.allclose(g, [0, 0.5, 1.0, 1.5, 2.0])
        # the points of np.arange, bit for bit
        assert parse_grid_spec("118:124:0.1").tobytes() == \
            np.arange(118.0, 124.0 + 0.05, 0.1).tobytes()


def _readme_commands():
    """Argument lists of the `platelab ...` lines in the README CLI block."""
    with open(README) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("platelab ")]


class TestReadmeFlags:
    def test_block_lists_every_command(self):
        assert {argv[0] for argv in _readme_commands()} == set(COMMANDS)

    @pytest.mark.parametrize("argv", _readme_commands(),
                             ids=lambda argv: " ".join(argv))
    def test_parser_accepts_readme_line(self, argv, capsys):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line rejected: {capsys.readouterr().err}")


def _child_env():
    """Environment in which a child finds the package where this process
    found it."""
    src = os.path.dirname(os.path.dirname(platelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


_ALGEBRA_CHILD = """
import os, sys
from platelab.cli import main
out = os.path.join(sys.argv[1], "a")
runs = [["catalog"], ["roots", "--tau", "2", "--sigma", "1"],
        ["ls-check", "--bc", "clamped", "--samples", "5"],
        ["ls-check", "--bc", "ex4_id_dn2_A", "--bc-param-a", "-1.3",
         "--samples", "5"],
        ["subell", "--gamma", "25", "--region-n", "3"],
        ["gamma-search", "--region-n", "3"]]
for argv in runs:
    assert main(argv + ["--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("numpy.random" in sys.modules)
print(main(["spectrum", "--bc", "hinged", "--n", "16", "--out", out]),
      "scipy.linalg" in sys.modules)
"""


# runs each command, then prints which of the three algebra layers are loaded
_LAYERS_CHILD = """
import os, sys
from platelab.cli import main
argv = sys.argv[2:] + ["--out", os.path.join(sys.argv[1], "a")]
assert main(argv) == 0, argv
print(" ".join(m for m in ("symbols", "lscheck", "weights")
               if "platelab." + m in sys.modules))
"""


# runs the plate-side commands, then prints the scipy modules loaded
_PLATE_CHILD = """
import os, sys
from platelab.cli import main
out, profile = sys.argv[1:]
runs = [["assemble", "--bc", "clamped", "--n", "16", "--count", "5"],
        ["spectrum", "--bc", "clamped", "--n", "40"],
        ["spectrum", "--bc", "hinged", "--dim", "2", "--n", "9", "--n-y", "12"],
        ["simulate", "--bc", "neumann_pair", "--n", "40", "--T", "0.5"],
        ["simulate", "--bc", "hinged", "--dim", "2", "--n", "9", "--n-y", "12",
         "--alpha", "file:" + profile, "--T", "0.5"],
        ["decay-fit", "--bc", "clamped", "--n", "40", "--T", "5"]]
for i, argv in enumerate(runs):
    assert main(argv + ["--out", os.path.join(out, str(i))]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

# runs the resolvent on a plate without a kernel, on the bordered pencil of
# a two-dimensional kernel and on a rectangle, then prints the scipy
# modules loaded
_RESOLVENT_CHILD = """
import os, sys
from platelab.cli import main
runs = [["resolvent", "--bc", "clamped", "--n", "16"],
        ["resolvent", "--bc", "ex2_dn2_dn3", "--n", "16"],
        ["resolvent", "--bc", "hinged", "--dim", "2", "--n", "9", "--n-y",
         "12"]]
for i, argv in enumerate(runs):
    assert main(argv + ["--sigma-grid", "0:2:1", "--out",
                        os.path.join(sys.argv[1], f"{i}.csv")]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

# the plate-side commands and the resolvent in one process, each writing
# argv[1]/<i>.csv; with argv[2] == "fallback", scipy's files are not found,
# so the compiled modules come through the packages' imports
_ONE_PROCESS_RUNS = [
    ["spectrum", "--bc", "clamped", "--n", "40"],
    ["resolvent", "--bc", "clamped", "--n", "16", "--sigma-grid", "0:2:1"],
    ["simulate", "--bc", "neumann_pair", "--n", "40", "--T", "0.5"]]
_ONE_PROCESS_CHILD = f"""
import importlib.util, os, sys
if sys.argv[2] == "fallback":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, *args: (
        None if name == "scipy" else find_spec(name, *args))
from platelab.cli import main
for i, argv in enumerate({_ONE_PROCESS_RUNS!r}):
    assert main(argv + ["--out", os.path.join(sys.argv[1], f"{{i}}.csv")]) == 0
    if i == 0:
        print("scipy.linalg" in sys.modules)
import scipy.linalg.lapack, scipy.sparse.linalg
from scipy.sparse.linalg._dsolve import linsolve
from scipy.sparse.linalg._eigen.arpack import arpack
print(sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack,
      sys.modules["scipy.sparse.linalg._dsolve._superlu"] is linsolve._superlu,
      sys.modules["scipy.sparse.linalg._eigen.arpack._arpacklib"]
      is arpack._arpacklib)
"""

# prints what the imports named in argv changed in os.environ
_ENV_CHILD = """
import json, os, sys
before = dict(os.environ)
for name in sys.argv[1:]:
    __import__(name)
after = dict(os.environ)
print(json.dumps({k: after.get(k) for k in sorted(set(before) | set(after))
                  if before.get(k) != after.get(k)}))
"""


class TestConsoleEntry:
    @pytest.mark.parametrize("env, modules, changed", [
        ({}, ["platelab.cli"], {"OPENBLAS_NUM_THREADS": "1"}),
        ({"OMP_NUM_THREADS": "2"}, ["platelab.cli"], {}),
        ({"GOTO_NUM_THREADS": "2"}, ["platelab.cli"], {}),
        ({"OPENBLAS_NUM_THREADS": "3"}, ["platelab.cli"], {}),
        ({}, ["numpy", "platelab.cli"], {}),
    ], ids=["default-one-thread", "omp-set", "goto-set", "openblas-set",
            "numpy-first"])
    def test_blas_thread_policy(self, env, modules, changed):
        # the child's environment is built here, not inherited
        src = os.path.dirname(os.path.dirname(platelab.__file__))
        proc = subprocess.run([sys.executable, "-c", _ENV_CHILD, *modules],
                              capture_output=True, text=True,
                              env={"PYTHONPATH": src,
                                   "PYTHONDONTWRITEBYTECODE": "1", **env})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == changed

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "platelab.cli",
                               "catalog"], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0
        assert "hinged" in proc.stdout

    def test_algebra_commands_load_no_scipy(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", _ALGEBRA_CHILD,
                               str(tmp_path)], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        scipy_modules, numpy_random, spectrum_run = proc.stdout.splitlines()
        assert scipy_modules == "[]"
        assert numpy_random == "False"
        assert spectrum_run == "0 False"

    def test_plate_commands_load_no_scipy_package(self, tmp_path):
        # the plate side calls LAPACK and the CSR kernels through the two
        # compiled modules alone: no scipy package code runs
        from platelab import plate
        op = plate.assemble(plate.make_grid((9, 12)), "hinged")
        profile = tmp_path / "alpha.txt"
        np.savetxt(profile, np.column_stack([op.nodes, np.ones(op.size)]))
        proc = subprocess.run([sys.executable, "-c", _PLATE_CHILD,
                               str(tmp_path), str(profile)],
                              capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(
            ["scipy.linalg._flapack", "scipy.sparse._sparsetools"])

    def test_resolvent_loads_no_scipy_package(self, tmp_path):
        # SuperLU and ARPACK come through their compiled modules too
        proc = subprocess.run([sys.executable, "-c", _RESOLVENT_CHILD,
                               str(tmp_path)], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(
            ["scipy.linalg._flapack", "scipy.sparse._sparsetools",
             "scipy.sparse.linalg._dsolve._superlu",
             "scipy.sparse.linalg._eigen.arpack._arpacklib"])

    @pytest.mark.parametrize("mode, package_first", [
        ("file", "False"), ("fallback", "True")],
        ids=["one-process", "fallback-loader"])
    def test_compiled_modules_give_fresh_process_bytes(self, mode,
                                                       package_first,
                                                       tmp_path):
        # one interpreter that loads the compiled modules by file (or, in
        # the fallback, through the packages) writes the bytes that
        # separate processes write, and a later import of the packages
        # takes the modules already loaded
        fresh, same = tmp_path / "fresh", tmp_path / "same"
        fresh.mkdir()
        same.mkdir()
        for i, argv in enumerate(_ONE_PROCESS_RUNS):
            subprocess.run([sys.executable, "-m", "platelab.cli", *argv,
                            "--out", str(fresh / f"{i}.csv")],
                           check=True, env=_child_env())
        proc = subprocess.run([sys.executable, "-c", _ONE_PROCESS_CHILD,
                               str(same), mode], capture_output=True,
                              text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [package_first, "True", "True", "True"]
        for i in range(len(_ONE_PROCESS_RUNS)):
            assert (same / f"{i}.csv").read_bytes() == \
                (fresh / f"{i}.csv").read_bytes(), _ONE_PROCESS_RUNS[i]

    @pytest.mark.parametrize("argv, loaded", [
        (["catalog"], "symbols lscheck"),
        (["roots", "--tau", "2", "--sigma", "1"], "symbols"),
        (["ls-check", "--bc", "clamped", "--samples", "5"], "symbols lscheck"),
        (["subell", "--gamma", "25", "--region-n", "3"], "symbols weights"),
        (["gamma-search", "--region-n", "3"], "symbols weights"),
        (["spectrum", "--bc", "hinged", "--n", "16"], ""),
        (["simulate", "--bc", "clamped", "--n", "16", "--T", "0.1"], ""),
        (["resolvent", "--bc", "clamped", "--n", "16", "--sigma-grid",
          "0:2:1"], ""),
        (["decay-fit", "--bc", "clamped", "--n", "16", "--T", "5"], ""),
    ], ids=["catalog", "roots", "ls-check", "subell", "gamma-search",
            "spectrum", "simulate", "resolvent", "decay-fit"])
    def test_each_command_loads_only_its_layers(self, argv, loaded, tmp_path):
        proc = subprocess.run([sys.executable, "-c", _LAYERS_CHILD,
                               str(tmp_path), *argv], capture_output=True,
                              text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == loaded

    def test_size_limit_error_is_shared(self):
        from platelab import plate
        assert plate.SizeLimitError is platelab.SizeLimitError
        assert issubclass(platelab.SizeLimitError, ValueError)
