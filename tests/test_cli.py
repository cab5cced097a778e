"""End-to-end tests of the command-line front end.

Most tests run the command in a child process.  The tests that patch a
library function (to count eigensolves or to inject a failure) call
``spreadq.cli.main`` in-process instead.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import spreadq
import spreadq.cli
from spreadq import (
    AssemblyError,
    LanczosCoefficients,
    LapackError,
    _lapack,
    eigendecompose,
    eval_autocorr,
    evolve_amplitudes,
    matrix_lanczos,
    model_from_dict,
)
from spreadq.hamiltonians import sample_goe

# Directory holding the spreadq package this process imported (``src/`` or
# site-packages). It goes first on the child's PYTHONPATH, so the child runs
# the same copy even though it starts in a temporary directory, where a
# relative entry such as ``PYTHONPATH=src`` no longer resolves.
PACKAGE_ROOT = str(Path(spreadq.__file__).resolve().parent.parent)


def run_python(*argv, cwd):
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (PACKAGE_ROOT + os.pathsep + inherited
                         if inherited else PACKAGE_ROOT)
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def run_cli(*argv, cwd):
    return run_python("-m", "spreadq.cli", *argv, cwd=cwd)


def read_coeffs(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].astype(int), data[:, 1], data[:, 2]


def test_model_gaussian_writes_expected_artifacts(tmp_path):
    proc = run_cli("model", "--variant", "gaussian", "--sigma0", "1",
                   "--K", "16", "--tpoints", "50", "--out", "run",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "run"
    for name in ("coeffs.csv", "series.csv", "averages.json", "fits.json",
                 "manifest.json"):
        assert (out / name).exists()
    n, a, b = read_coeffs(out / "coeffs.csv")
    assert np.allclose(a, 0.0, atol=1e-12)
    expected = np.sqrt(np.maximum(n, 0))
    np.testing.assert_allclose(b[1:], expected[1:], rtol=1e-9)
    fits = json.loads((out / "fits.json").read_text())
    assert fits["bn_power"]["params"]["n2"] == pytest.approx(0.5, abs=1e-6)
    assert fits["b1"] == pytest.approx(1.0)
    averages = json.loads((out / "averages.json").read_text())
    assert averages == {"C_bar": fits["long_time_average"]["C_bar"],
                        "F_bar": fits["long_time_average"]["F_bar"], "K": 16}


def test_model_missing_required_flag_exits_2_without_files(tmp_path):
    proc = run_cli("model", "--sigma0", "1", "--out", "never", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--variant" in proc.stderr
    assert not (tmp_path / "never").exists()


def test_model_semicircle_constant_coefficients(tmp_path):
    proc = run_cli("model", "--variant", "semicircle", "--alpha", "1",
                   "--K", "20", "--tpoints", "50", "--out", "run",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    _, _, b = read_coeffs(tmp_path / "run" / "coeffs.csv")
    np.testing.assert_allclose(b[1:], 1.0, rtol=1e-9)


@pytest.mark.parametrize("params", [
    pytest.param({"variant": "gaussian", "sigma0": 1.0}, id="gaussian"),
    pytest.param({"variant": "semicircle", "alpha": 1.0}, id="semicircle"),
    pytest.param({"variant": "interpolation", "sigma0": 2.0, "gamma": 0.5},
                 id="interpolation"),
])
def test_model_survival_is_the_closed_form_before_the_krylov_edge(
        tmp_path, params):
    # until the chain's last site |phi_(K-1)|^2 first exceeds 1e-12, the
    # K = 40 truncation cannot show in F = |S(t)|^2
    out = tmp_path / "run"
    argv = ["model", "--K", "40", "--out", str(out)]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    assert spreadq.cli.main(argv) == 0
    _, a, b = read_coeffs(out / "coeffs.csv")
    t, _, f = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1).T
    spectrum = eigendecompose(LanczosCoefficients(a, b[1:]))
    edge = np.abs(evolve_amplitudes(spectrum, t)[:, -1]) ** 2
    before = t[:np.argmax(edge > 1e-12)] if np.any(edge > 1e-12) else t
    assert before.size >= 100
    exact = eval_autocorr(model_from_dict(params), before) ** 2
    np.testing.assert_allclose(f[:before.size], exact, rtol=0, atol=1e-10)


def test_truncated_quadratic_needs_formal_flag(tmp_path):
    proc = run_cli("model", "--variant", "truncated_quadratic",
                   "--sigma0", "1", "--K", "6", "--out", "strict",
                   cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "PositivityError" in proc.stderr

    proc = run_cli("model", "--variant", "truncated_quadratic",
                   "--sigma0", "1", "--K", "6", "--formal", "--out", "formal",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "formal"
    n, a, b = read_coeffs(out / "coeffs.csv")
    # recursion halts at depth 2 with the sign-carrying b_2 = -sigma0
    assert list(n) == [0, 1, 2]
    assert b[2] == pytest.approx(-1.0)
    assert not (out / "series.csv").exists()
    fits = json.loads((out / "fits.json").read_text())
    assert fits["physical"] is False
    assert fits["violation_depth"] == 2


def test_frm_ensemble_outputs_and_profile_fit(tmp_path):
    proc = run_cli("frm", "--dim", "50", "--realizations", "3",
                   "--tpoints", "60", "--out", "run", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "run"
    for stream in range(3):
        assert (out / f"series_{stream:04d}.csv").exists()
        assert (out / f"coeffs_{stream:04d}.csv").exists()
    fits = json.loads((out / "fits.json").read_text())
    assert 0.3 < fits["goe_profile"]["params"]["n2"] < 0.7
    assert fits["b1_mean"] == pytest.approx(math.sqrt(25.0), rel=0.2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"]["streams"] == [0, 1, 2]
    assert "config_sha256" in manifest and "wall_time_s" in manifest


def test_frm_dimension_one_is_config_error(tmp_path):
    proc = run_cli("frm", "--dim", "1", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr


def test_spin_smoke_run_small_sector(tmp_path):
    proc = run_cli("spin", "--L", "4", "--h", "0", "--realizations", "2",
                   "--tpoints", "50", "--out", "run", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "run"
    variances = json.loads((out / "variances.json").read_text())
    assert variances["realizations"] == 2
    assert variances["var_a"] >= 0.0 and variances["var_b"] >= 0.0
    assert (out / "hist_a.csv").exists() and (out / "hist_b.csv").exists()
    n, _, _ = read_coeffs(out / "coeffs_0000.csv")
    # Sz=0 sector of 4 sites has dimension 6; symmetry may truncate earlier
    assert len(n) <= 6


def test_spin_odd_length_is_config_error(tmp_path):
    proc = run_cli("spin", "--L", "13", "--h", "0.4", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "even" in proc.stderr


def test_reruns_are_byte_identical(tmp_path):
    for label in ("first", "second"):
        proc = run_cli("frm", "--dim", "30", "--realizations", "2",
                       "--seed", "7", "--tpoints", "40", "--out", label,
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    for name in ("coeffs_mean.csv", "ensemble.csv", "series_0000.csv",
                 "fits.json"):
        assert (tmp_path / "first" / name).read_bytes() == \
            (tmp_path / "second" / name).read_bytes()


def test_config_file_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "gaussian", "sigma0": 2.0,
                               "depth": 12, "tpoints": 40}))
    proc = run_cli("model", "--config", "cfg.json", "--out", "fromfile",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    _, _, b = read_coeffs(tmp_path / "fromfile" / "coeffs.csv")
    assert b[1] == pytest.approx(2.0)

    proc = run_cli("model", "--config", "cfg.json", "--sigma0", "1",
                   "--out", "override", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    _, _, b = read_coeffs(tmp_path / "override" / "coeffs.csv")
    assert b[1] == pytest.approx(1.0)


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "gaussian", "bogus": 1}))
    proc = run_cli("model", "--config", "cfg.json", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "bogus" in proc.stderr


def test_broken_json_reports_position(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"variant": "gaussian",\n  broken\n}')
    proc = run_cli("model", "--config", "cfg.json", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "cfg.json:2" in proc.stderr


def test_fit_subcommand_power_kind(tmp_path):
    proc = run_cli("model", "--variant", "gaussian", "--sigma0", "1.5",
                   "--K", "20", "--tpoints", "40", "--out", "src",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("fit", "--coeffs", "src/coeffs.csv", "--kind", "power",
                   "--out", "fit", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    fits = json.loads((tmp_path / "fit" / "fits.json").read_text())
    assert fits["fit"]["params"]["n2"] == pytest.approx(0.5, abs=1e-6)
    assert fits["fit"]["params"]["n1"] == pytest.approx(1.5, rel=1e-6)


def test_fit_subcommand_decay_kind(tmp_path):
    t = np.geomspace(0.5, 50.0, 200)
    f = np.minimum(1.0, 2.0 * t**-3)
    series = tmp_path / "series.csv"
    with open(series, "w") as fh:
        fh.write("t,C,F\n")
        for ti, fi in zip(t, f):
            fh.write(f"{ti},0.0,{fi}\n")
    proc = run_cli("fit", "--series", "series.csv", "--kind", "decay",
                   "--window", "2", "40", "--out", "fit", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    fits = json.loads((tmp_path / "fit" / "fits.json").read_text())
    assert fits["fit"]["params"]["gamma"] == pytest.approx(3.0, abs=1e-9)


def test_fit_requires_exactly_one_input(tmp_path):
    proc = run_cli("fit", "--kind", "power", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("kind, window, extra", [
    ("decay", ["1", "inf"], ["--envelope"]),
    ("decay", ["1", "nan"], []),
    ("decay", ["5", "2"], []),
    ("decay", ["0", "3"], []),
    ("power", ["1", "nan"], []),
    ("power", ["6", "6"], []),
    ("power", ["2.5", "8"], []),
    ("linear", ["1", "inf"], ["--origin"]),
], ids=lambda v: "_".join(v) if isinstance(v, list) else v)
def test_fit_window_is_input_and_exits_2(tmp_path, kind, window, extra):
    # a window no fit of its kind can take is a config error, found before
    # any file is read or fitted, not a numerical failure or a traceback
    t = np.geomspace(0.5, 50.0, 200)
    series = "t,C,F\n" + "".join(f"{ti},0.0,{ti ** -2.0}\n" for ti in t)
    (tmp_path / "series.csv").write_text(series)
    coeffs = "n,a_n,b_n\n0,0.0,0.0\n" + "".join(
        f"{n},0.0,{math.sqrt(n)}\n" for n in range(1, 16))
    (tmp_path / "coeffs.csv").write_text(coeffs)
    source = ["--series", "series.csv"] if kind == "decay" \
        else ["--coeffs", "coeffs.csv"]
    proc = run_cli("fit", *source, "--kind", kind, "--window", *window,
                   *extra, "--out", "never", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--window" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("table", [
    pytest.param("n,a_n,b_n\nx,1,2\n", id="not-a-number"),
    pytest.param("", id="empty"),
    pytest.param("n,a_n,b_n\n0,1,0\n1,2\n", id="short-row"),
    pytest.param("n,a_n,b_n\n0,1,0\n1,nan,2\n", id="non-finite"),
])
def test_fit_malformed_coefficient_file_exits_2(tmp_path, capsys, table):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text(table)
    out = tmp_path / "never"
    assert spreadq.cli.main(["fit", "--coeffs", str(coeffs), "--kind",
                             "power", "--out", str(out)]) == 2
    assert str(coeffs) in capsys.readouterr().err
    assert not out.exists()


def test_fit_reads_crlf_coefficients_like_lf(tmp_path, monkeypatch):
    # earlier versions wrote coeffs*.csv with CRLF line ends
    lc = LanczosCoefficients(np.zeros(20), np.sqrt(np.arange(1.0, 20.0)))
    fits = {}
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        run = tmp_path / name
        run.mkdir()
        spreadq.cli._write_table(run / "coeffs.csv",
                                 spreadq.cli.COEFFS_HEADER,
                                 *spreadq.cli._coeff_columns(lc))
        lines = (run / "coeffs.csv").read_text().splitlines()
        (run / "coeffs.csv").write_bytes(
            "".join(line + newline for line in lines).encode())
        monkeypatch.chdir(run)
        assert spreadq.cli.main(["fit", "--coeffs", "coeffs.csv", "--kind",
                                 "power", "--out", "fit"]) == 0
        fits[name] = (run / "fit" / "fits.json").read_bytes()
    assert b"\r" in (tmp_path / "crlf" / "coeffs.csv").read_bytes()
    assert fits["crlf"] == fits["lf"]


def test_table_rows_are_the_17_digit_formatting_of_each_value(tmp_path):
    # one "%.17g" line template per table writes what one f"{v:.17g}" per
    # value wrote: integers as integers, extremes and signed zeros alike
    rng = np.random.default_rng(8)
    floats = np.concatenate([rng.standard_normal(50),
                             [1e-300, -0.0, 0.0, 2.0 ** 53 + 1.0, 1e300,
                              -5e-324, 0.1, 1.0 / 3.0]])
    tables = {"x,y": (floats, floats[::-1] * 1e7),
              "n,x,y": (np.arange(floats.size), floats, -floats)}
    for header, columns in tables.items():
        path = tmp_path / f"{header.count(',')}.csv"
        spreadq.cli._write_table(path, header, *columns)
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        expected = header + "\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()
    assert (tmp_path / "2.csv").read_text().splitlines()[3].startswith("2,")


@pytest.mark.parametrize("header", ["t,C\n", "t,F,C\n", "0.5,0,1\n"])
def test_fit_series_needs_its_header(tmp_path, capsys, header):
    series = tmp_path / "series.csv"
    t = np.geomspace(0.5, 50.0, 200)
    series.write_text(header + "".join(f"{ti},0.0,{ti ** -2.0}\n"
                                       for ti in t))
    out = tmp_path / "never"
    assert spreadq.cli.main(["fit", "--series", str(series), "--kind",
                             "decay", "--window", "2", "40",
                             "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(series) in err and "t,C,F" in err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_fit_of_a_non_finite_series_cell_exits_2(tmp_path, capsys, cell):
    # a bad cell is a bad input file, not a failed fit
    t = np.geomspace(0.5, 50.0, 200)
    f = [str(ti ** -2.0) for ti in t]
    f[3] = cell
    rows = [f"{ti},0.0,{fi}" for ti, fi in zip(t, f)]
    series = tmp_path / "series.csv"
    series.write_text("t,C,F\n" + "\n".join(rows) + "\n")
    out = tmp_path / "never"
    assert spreadq.cli.main(["fit", "--series", str(series), "--kind",
                             "decay", "--window", "1", "5",
                             "--out", str(out)]) == 2
    assert f"config error: {series}: a cell is not a finite number" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, header, fit", [
    ("--series", "t,C,F", ["--kind", "decay", "--window", "2", "40"]),
    ("--coeffs", "n,a_n,b_n", ["--kind", "power"]),
])
def test_fit_of_a_header_only_table_exits_2(tmp_path, flag, header, fit):
    table = tmp_path / "table.csv"
    table.write_text(header + "\n")
    proc = run_cli("fit", flag, str(table), *fit, "--out", "never",
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"{table}: no data rows" in proc.stderr
    assert "UserWarning" not in proc.stderr
    assert not (tmp_path / "never").exists()


def test_frm_K_member_holds_one_matrix(tmp_path):
    # each member's H is drawn, symmetrized and reduced in one n^2 array;
    # a private copy for the reduction would double the peak
    n = 600
    # the first run in a process imports numpy.random
    assert spreadq.cli.main(["frm", "--dim", "8", "--realizations", "1",
                             "--K", "3", "--tpoints", "20", "--out",
                             str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        code = spreadq.cli.main(["frm", "--dim", str(n), "--realizations",
                                 "2", "--K", "40", "--out",
                                 str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.25 * n * n * 8


def test_b2_table_default_values(tmp_path):
    proc = run_cli("b2-table", "--out", "tab", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    data = np.loadtxt(tmp_path / "tab" / "b2.csv", delimiter=",",
                      skiprows=1)
    np.testing.assert_allclose(data[:, 0], [0.0, 0.5, 1.0, 2.0, 10.0])
    expected = [1.0, 0.3465735902799726, 0.0986122886681098,
                0.0216512475319814, 0.0008345855698254]
    np.testing.assert_allclose(data[:, 1], expected, atol=2e-13)


def test_spin_compare_smaller_writes_subdirectory(tmp_path):
    proc = run_cli("spin", "--L", "6", "--h", "0.2", "--realizations", "2",
                   "--tpoints", "40", "--compare-smaller", "--out", "run",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    sub = tmp_path / "run" / "compare-L4"
    assert (sub / "variances.json").exists()
    assert (sub / "manifest.json").exists()
    cfg = json.loads((sub / "manifest.json").read_text())["config"]
    assert cfg["L"] == 4 and cfg["compare_smaller"] is False


def test_precision_bits_is_rejected_outside_model(tmp_path):
    proc = run_cli("frm", "--dim", "40", "--realizations", "1",
                   "--tpoints", "20", "--precision-bits", "7",
                   "--out", "never", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--precision-bits" in proc.stderr
    assert not (tmp_path / "never").exists()


def test_frm_small_dimension_skips_profile_fit(tmp_path):
    # dim - 20 leaves no points for the GOE profile window
    proc = run_cli("frm", "--dim", "20", "--realizations", "1",
                   "--tpoints", "20", "--out", "run", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "run"
    fits = json.loads((out / "fits.json").read_text())
    assert "skipped" in fits["goe_profile"]
    assert fits["realizations"] == 1
    assert (out / "manifest.json").exists()


@pytest.fixture
def eigensolve_calls(monkeypatch):
    """Count calls of the ``dstevd`` binding from every spreadq module."""
    kernel = _lapack.dstevd
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return kernel(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "spreadq" or name.startswith("spreadq."):
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_frm_diagonalizes_each_member_once(tmp_path, eigensolve_calls):
    code = spreadq.cli.main(["frm", "--dim", "40", "--realizations", "3",
                             "--tpoints", "20", "--out",
                             str(tmp_path / "run")])
    assert code == 0
    assert len(eigensolve_calls) == 3


def test_model_diagonalizes_once(tmp_path, eigensolve_calls):
    code = spreadq.cli.main(["model", "--variant", "gaussian", "--sigma0",
                             "1", "--K", "16", "--tpoints", "20", "--out",
                             str(tmp_path / "run")])
    assert code == 0
    assert len(eigensolve_calls) == 1


def test_spin_diagonalizes_each_member_once(tmp_path, eigensolve_calls):
    # two L = 8 members (order 70), then the two of the L = 6 comparison
    code = spreadq.cli.main(["spin", "--L", "8", "--h", "0.4",
                             "--realizations", "2", "--compare-smaller",
                             "--tpoints", "20", "--out",
                             str(tmp_path / "run")])
    assert code == 0
    assert eigensolve_calls == [70, 70, 20, 20]


def use_reduction(monkeypatch, kernel: str) -> None:
    """Make ``householder_hessenberg`` run the reduction ``kernel`` at every
    order, by moving the crossover of ``reduction_kernel``."""
    order = 2 if kernel == "dsytrd_2stage" else sys.maxsize
    monkeypatch.setattr(matrix_lanczos, "TWO_STAGE_MIN_ORDER", order)


@pytest.mark.parametrize("routine, kernel, info_argument", [
    pytest.param("_SYTRD", "dsytrd", 9, id="dsytrd"),
    pytest.param("_SYTRD_2STAGE", "dsytrd_2stage", 12, id="dsytrd_2stage"),
])
def test_dsytrd_failure_exits_3(tmp_path, monkeypatch, capsys, routine,
                                kernel, info_argument):
    # the raw routine reports a nonzero INFO
    def failing(*args):
        args[info_argument].value = 1

    use_reduction(monkeypatch, kernel)
    monkeypatch.setattr(_lapack, routine, failing)
    out = tmp_path / "run"
    code = spreadq.cli.main(["frm", "--dim", "30", "--realizations", "1",
                             "--tpoints", "20", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "LapackError" in err and f"{kernel} failed with info=1" in err
    assert not out.exists()


def test_sector_assembly_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a basis without label 0b0011 (also the domain-wall label) leaves
    # flip-flop partners on the wrong rows: the sector builder finds H
    # asymmetric before the domain-wall index is looked up
    from spreadq import hamiltonians

    real_basis = hamiltonians.sector_basis
    monkeypatch.setattr(hamiltonians, "sector_basis",
                        lambda L: real_basis(L)[1:])
    code = spreadq.cli.main(["spin", "--L", "4", "--h", "0.1",
                             "--realizations", "1", "--tpoints", "20",
                             "--out", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert "AssemblyError" in err and "asymmetric matrix" in err


def test_asymmetric_assembly_exits_3(tmp_path, monkeypatch, capsys):
    # without label 200 of the L=10 sector (n=252, two symmetry tiles),
    # flip-flop partners of that label land on the next row: H != H.T
    from spreadq import hamiltonians

    real_basis = hamiltonians.sector_basis
    monkeypatch.setattr(hamiltonians, "sector_basis",
                        lambda L: np.delete(real_basis(L), 200))
    spec = hamiltonians.SpinChainSpec(L=10, h=0.1, seed=0)
    with pytest.raises(AssemblyError, match="asymmetric"):
        hamiltonians.build_spin_sector(spec)
    out = tmp_path / "run"
    code = spreadq.cli.main(["spin", "--L", "10", "--h", "0.1",
                             "--realizations", "1", "--tpoints", "20",
                             "--out", str(out)])
    assert code == 3
    assert "asymmetric matrix" in capsys.readouterr().err
    assert not out.exists()


# the reduction --dim 30 runs has the unsuffixed ids
@pytest.mark.parametrize("realizations, failing_call, name", [
    pytest.param(1, 1, "dsytrd", id="1-1"),
    pytest.param(2, 2, "dsytrd", id="2-2"),
    pytest.param(1, 1, "dsytrd_2stage", id="1-1-dsytrd_2stage"),
    pytest.param(2, 2, "dsytrd_2stage", id="2-2-dsytrd_2stage"),
])
def test_numerical_failure_leaves_no_run_directory(tmp_path, monkeypatch,
                                                   capsys, realizations,
                                                   failing_call, name):
    # member 0 fails before the grid is fixed; member 1 fails after it
    use_reduction(monkeypatch, name)
    kernel = getattr(_lapack, name)
    calls = []

    def failing_once(a):
        calls.append(a.shape[0])
        if len(calls) == failing_call:
            raise LapackError(f"{name} failed with info=1")
        return kernel(a)

    monkeypatch.setattr(_lapack, name, failing_once)
    out = tmp_path / "run"
    code = spreadq.cli.main(["frm", "--dim", "30", "--realizations",
                             str(realizations), "--tpoints", "20",
                             "--out", str(out)])
    assert code == 3
    assert len(calls) == failing_call
    assert not out.exists()
    # the message names the failing stream and the original error class
    err = capsys.readouterr().err
    assert f"member {failing_call - 1} failed [LapackError]" in err


def test_member_0_memory_error_exits_3(tmp_path, monkeypatch, capsys):
    # member 0 runs in the same loop as every other member: its failures
    # are wrapped too, so none ends in a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate H")

    monkeypatch.setattr(spreadq.cli, "sample_goe", exhausted)
    out = tmp_path / "run"
    code = spreadq.cli.main(["frm", "--dim", "30", "--realizations", "2",
                             "--tpoints", "20", "--out", str(out)])
    assert code == 3
    assert "member 0 failed [MemoryError]" in capsys.readouterr().err
    assert not out.exists()


def test_one_member_is_alive_at_a_time(tmp_path, monkeypatch):
    # no spectrum or H of an earlier member is alive when the next H is
    # built, and no H is alive at its member's eigensolve
    spectra, hams, alive = [], [], []
    real_goe, real_eig = spreadq.cli.sample_goe, spreadq.cli.eigendecompose

    def count_alive(event, refs):
        alive.append((event, sum(ref() is not None for ref in refs)))

    def goe(*args, **kwargs):
        count_alive("build", spectra + hams)
        sector = real_goe(*args, **kwargs)
        hams.append(weakref.ref(sector.H))
        return sector

    def eig(lc):
        count_alive("eigensolve", hams)
        spectrum = real_eig(lc)
        spectra.append(weakref.ref(spectrum))
        return spectrum

    monkeypatch.setattr(spreadq.cli, "sample_goe", goe)
    monkeypatch.setattr(spreadq.cli, "eigendecompose", eig)
    assert spreadq.cli.main(["frm", "--dim", "40", "--realizations", "3",
                             "--tpoints", "20", "--out",
                             str(tmp_path / "run")]) == 0
    assert len(hams) == len(spectra) == 3
    assert alive == [("build", 0), ("eigensolve", 0)] * 3


GAUSSIAN = ("model", "--variant", "gaussian", "--sigma0", "1", "--K", "8")
INTERPOLATION = ("model", "--variant", "interpolation", "--sigma0", "1.2",
                 "--gamma", "0.5", "--K", "8")
FRM = ("frm", "--dim", "30", "--realizations", "1")
SPIN = ("spin", "--L", "4", "--h", "0.1", "--realizations", "1")


@pytest.mark.parametrize("command, kernel", [
    pytest.param(FRM, "dsytrd", id="frm"),
    pytest.param(SPIN, "dsytrd", id="spin"),
    pytest.param(FRM + ("--K", "5"), "dsytrd_leading", id="frm-K"),
    pytest.param(SPIN + ("--K", "3"), "dsytrd_leading", id="spin-K"),
    pytest.param(GAUSSIAN, None, id="model"),
])
def test_manifest_records_tridiagonalization(tmp_path, command, kernel):
    # only frm and spin reduce a matrix; model has no such entry
    out = tmp_path / "run"
    assert spreadq.cli.main([*command, "--tpoints", "20",
                             "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest.get("tridiagonalization") == kernel


def test_frm_depth_is_the_prefix_of_the_full_run(tmp_path):
    # --K reduces only the leading columns of the full run's reduction
    runs = {}
    for label, extra in (("full", ()), ("K", ("--K", "20"))):
        out = tmp_path / label
        assert spreadq.cli.main(["frm", "--dim", "64", "--realizations", "2",
                                 "--seed", "5", "--tpoints", "20", *extra,
                                 "--out", str(out)]) == 0
        runs[label] = out
    for stream in range(2):
        name = f"coeffs_{stream:04d}.csv"
        n, a, b = read_coeffs(runs["K"] / name)
        _, full_a, full_b = read_coeffs(runs["full"] / name)
        assert np.array_equal(n, np.arange(20))
        ham = sample_goe(64, 5, stream=stream).H
        tol = 1e-14 * np.max(np.abs(np.linalg.eigvalsh(ham)))
        np.testing.assert_allclose(a, full_a[:20], rtol=0, atol=tol)
        np.testing.assert_allclose(b, full_b[:20], rtol=0, atol=tol)


def test_manifest_records_two_stage_reduction(tmp_path, monkeypatch):
    # at and above the crossover order the two-stage reduction runs
    monkeypatch.setattr(matrix_lanczos, "TWO_STAGE_MIN_ORDER", 30)
    out = tmp_path / "run"
    assert spreadq.cli.main([*FRM, "--tpoints", "20", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tridiagonalization"] == "dsytrd_2stage"


@pytest.mark.parametrize("command", [
    pytest.param(FRM + ("--K", "31"), id="frm-K-above-dimension"),
    pytest.param(SPIN + ("--K", "7"), id="spin-K-above-dimension"),
    pytest.param(FRM + ("--tpoints", "1"), id="tpoints-1"),
    pytest.param(FRM + ("--tmax", "-1"), id="tmax-negative"),
    pytest.param(FRM + ("--tmax", "inf"), id="tmax-inf"),
    pytest.param(FRM + ("--tmax", "0", "--no-log-grid"), id="tmax-0-linear"),
    pytest.param(FRM + ("--tmax", "1e-6"), id="tmax-below-log-grid"),
    pytest.param(("frm", "--dim", "2", "--K", "1"), id="krylov-dimension-1"),
    pytest.param(("frm", "--dim", "30", "--realizations", "0"),
                 id="realizations-0"),
    pytest.param(("spin", "--L", "2", "--h", "0.1", "--compare-smaller"),
                 id="no-smaller-chain"),
    # 20 is the L=6 sector's dimension, above the L=4 sector's 6
    pytest.param(("spin", "--L", "6", "--h", "0.4", "--K", "20",
                  "--compare-smaller", "--tpoints", "20"),
                 id="K-above-smaller-chain"),
])
def test_ensemble_config_errors_exit_2_without_run_directory(tmp_path,
                                                             command):
    out = tmp_path / "never"
    assert spreadq.cli.main([*command, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("grid", [
    pytest.param(("--tpoints", "1"), id="tpoints-1"),
    pytest.param(("--tmax", "-3"), id="tmax-negative"),
    pytest.param(("--tmax", "inf"), id="tmax-inf"),
    pytest.param(("--tmax", "0.001"), id="tmax-below-log-grid"),
])
def test_model_grid_errors_exit_2_without_run_directory(tmp_path, grid):
    # the grid is checked before the coefficients are written
    out = tmp_path / "never"
    assert spreadq.cli.main([*GAUSSIAN, *grid, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", [
    pytest.param(("frm", "--dim", "30"), id="frm"),
    pytest.param(("model", "--variant", "gaussian", "--sigma0", "1"),
                 id="model"),
])
def test_overflowing_phases_exit_2_without_run_directory(tmp_path, command):
    # a finite --tmax at which lambda t overflows is refused where the grid
    # meets the spectrum, before numpy forms (and warns about) NaN phases
    proc = run_cli(*command, "--tmax", "1e308", "--out", "never",
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: the phases lambda t "
                                  "overflow: max|t| 1e+308 times max|lambda|")
    assert "lower --tmax" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "never").exists()


def test_members_evolve_in_slabs_of_grid_rows(tmp_path, monkeypatch):
    from spreadq import evolution

    kernel = evolution.evolve_amplitudes
    rows = []

    def counted(spectrum, times):
        rows.append(len(times))
        return kernel(spectrum, times)

    monkeypatch.setattr(evolution, "evolve_amplitudes", counted)
    tpoints = 2 * evolution.TIME_SLAB_ROWS + 7
    out = tmp_path / "run"
    assert spreadq.cli.main(["frm", "--dim", "30", "--realizations", "2",
                             "--tpoints", str(tpoints),
                             "--out", str(out)]) == 0
    assert len(rows) == 2 * 3
    assert max(rows) <= evolution.TIME_SLAB_ROWS
    assert sum(rows) == 2 * tpoints
    assert len((out / "ensemble.csv").read_text().splitlines()) == tpoints + 1


@pytest.mark.parametrize("command, key, value", [
    pytest.param(("model", "--variant", "truncated_quadratic", "--sigma0",
                  "1", "--K", "6"), "formal", "false", id="formal-string"),
    pytest.param(GAUSSIAN, "tmax", "5", id="tmax-string"),
    pytest.param(("model", "--variant", "gaussian", "--K", "8"), "sigma0",
                 "1", id="sigma0-string"),
    pytest.param(SPIN, "g", "x", id="g-string"),
    pytest.param(("fit", "--coeffs", "coeffs.csv", "--kind", "power"),
                 "window", [1], id="window-one-number"),
    pytest.param(("b2-table",), "times", 5, id="times-number"),
    # integers beyond the float range
    pytest.param(("model", "--variant", "gaussian"), "sigma0", 10**400,
                 id="sigma0-overflow"),
    pytest.param(("spin", "--L", "4"), "h", 10**400, id="h-overflow"),
])
def test_config_file_values_must_have_their_flag_type(tmp_path, capsys,
                                                      command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "never"
    code = spreadq.cli.main([*command, "--config", str(cfg),
                             "--out", str(out)])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("loaded, flags, config", [
    # a given flag wins over the file, also where it repeats its default
    pytest.param({"tpoints": 40, "log_grid": False},
                 ["--tpoints", "600", "--log-grid"],
                 {"tpoints": 600, "log_grid": True}, id="flags-win"),
    pytest.param({"tpoints": 40, "log_grid": False}, [],
                 {"tpoints": 40, "log_grid": False}, id="file-wins"),
    pytest.param({"out": None}, [], {"out": "model-out"}, id="out-null"),
    pytest.param({"tmax": None}, [], {"tmax": None}, id="tmax-null"),
    pytest.param({"help": 1}, [], None, id="help-key"),
    pytest.param({"config": "x"}, [], None, id="config-key"),
])
def test_config_file_precedence_and_keys(tmp_path, monkeypatch, capsys,
                                         loaded, flags, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(loaded))
    code = spreadq.cli.main([*GAUSSIAN, "--config", "cfg.json", *flags])
    out = tmp_path / "model-out"
    if config is None:
        assert code == 2
        assert f"unknown config key {next(iter(loaded))!r}" in \
            capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"].items() >= config.items()
    series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
    assert len(series) == manifest["config"]["tpoints"]


COMMON_KEYS = {"out", "seed", "tmax", "tpoints", "log_grid"}


@pytest.mark.parametrize("command, keys", [
    pytest.param(GAUSSIAN, COMMON_KEYS | {
        "variant", "sigma0", "alpha", "gamma", "depth", "formal",
        "precision_bits"}, id="model"),
    pytest.param(FRM, COMMON_KEYS | {"dim", "realizations", "depth"},
                 id="frm"),
    pytest.param(SPIN, COMMON_KEYS | {
        "L", "h", "g", "realizations", "depth", "compare_smaller"},
        id="spin"),
    pytest.param(("fit", "--coeffs", "coeffs.csv", "--kind", "power"), {
        "out", "coeffs", "series", "kind", "window", "origin", "envelope",
        "dim"}, id="fit"),
    pytest.param(("b2-table",), {"out", "times"}, id="b2-table"),
])
def test_manifest_config_keys(tmp_path, monkeypatch, command, keys):
    # one key per flag of the command, apart from --help and --config
    monkeypatch.chdir(tmp_path)
    lc = LanczosCoefficients(np.zeros(20), np.sqrt(np.arange(1.0, 20.0)))
    spreadq.cli._write_table("coeffs.csv", spreadq.cli.COEFFS_HEADER,
                             *spreadq.cli._coeff_columns(lc))
    assert spreadq.cli.main([*command, "--out", "run"]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert set(manifest["config"]) == keys


def test_precision_bits_below_the_floor_changes_nothing(tmp_path):
    # the mpmath recursion starts at max(128, 12 K) bits anyway
    interpolation = [*INTERPOLATION[:-1], "11", "--tpoints", "40"]
    for label, flags in (("plain", []), ("floor", ["--precision-bits", "64"])):
        assert spreadq.cli.main([*interpolation, *flags,
                                 "--out", str(tmp_path / label)]) == 0
    for name in ("coeffs.csv", "series.csv", "averages.json", "fits.json"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "floor" / name).read_bytes()


@pytest.mark.parametrize("small, unit", [
    pytest.param(("semicircle", "--alpha", "1e-160"),
                 ("semicircle", "--alpha", "1"), id="semicircle"),
    pytest.param(("interpolation", "--sigma0", "1e-200", "--gamma", "5e-201"),
                 ("interpolation", "--sigma0", "1", "--gamma", "0.5"),
                 id="interpolation"),
])
def test_model_energy_scale_changes_no_average(tmp_path, small, unit):
    # degeneracy and exhaustion thresholds are relative, with no absolute
    # floor: a model shrunk by 1e-160 or 1e-200 keeps every level and
    # every coefficient of its unit-scale twin
    averages = {}
    for label, flags in (("small", small), ("unit", unit)):
        out = tmp_path / label
        assert spreadq.cli.main(["model", "--variant", *flags, "--K", "40",
                                 "--tpoints", "50", "--out", str(out)]) == 0
        assert json.loads((out / "fits.json").read_text())["depth"] == 40
        averages[label] = json.loads((out / "averages.json").read_text())
    for key in ("C_bar", "F_bar"):
        assert averages["small"][key] == pytest.approx(averages["unit"][key],
                                                       rel=1e-12)


@pytest.mark.parametrize("command", [GAUSSIAN, FRM, SPIN, ("b2-table",)],
                         ids=["model", "frm", "spin", "b2-table"])
def test_tables_end_lines_with_lf(tmp_path, command):
    out = tmp_path / "run"
    assert spreadq.cli.main([*command, "--out", str(out)]) == 0
    tables = sorted(out.glob("*.csv"))
    assert tables
    for table in tables:
        assert b"\r" not in table.read_bytes(), table.name


def test_config_file_takes_times_as_a_list(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"times": [0, 0.5]}))
    out = tmp_path / "tab"
    assert spreadq.cli.main(["b2-table", "--config", str(cfg),
                             "--out", str(out)]) == 0
    data = np.loadtxt(out / "b2.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], [0.0, 0.5])


def test_out_must_be_absent_or_empty(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    frm = ["frm", "--dim", "30", "--tpoints", "20", "--out", str(out)]
    assert spreadq.cli.main([*frm, "--realizations", "3"]) == 0

    def contents():
        return {path.name: path.read_bytes() for path in out.iterdir()}

    before = contents()
    # fewer members would leave the stale member files of the first run;
    # fit would overwrite the run's own fits.json and manifest.json
    for argv in ([*frm, "--realizations", "1"],
                 ["fit", "--coeffs", str(out / "coeffs_mean.csv"),
                  "--kind", "power", "--out", str(out)]):
        assert spreadq.cli.main(argv) == 2
        assert f"--out {out} exists and is not empty" in \
            capsys.readouterr().err
        assert contents() == before


# bench/refcheck.py checks a run against exact references, rebuilding
# member 0 through the library's own entry points
REFCHECK = Path(__file__).resolve().parent.parent / "bench" / "refcheck.py"


@pytest.mark.parametrize("command", [
    pytest.param(("frm", "--dim", "64", "--realizations", "2"), id="frm"),
    pytest.param(("frm", "--dim", "64", "--realizations", "2", "--K", "16"),
                 id="frm-K"),
    pytest.param(("spin", "--L", "8", "--h", "0.4", "--realizations", "2"),
                 id="spin"),
    pytest.param(INTERPOLATION, id="model"),
])
def test_runs_pass_reference_checks(tmp_path, command):
    argv = [*command, "--seed", "1", "--out", str(tmp_path / "run")]
    assert spreadq.cli.main(argv) == 0
    proc = run_python(str(REFCHECK), *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["violations"] == []


@pytest.mark.parametrize("command, flag, value", [
    pytest.param(GAUSSIAN, "--threads", "0", id="--threads-0"),
    pytest.param(GAUSSIAN, "--seed", "-1", id="--seed--1"),
    pytest.param(GAUSSIAN, "--precision-bits", "-5",
                 id="--precision-bits--5"),
    pytest.param(GAUSSIAN, "--precision-bits", "0", id="--precision-bits-0"),
    # the closed-form variants take the exact Fraction recursion
    pytest.param(GAUSSIAN, "--precision-bits", "200",
                 id="gaussian---precision-bits-200"),
    pytest.param(INTERPOLATION, "--precision-bits", "100000",
                 id="--precision-bits-100000"),
    pytest.param(FRM, "--threads", "2", id="frm---threads-2"),
    pytest.param(SPIN, "--threads", "2", id="spin---threads-2"),
])
def test_model_rejects_unused_or_invalid_flags(tmp_path, command, flag,
                                               value):
    # frm and spin run their members in turn and take no --threads either
    proc = run_cli(*command, "--tpoints", "20", flag, value,
                   "--out", "never", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr
    assert not (tmp_path / "never").exists()


def test_model_config_rejects_threads_key(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"threads": 2}))
    proc = run_cli("model", "--config", "cfg.json", "--variant", "gaussian",
                   "--sigma0", "1", "--K", "8", "--out", "never",
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "'threads'" in proc.stderr
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("variant, scale, K", [
    # b_n^2 = n sigma0^2 overflows a float from n = 2 on
    pytest.param("gaussian", 1e154, 40, id="gaussian-sigma0-1e154"),
    # b_n^2 = alpha^2 is subnormal, then below the subnormal range
    pytest.param("semicircle", 1e-160, 40, id="semicircle-alpha-1e-160"),
    pytest.param("semicircle", 1e-170, 40, id="semicircle-alpha-1e-170"),
])
def test_model_keeps_b_n_whose_square_leaves_the_float_range(
        tmp_path, variant, scale, K):
    flag = "--alpha" if variant == "semicircle" else "--sigma0"
    out = tmp_path / "run"
    assert spreadq.cli.main(["model", "--variant", variant, flag,
                             str(scale), "--K", str(K), "--tpoints", "20",
                             "--out", str(out)]) == 0
    _, a, b = read_coeffs(out / "coeffs.csv")
    n = np.arange(1, K)
    exact = scale * (np.sqrt(n) if variant == "gaussian" else np.ones(K - 1))
    assert np.array_equal(a, np.zeros(K))
    np.testing.assert_allclose(b[1:], exact, rtol=1e-15, atol=0)


@pytest.mark.parametrize("variant, flag, value", [
    # |b_4| = 2 sigma0 overflows
    pytest.param("gaussian", "--sigma0", "1e308", id="b_n-overflow"),
    # b_n = alpha is subnormal
    pytest.param("semicircle", "--alpha", "1e-310", id="b_n-subnormal"),
    # b_n = alpha is a float, the eigenvalues of T near 2 alpha are not
    pytest.param("semicircle", "--alpha", "1e308", id="eigenvalue-overflow"),
    # the grid end 1e3 / alpha overflows
    pytest.param("semicircle", "--alpha", "1e-306", id="grid-overflow"),
])
def test_model_scale_beyond_the_float_range_exits_2(tmp_path, variant, flag,
                                                    value):
    proc = run_cli("model", "--variant", variant, flag, value, "--K", "40",
                   "--tpoints", "20", "--out", "never", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"{flag} {float(value)}" in proc.stderr
    assert "float range" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "never").exists()


def test_model_k_1_skips_peak_plateau(tmp_path):
    # a single Krylov vector never spreads: C = 0 has no plateau to scale by
    out = tmp_path / "run"
    assert spreadq.cli.main([*GAUSSIAN[:-1], "1", "--tpoints", "20",
                             "--out", str(out)]) == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["depth"] == 1
    assert "skipped" in fits["peak_plateau"]


@pytest.mark.parametrize("bits", ["8193", "16384"])
def test_precision_floor_above_8192_exits_2_without_run_directory(tmp_path,
                                                                  bits):
    # a result needs two agreeing levels, and a floor above half the
    # 16384-bit ceiling leaves room for one only: the floor is at fault
    proc = run_cli(*INTERPOLATION, "--precision-bits", bits,
                   "--tpoints", "20", "--out", "never", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "1..8192" in proc.stderr
    assert not (tmp_path / "never").exists()


def test_out_of_reach_depth_exits_2_before_building_moments(
        tmp_path, monkeypatch, capsys):
    # 12 K bits at K = 683 is 8196, above the 8192-bit start: the depth is
    # refused before its 1366 exact moments are built
    def never(*args, **kwargs):
        raise AssertionError("moments_of_model was called")

    monkeypatch.setattr(spreadq.cli, "moments_of_model", never)
    out = tmp_path / "never"
    assert spreadq.cli.main(["model", "--variant", "interpolation",
                             "--sigma0", "1", "--gamma", "0.5", "--K", "683",
                             "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: working precision floor 8196 bits leaves no second "
        "level below the ceiling of 16384 bits (at most 8192 bits)\n")
    assert not out.exists()


def test_memory_error_exits_3_without_run_directory(tmp_path, monkeypatch,
                                                    capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate the series")

    monkeypatch.setattr(spreadq.cli, "spread_series", exhausted)
    out = tmp_path / "never"
    assert spreadq.cli.main([*GAUSSIAN, "--tpoints", "20",
                             "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical error in 'model' [MemoryError]" in err
    assert not out.exists()


def test_goe_long_time_survival_matches_haar_law(tmp_path):
    # GOE eigenvectors are Haar on O(N), so u_k = <k|e_0> is a uniform unit
    # vector and F_bar = sum_k u_k^4 for one member.  With
    # D = N(N+2)(N+4)(N+6), E[u_1^4] = 3/(N(N+2)), E[u_1^8] = 105/D and
    # E[u_1^4 u_2^4] = 9/D, so
    #   E[F_bar]   = 3/(N+2),
    #   E[F_bar^2] = (N 105 + N(N-1) 9)/D = (9N+96)/((N+2)(N+4)(N+6)).
    # fits.json holds the mean of M members: within 4 sigma/sqrt(M).
    N, M = 100, 40
    out = tmp_path / "run"
    assert spreadq.cli.main(["frm", "--dim", str(N), "--realizations",
                             str(M), "--tpoints", "20",
                             "--out", str(out)]) == 0
    fits = json.loads((out / "fits.json").read_text())
    mean = 3 / (N + 2)
    var = (9 * N + 96) / ((N + 2) * (N + 4) * (N + 6)) - mean ** 2
    f_bar = fits["long_time_average"]["F_bar"]
    assert abs(f_bar - mean) <= 4 * math.sqrt(var / M)


@pytest.mark.parametrize("command", [FRM, SPIN], ids=["frm", "spin"])
def test_ensemble_config_rejects_threads_key(tmp_path, command):
    (tmp_path / "cfg.json").write_text(json.dumps({"threads": 2}))
    proc = run_cli(*command, "--config", "cfg.json", "--out", "never",
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "'threads'" in proc.stderr
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("variant, exact", [
    (["interpolation", "--sigma0", "1.2", "--gamma", "0.5"], False),
    (["gaussian", "--sigma0", "1"], True),
])
def test_model_moment_route(tmp_path, recursion_calls, variant, exact):
    # interpolation moments take only the mpmath recursion, the closed
    # forms the exact one
    code = spreadq.cli.main(["model", "--variant", *variant, "--K", "16",
                             "--tpoints", "20", "--out",
                             str(tmp_path / "run")])
    assert code == 0
    assert recursion_calls
    assert set(recursion_calls) == {exact}


# The command line imports only what it computes with: no scipy (it reaches
# LAPACK through ctypes), mpmath only for the interpolation model's
# recursion, hashlib (and OpenSSL's _hashlib) only to write a manifest or
# through numpy.random; an import of spreadq.cli takes about 0.3 s.
# That LAPACK is the OpenBLAS numpy links, so one BLAS thread pool serves
# every call: no other OpenBLAS build may be mapped into the process.
STARTUP_CHECK = """
import os
import sys
import numpy.linalg._umath_linalg
import spreadq.cli
from spreadq import _lapack
for argv in {runs!r}:
    assert spreadq.cli.main(argv) == 0, argv
assert _lapack._LIBRARY._name == numpy.linalg._umath_linalg.__file__
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        mapped = {{line.split(None, 5)[5].strip() for line in fh
                  if len(line.split(None, 5)) == 6}}
    foreign = sorted(path for path in mapped
                     if "openblas" in os.path.basename(path)
                     and os.path.basename(os.path.dirname(path))
                     != "numpy.libs")
    assert not foreign, foreign
# np.median imports numpy.ma on its first call; the grid rule avoids it
print(sorted(m for m in ("scipy.linalg", "scipy.special", "numpy.ma")
             if m in sys.modules))
print("numpy.random" in sys.modules)
print(sorted(m for m in ("_hashlib", "mpmath", "scipy") if m in sys.modules))
"""


# numpy.random is reached only by a draw: frm and spin need it, an import
# and a model run do not.  mpmath is reached only by the interpolation
# model, scipy by no command, and _hashlib by a manifest or a draw
@pytest.mark.parametrize("runs, draws, loaded", [
    pytest.param([], False, [], id="import"),
    pytest.param([[*GAUSSIAN, "--tpoints", "20", "--out", "gaussian"],
                  [*INTERPOLATION, "--tpoints", "20", "--out", "interp"]],
                 False, ["_hashlib", "mpmath"], id="model"),
    pytest.param([[*FRM, "--tpoints", "20", "--out", "frm"],
                  [*FRM, "--K", "5", "--tpoints", "20", "--out", "frm-K"],
                  [*SPIN, "--tpoints", "20", "--out", "spin"]],
                 True, ["_hashlib"], id="frm-spin"),
])
def test_cli_does_not_import_scipy_linalg_or_special(tmp_path, runs, draws,
                                                     loaded):
    proc = run_python("-c", STARTUP_CHECK.format(runs=runs), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", str(draws), str(loaded)]


# The command line retires OpenBLAS's idle workers, which would busy-wait
# after every threaded call: at the start of main (the pool numpy's import
# started) and at the end of each member's evolution.  The frm and spin
# sizes make the reduction, the eigensolve and the evolution GEMMs threaded.
RETIRE_CHECK = """
import os
import spreadq.cli
for argv in {runs!r}:
    assert spreadq.cli.main(argv) == 0, argv
    print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or _lapack._SHUTDOWN is None,
                    reason="needs /proc and OpenBLAS's blas_thread_shutdown_")
def test_runs_leave_no_blas_worker_threads(tmp_path):
    # b2-table does no dense work: only main's retire can stop the pool
    runs = [["b2-table", "--out", "b2"],
            ["frm", "--dim", "400", "--realizations", "2", "--out", "frm"],
            ["spin", "--L", "10", "--h", "0.4", "--K", "60", "--out",
             "spin-K"],
            ["model", "--variant", "gaussian", "--sigma0", "1", "--out",
             "model"]]
    proc = run_python("-c", RETIRE_CHECK.format(runs=runs), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] * len(runs)


@pytest.mark.parametrize("command, extra", [
    pytest.param(FRM, set(), id="frm"),
    pytest.param(INTERPOLATION, {"mpmath"}, id="model-interpolation"),
    pytest.param(GAUSSIAN, set(), id="model-gaussian"),
])
def test_manifest_versions_name_the_libraries_the_run_loaded(tmp_path,
                                                             command, extra):
    proc = run_cli(*command, "--tpoints", "20", "--out", "run", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert set(manifest["versions"]) == {"python", "spreadq", "numpy"} | extra
    assert manifest["versions"]["spreadq"] == spreadq.__version__
    assert "scipy" not in json.dumps(manifest)
    # GEMM results follow the BLAS thread width, so the manifest names it
    threads = manifest["blas_threads"]
    if _lapack._THREADS is None:
        assert threads is None
    else:
        assert isinstance(threads, int) and threads >= 1
