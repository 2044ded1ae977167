"""End-to-end command-line behavior, exercised in process through main()."""

import hashlib
import json
import math

import numpy as np
import pytest

from extremal_lab import cli
from extremal_lab.critical import GridSpec, PolishedZero, ScanCell, ScanReport

EXPECTED_RECORD_NAMES = [
    "energy identity residual",
    "variance coefficient recovery",
    "one-point critical parameter",
    "one-point line/exceptional ratio",
    "two-point critical parameter",
    "two-point line/exceptional ratio",
    "two-point 3 * normalized energy",
    "two-point trace-free Ricci deficit",
    "anti-canonical normalized energy",
    "2 chi + 3 tau (k=1)",
    "2 chi + 3 tau (k=2)",
    "2 chi + 3 tau (k=3)",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- verify -------------------------------------------------------------------

def test_verify_table_passes(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2 + len(EXPECTED_RECORD_NAMES)
    assert lines[0].startswith("record")
    for line in lines[2:]:
        assert line.endswith("pass")


def test_verify_json_records(capsys):
    code, out, err = run(capsys, "verify", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["name"] for r in records] == EXPECTED_RECORD_NAMES
    for r in records:
        assert set(r) == {"name", "expected", "computed", "abs_error",
                          "tolerance", "pass"}
        assert r["pass"] is True


def test_verify_csv_header_and_rows(capsys):
    code, out, err = run(capsys, "verify", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,expected,computed,abs_error,tolerance,pass"
    assert len(lines) == 1 + len(EXPECTED_RECORD_NAMES)
    for line in lines[1:]:
        assert line.endswith("true")


def test_verify_exact_records_report_zero_error(capsys):
    code, out, err = run(capsys, "verify", "--format", "json")
    by_name = {r["name"]: r for r in json.loads(out)}
    assert by_name["energy identity residual"]["computed"] == "0"
    assert by_name["variance coefficient recovery"]["computed"] == "276"
    assert by_name["anti-canonical normalized energy"]["computed"] == "2"
    for k, expected in ((1, "8"), (2, "7"), (3, "6")):
        rec = by_name[f"2 chi + 3 tau (k={k})"]
        assert rec["computed"] == expected
        assert rec["abs_error"] == "0"


def test_verify_detects_injected_fault(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_FAULT, "1")
    code, out, err = run(capsys, "verify", "--format", "json")
    assert code == 1
    by_name = {r["name"]: r for r in json.loads(out)}
    identity = by_name["energy identity residual"]
    assert identity["pass"] is False
    assert "nonzero" in identity["computed"]
    recovery = by_name["variance coefficient recovery"]
    assert recovery["pass"] is False
    assert recovery["computed"] == "inconsistent system"
    assert recovery["abs_error"] is None
    untouched = [r for r in json.loads(out)
                 if r["name"] not in (identity["name"], recovery["name"])]
    assert all(r["pass"] for r in untouched)


def test_verify_out_writes_file(capsys, tmp_path):
    path = tmp_path / "records.txt"
    code, out, err = run(capsys, "verify", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("record")


def test_verify_rejects_low_digits(capsys):
    code, out, err = run(capsys, "verify", "--digits", "4")
    assert code == 2
    assert "--digits" in err


def test_digits_cap_boundary(capsys):
    code, out, err = run(capsys, "critical", "--k", "1", "--digits", str(cli.MAX_DIGITS))
    assert code == 0
    assert "local-min" in out
    for argv in (("critical", "--k", "1"), ("verify",)):
        code, out, err = run(capsys, *argv, "--digits", str(cli.MAX_DIGITS + 1))
        assert code == 2
        assert err.startswith("error:") and "--digits" in err


# -- energy -------------------------------------------------------------------

def test_energy_anticanonical_table(capsys):
    code, out, err = run(capsys, "energy", "--k", "3", "--alpha", "1", "--beta", "1")
    assert code == 0
    assert "192 pi^2" in out
    lines = [l for l in out.splitlines() if l.startswith("normalized")]
    assert lines and lines[0].split()[1] == "2"


def test_energy_anticanonical_json(capsys):
    code, out, err = run(capsys, "energy", "--k", "3", "--alpha", "1",
                         "--beta", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["k"] == 3
    assert (payload["alpha"], payload["beta"], payload["delta"]) == ("1", "1", "0")
    assert payload["futaki_term"]["pi2_multiple"] == "0"
    assert payload["total"]["pi2_multiple"] == "192"
    assert payload["total"]["value"] == pytest.approx(192 * math.pi ** 2)
    assert payload["normalized"]["exact"] == "2"
    assert payload["normalized"]["value"] == pytest.approx(2.0)


def test_energy_two_point_values(capsys):
    code, out, err = run(capsys, "energy", "--k", "2", "--beta", "1",
                         "--delta", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] is None
    assert payload["average_term"]["pi2_multiple"] == "224"
    assert payload["futaki_term"]["pi2_multiple"] == "1792/409"
    assert payload["total"]["pi2_multiple"] == "93408/409"
    assert payload["normalized"]["exact"] == "973/409"


def test_energy_one_point_values(capsys):
    code, out, err = run(capsys, "energy", "--k", "1", "--alpha", "1",
                         "--delta", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] is None
    assert payload["normalized"]["exact"] == "37/13"


def test_energy_accepts_rational_flags(capsys):
    code, out, err = run(capsys, "energy", "--k", "3", "--alpha", "1/2",
                         "--beta", "3/4", "--format", "json")
    assert code == 0
    assert json.loads(out)["alpha"] == "1/2"


def test_energy_rejects_non_kahler_class(capsys):
    code, out, err = run(capsys, "energy", "--k", "3", "--alpha", "2",
                         "--beta", "0", "--delta", "1")
    assert code == 2
    assert "not Kahler" in err
    assert "E2" in err


def test_energy_rejects_degenerate_class(capsys):
    code, out, err = run(capsys, "energy", "--k", "3", "--alpha", "1", "--beta", "0")
    assert code == 2
    assert "not Kahler" in err


def test_energy_flag_rules(capsys):
    code, _, err = run(capsys, "energy", "--k", "3", "--alpha", "1")
    assert code == 2 and "k=3 takes" in err
    code, _, err = run(capsys, "energy", "--k", "2", "--beta", "1", "--alpha", "1")
    assert code == 2 and "k=2 takes" in err
    code, _, err = run(capsys, "energy", "--k", "1", "--alpha", "1", "--beta", "1")
    assert code == 2 and "k=1 takes" in err


# -- critical -----------------------------------------------------------------

def test_critical_one_point_json(capsys):
    code, out, err = run(capsys, "critical", "--k", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["refined_root"] == "2.18393340447"
    assert payload["classification"] == "local-min"
    assert payload["line_to_exceptional_ratio"] == "3.18393340447"
    assert payload["root_count"] == 1
    assert payload["search_bound"] == "10000"


def test_critical_two_point_json(capsys):
    code, out, err = run(capsys, "critical", "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["refined_root"] == "0.957712805188"
    assert payload["line_to_exceptional_ratio"] == "2.95771280519"
    assert payload["normalized_energy"] == "2.37882482354"
    assert payload["three_times_normalized"] == "7.13647447062"
    assert payload["residual"] == "0.136474470623"


def test_critical_deep_json_is_pinned(capsys):
    # sha256 of the output as plain bisection refined it; any change to
    # refinement that moves the 310-digit bracket changes these bytes
    code, out, err = run(capsys, "critical", "--k", "2", "--digits", "310",
                         "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b3a68bfe9fc272dd59671a9f680fc7983b67ec5db1865e331ac4ae4edf81d19d")


def test_critical_table_lists_certificates(capsys):
    code, out, err = run(capsys, "critical", "--k", "2")
    assert code == 0
    assert "trace-free Ricci deficit" in out
    assert "derivative roots in domain" in out


def test_critical_three_point_is_refused(capsys):
    code, out, err = run(capsys, "critical", "--k", "3")
    assert code == 2
    assert "scan3" in err


# -- scan3 --------------------------------------------------------------------

def test_scan3_csv_artifact(capsys, tmp_path):
    path = tmp_path / "cells.csv"
    code, out, err = run(capsys, "scan3", "--grid", "8", "--format", "csv",
                         "--out", str(path))
    assert code == 0
    lines = path.read_text().split("\n")
    assert lines[0] == "alpha,delta,value,grad_norm"
    assert lines[-1] == ""
    rows = lines[1:-1]
    assert len(rows) == 64
    first_alpha = rows[0].split(",")[0]
    assert all(r.split(",")[0] == first_alpha for r in rows[:8])
    assert rows[8].split(",")[0] != first_alpha
    assert f"wrote {path} (64 rows)" in out
    assert "global minimum" in out


def test_scan3_json_artifact(capsys, tmp_path):
    path = tmp_path / "cells.json"
    code, out, err = run(capsys, "scan3", "--grid", "8", "--format", "json",
                         "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["grid"]["alpha_count"] == 8
    assert "backend" not in payload
    gm = payload["global_min"]
    assert (gm["alpha"], gm["delta"], gm["value"]) == (1.0, 0.0, 2.0)
    assert gm["boundary"] is True
    assert len(payload["cells"]) == 64
    assert len(payload["minima"]) == 1
    assert payload["interior_zeros"] == []


def test_scan3_table_summary(capsys):
    code, out, err = run(capsys, "scan3", "--grid", "8")
    assert code == 0
    assert "global minimum" in out
    assert "strict local minima: 1" in out
    assert "interior gradient zeros (delta > 0): none" in out


def test_scan3_is_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "scan3", "--grid", "10", "--format", "csv", "--out", str(p1))
    run(capsys, "scan3", "--grid", "10", "--format", "csv", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_scan3_usage_errors(capsys):
    assert run(capsys, "scan3", "--grid", "1")[0] == 2
    assert run(capsys, "scan3", "--alpha-min", "0")[0] == 2
    assert run(capsys, "scan3", "--delta-max", "0")[0] == 2


@pytest.mark.parametrize("argv, flag", [
    (("--alpha-max", "inf"), "--alpha-max"),
    (("--alpha-min", "nan"), "--alpha-min"),
    (("--delta-max", "nan"), "--delta-max"),
    (("--delta-max", "1e300"), "--delta-max"),
])
def test_scan3_refuses_non_finite_windows(capsys, tmp_path, argv, flag):
    path = tmp_path / "cells.csv"
    code, out, err = run(capsys, "scan3", "--grid", "8", *argv,
                         "--format", "csv", "--out", str(path))
    assert code == 2
    assert err.startswith("error:") and flag in err
    assert "Traceback" not in err
    assert out == ""
    assert not path.exists()


def test_scan3_grid_cap_refused_before_scanning(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran for an over-cap grid")

    monkeypatch.setattr(cli.critical, "scan_three_point", no_scan)
    code, out, err = run(capsys, "scan3", "--grid", str(cli.MAX_GRID + 1))
    assert code == 2
    assert err.startswith("error:") and "--grid" in err


# -- scan3 export streaming ------------------------------------------------------
#
# The exporters write one alpha row at a time.  These oracles are the earlier
# string-building exporters, kept to pin the layout byte for byte.

def _oracle_scan_csv(report) -> str:
    digits = report.digits
    lines = ["alpha,delta,value,grad_norm"]
    for a, d, v, g in report.cells:
        lines.append(f"{a:.{digits}g},{d:.{digits}g},{v:.{digits}g},{g:.{digits}g}")
    return "\n".join(lines) + "\n"


def _oracle_scan_json(report) -> str:
    g = report.grid
    payload = {
        "grid": {
            "alpha_min": g.alpha_min, "alpha_max": g.alpha_max,
            "alpha_count": g.alpha_count, "alpha_spacing": g.alpha_spacing,
            "delta_min": g.delta_min, "delta_max": g.delta_max,
            "delta_count": g.delta_count, "delta_spacing": g.delta_spacing,
        },
        "digits": report.digits,
        "global_min": cli._cell_payload(report.global_min),
        "minima": [cli._cell_payload(c) for c in report.minima],
        "interior_zeros": [
            {"cell": cli._cell_payload(z.cell), "alpha": z.alpha, "delta": z.delta,
             "grad_norm": z.grad_norm, "converged": z.converged,
             "iterations": z.iterations}
            for z in report.interior_zeros
        ],
        "cells": [list(row) for row in report.cells],
    }
    return json.dumps(payload, indent=2) + "\n"


#: floats whose repr or %g form is easy to get wrong
AWKWARD_FLOATS = (-0.0, 5e-324, 1e16, 1e-7, 2.0)


def _hand_built_report(na: int, nd: int, digits: int, seed: int) -> ScanReport:
    rng = np.random.default_rng(seed)
    alphas = np.sort(rng.uniform(0.05, 20.0, na))
    alphas[0] = 1e-7
    deltas = np.linspace(0.0, 10.0, nd)
    deltas[0] = -0.0
    values = rng.uniform(-1e3, 1e3, (na, nd)) * 10.0 ** rng.integers(-30, 30, (na, nd))
    grad_norms = rng.uniform(0.0, 5.0, (na, nd))
    # every shape, 2x2 included, gets each awkward float in a value or gradient cell
    k = min(values.size, len(AWKWARD_FLOATS))
    values.ravel()[:k] = AWKWARD_FLOATS[:k]
    grad_norms.ravel()[-k:] = AWKWARD_FLOATS[::-1][:k]

    def cell(i, j):
        return ScanCell(i=i, j=j, alpha=float(alphas[i]), delta=float(deltas[j]),
                        value=float(values[i, j]), grad_norm=float(grad_norms[i, j]),
                        boundary=j == 0)

    minima = (cell(0, 0), cell(na - 1, nd - 1), cell(na // 2, 1))
    zeros = (PolishedZero(cell=cell(1, 1), alpha=1.0000000000000002, delta=5e-324,
                          grad_norm=1e-16, converged=True, iterations=3),
             PolishedZero(cell=cell(0, nd - 1), alpha=-0.0, delta=1e16,
                          grad_norm=2.0, converged=False, iterations=40))
    grid = GridSpec(alpha_min=float(alphas[0]), alpha_max=float(alphas[-1]),
                    alpha_count=na, alpha_spacing="geometric",
                    delta_min=0.0, delta_max=10.0, delta_count=nd,
                    delta_spacing="linear")
    return ScanReport(grid=grid, alphas=alphas, deltas=deltas, values=values,
                      grad_norms=grad_norms, minima=minima, global_min=minima[0],
                      interior_zeros=zeros, digits=digits)


@pytest.mark.parametrize("digits", [6, 17])
@pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (5, 7)])
def test_streamed_exports_match_string_oracle(tmp_path, shape, digits):
    report = _hand_built_report(*shape, digits=digits, seed=shape[0] * 10 + shape[1])
    for name, write, oracle in (("cells.csv", cli._scan_csv, _oracle_scan_csv),
                                ("cells.json", cli._scan_json, _oracle_scan_json)):
        path = tmp_path / name
        with open(path, "w", newline="\n") as fh:
            write(report, fh)
        assert path.read_bytes() == oracle(report).encode()
    payload = json.loads((tmp_path / "cells.json").read_text())
    assert len(payload["interior_zeros"]) == 2 and len(payload["minima"]) == 3


# sha256 of the exports as the string-building exporters wrote them
SCAN3_EXPORT_SHA256 = {
    ("csv", ()): "fbbaee4afbf88c4246a2aa03046f5f0eae1cfb3fee1124866cf4a6824163cff3",
    ("json", ()): "83efbb55894121eb948e8bebd686fe8ced3074c5f0d9921761f812ed662fb96f",
    ("csv", "seeded"): "1ca5038c10d98759ba41f75b1164c44231c2d60f7452d1a4d0485f9f7cf27176",
    ("json", "seeded"): "c41fae63eae05b1f96655975b3910773e7038087cfd08da67cb493c5b5287a50",
}
#: a window drawn like the benchmark's seeded scan windows
SEEDED_WINDOW = ("--alpha-min", "0.3303", "--alpha-max", "16.13", "--delta-max", "8.362")


@pytest.mark.parametrize("fmt, window", list(SCAN3_EXPORT_SHA256))
def test_scan3_exports_are_pinned(capsys, tmp_path, fmt, window):
    path = tmp_path / f"cells.{fmt}"
    argv = SEEDED_WINDOW if window else ()
    code, out, err = run(capsys, "scan3", "--grid", "37", *argv, "--format", fmt,
                         "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCAN3_EXPORT_SHA256[fmt, window]


# -- parser -------------------------------------------------------------------

def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy"])
    assert exc.value.code == 2


def test_bad_rational_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", "--k", "1", "--alpha", "x"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("extremal-lab")
