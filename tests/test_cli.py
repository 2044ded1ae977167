"""End-to-end command-line behavior, exercised in process through main()."""

import collections
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from extremal_lab import cli, delpezzo, energy, scan
from extremal_lab.exactpoly import Polynomial
from extremal_lab.scan import GridSpec, ScanCell, ScanReport

from scan_blocks import _blas_is_openblas, _one_buffer_blocks, _whole_grids

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
    # perturb the displayed sextic; the blow-downs drop this beta^4 alpha delta
    # term, so the one- and two-point records stay untouched
    numerator, variance = energy._sextic_polynomials()
    bad = numerator + Polynomial(("alpha", "beta", "delta"), {(1, 4, 1): Fraction(1)})
    monkeypatch.setattr(energy, "_sextic_polynomials", lambda: (bad, variance))
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
    # the table and csv spell the missing error and the verdict their own way
    code, out, err = run(capsys, "verify")
    assert code == 1
    assert re.search(r"^variance coefficient recovery +276 +inconsistent system +- +0 +FAIL$",
                     out, re.M)
    code, out, err = run(capsys, "verify", "--format", "csv")
    assert code == 1
    assert "\nvariance coefficient recovery,276,inconsistent system,,0,false\n" in out


@pytest.mark.parametrize("typed", [267, 300])
def test_verify_recovers_276_from_a_mistyped_variance_table(capsys, monkeypatch, typed):
    numerator, variance = energy._sextic_polynomials()
    bad = variance + Polynomial(("alpha", "beta", "delta"), {(1, 4, 1): typed - 276})
    monkeypatch.setattr(energy, "_sextic_polynomials", lambda: (numerator, bad))
    code, out, err = run(capsys, "verify", "--format", "json")
    assert code == 1
    by_name = {r["name"]: r for r in json.loads(out)}
    assert by_name["energy identity residual"]["pass"] is False
    recovery = by_name["variance coefficient recovery"]
    assert recovery["pass"] is True
    assert recovery["computed"] == "276"


def test_verify_builds_the_identity_residual_once(capsys, monkeypatch):
    # w^2 N is one of the residual's three terms, so each build multiplies by N once
    products = []
    mul = Polynomial.__mul__
    numerator = energy._sextic_polynomials()[0]

    def counting_mul(self, other):
        products.append(other is numerator)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert products.count(True) == 1


def test_verify_out_writes_file(capsys, tmp_path):
    path = tmp_path / "records.txt"
    code, out, err = run(capsys, "verify", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("record")
    # an empty --out means stdout, as an absent one does
    code, out, err = run(capsys, "verify", "--out", "")
    assert code == 0 and out.startswith("record")


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


def _count_calls(fn, action) -> int:
    """Calls of `fn`'s code while `action()` runs, whatever name reached it."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is fn.__code__:
            calls += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("argv, code", [
    (("--k", "3", "--alpha", "1", "--beta", "1"), 0),
    (("--k", "2", "--beta", "1", "--delta", "2"), 0),
    (("--k", "1", "--alpha", "3", "--delta", "1"), 0),
    (("--k", "3", "--alpha", "2", "--beta", "0", "--delta", "1"), 2),
    (("--k", "2", "--beta", "0", "--delta", "1"), 2),
])
def test_energy_checks_kahler_membership_once(capsys, argv, code):
    codes = []
    calls = _count_calls(delpezzo.kahler_violation,
                         lambda: codes.append(cli.main(["energy", *argv])))
    capsys.readouterr()
    assert codes == [code] and calls == 1
    assert _count_calls(delpezzo.kahler_violation,
                        lambda: energy.energy_composed(1, 1, 0)) == 1


#: slice-coordinate texts of the refusal sweep; None leaves the flag out
SWEEP_VALUES = ("-1", "0", "1", "2", "1/2", "-1/2", None)
# sha256 over the stdout, stderr and exit code of every table-format energy
# invocation of the sweep, captured before the slice-to-class map moved into
# delpezzo.slice_class and retaken when k = 1 and k = 2 came to require
# --delta, which changed only refusals there; it pins each Kahler refusal
# message and flag error
ENERGY_SWEEP_SHA256 = "e0492445b943241ade4b2798aaf0225801e4082c92e5f681513d82eb42cc9877"


def test_energy_sweep_is_pinned(capsys):
    digest = hashlib.sha256()
    count = 0
    for k in ("1", "2", "3"):
        for alpha, beta, delta in itertools.product(SWEEP_VALUES, repeat=3):
            argv = ["energy", f"--k={k}"]
            argv += [f"--{flag}={text}" for flag, text in
                     (("alpha", alpha), ("beta", beta), ("delta", delta)) if text is not None]
            code, out, err = run(capsys, *argv, "--format=table")
            digest.update(f"{' '.join(argv)}\0{code}\0{out}\0{err}\0".encode())
            count += 1
    assert count == 1029
    assert digest.hexdigest() == ENERGY_SWEEP_SHA256


@pytest.mark.parametrize("argv, code", [
    (("--k", "3", "--alpha", "1", "--beta", "1", "--delta", "-1/2"), 0),
    (("--k", "3", "--alpha", "2e5", "--beta", "2e5", "--delta", "-1e5", "--format", "json"), 0),
    (("--k", "3", "--alpha", "-1/3", "--beta", "-.5", "--delta", "1"), 2),  # not Kahler
    (("--k", "1", "--alpha", "1", "--delta", "-1/2"), 2),
    (("--k", "2", "--beta", "3", "--delta", "-1e5"), 2),
    (("--k", "1", "--alpha", "-1/0"), 2),  # not a rational
])
def test_negative_rational_flags_take_the_space_form(capsys, argv, code):
    joined = []
    for token in argv:
        if joined and joined[-1] in ("--alpha", "--beta", "--delta") and token.startswith("-"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    assert len(joined) < len(argv)
    results = []
    for form in (argv, joined):
        try:
            status = cli.main(["energy", *form])
        except SystemExit as exc:
            status = exc.code
        results.append((status, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == code


def test_a_flag_after_a_rational_flag_is_still_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", "--delta", "--k", "1", "--alpha", "1"])
    assert exc.value.code == 2
    assert "argument --delta: expected one argument" in capsys.readouterr().err


def test_a_malformed_rational_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", "--k", "3", "--alpha", "1ex", "--beta", "1"])
    assert exc.value.code == 2
    assert "argument --alpha: not a rational number: '1ex'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unrecognized", [
    (("energy", "--k", "3", "--alpha", "1", "--beta", "1", "--del", "-1/2"), "--del -1/2"),
    (("energy", "--k", "3", "--alpha", "1", "--beta", "1", "--del=-1/2"), "--del=-1/2"),
    (("verify", "--dig", "12"), "--dig 12"),
])
def test_abbreviated_flags_are_refused(capsys, argv, unrecognized):
    # every flag is spelled in full, so both spellings of --del fail alike
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {unrecognized}\n")


def test_energy_flag_rules(capsys):
    code, _, err = run(capsys, "energy", "--k", "3", "--alpha", "1")
    assert code == 2 and "k=3 takes" in err
    code, _, err = run(capsys, "energy", "--k", "2", "--beta", "1", "--alpha", "1")
    assert code == 2 and "k=2 takes" in err
    code, _, err = run(capsys, "energy", "--k", "1", "--alpha", "1", "--beta", "1")
    assert code == 2 and "k=1 takes" in err
    # delta = 0 is never Kahler at k = 1 or 2, so there --delta has no default
    code, _, err = run(capsys, "energy", "--k", "1", "--alpha", "1")
    assert (code, err) == (2, "error: k=1 takes --alpha and --delta (no --beta)\n")
    code, _, err = run(capsys, "energy", "--k", "2", "--beta", "1")
    assert (code, err) == (2, "error: k=2 takes --beta and --delta (no --alpha)\n")


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
    # sha256 of the output as bisection refined it from the float Newton
    # proposal's bracket, once exact signs accepted it; any change to
    # refinement that moves the 310-digit bracket changes these bytes
    code, out, err = run(capsys, "critical", "--k", "2", "--digits", "310",
                         "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b3a68bfe9fc272dd59671a9f680fc7983b67ec5db1865e331ac4ae4edf81d19d")


# a start for mpmath's root search, from PAPER.md
CRITICAL_SEEDS = {1: "2.18393340447", 2: "0.957712805188"}


@pytest.mark.parametrize("digits", [38, 89, 110, 310])
@pytest.mark.parametrize("k", [1, 2])
def test_critical_digits_bound_the_error_in_last_places(capsys, k, digits):
    # --digits N prints the midpoint of a bracket no wider than 10^(e - N),
    # rounded half away from zero: within 0.55 units in the last place, but
    # not always the correctly rounded value (k = 2 at 38 digits and k = 1 at
    # 89 and 110 are one unit off)
    mpmath = pytest.importorskip("mpmath")
    code, out, err = run(capsys, "critical", "--k", str(k), "--digits", str(digits),
                         "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    f = energy.one_point_energy() if k == 1 else energy.two_point_energy()
    g = f.derivative_numerator(payload["variable"])
    with mpmath.workdps(digits + 30):
        coefficients = [mpmath.mpf(c.numerator) / c.denominator for c in (
            Fraction(g.terms.get((i,), 0)) for i in range(max(g.terms)[0], -1, -1))]
        root = mpmath.findroot(lambda t: mpmath.polyval(coefficients, t),
                               mpmath.mpf(CRITICAL_SEEDS[k]))
        eps = mpmath.mpf(10) ** -(digits + 10)
        assert mpmath.polyval(coefficients, root - eps) < 0 < mpmath.polyval(coefficients, root + eps)
        for key, exact in (("refined_root", root), ("line_to_exceptional_ratio", root + k)):
            printed = payload[key]
            ulp = mpmath.mpf(10) ** (Decimal(printed).adjusted() - digits + 1)
            assert abs(mpmath.mpf(printed) - exact) <= mpmath.mpf("0.55") * ulp, key


# sha256 of the exact subcommands' output, captured before the test-only API,
# the ratio_offset option and the separate --out writers were removed
EXACT_OUTPUT_SHA256 = {
    ("verify", "--digits", "12", "--format", "table"):
        "a2eeb38c24b1af70edd0b25cf7f57806a912fc8f6e9f531bc3b3392be9034029",
    ("verify", "--digits", "12", "--format", "json"):
        "c7b072013ed5584a2fede65453c14712fd7aa160a20fc649403e1a957c5e0398",
    ("verify", "--digits", "12", "--format", "csv"):
        "cb09db019e3469d9f82861021e435be41d4e735310cad95d77ed43d69c778b91",
    ("verify", "--digits", "100", "--format", "table"):
        "623cc9d471f35d15e761d4484592e95d2574225bdfeb5df11b85f279c40932da",
    ("verify", "--digits", "100", "--format", "json"):
        "5d88c6f162c774f4bc84156121e168ea4524c6a6ac320728aec7da620c0494d5",
    ("verify", "--digits", "100", "--format", "csv"):
        "ba51b8261e26b5b10efb0efafe8a856106cd3dab8996560e06d54cf90d7570cd",
    ("energy", "--k", "1", "--alpha", "3", "--delta", "1", "--format", "table"):
        "30652342b08af3a91e0236d0abb9ae943cfe0cfee05a58c8e77360d3b8cc371a",
    ("energy", "--k", "1", "--alpha", "3", "--delta", "1", "--format", "json"):
        "d565e663d58a791760b8962404f9adaeb3ac6d0305778a11f64724f43bd4237c",
    ("energy", "--k", "1", "--alpha", "3", "--delta", "1", "--format", "csv"):
        "f896898107af17b6b2e7537969e38ac03d35c880a9e9d763c9e81aecaed8736d",
    ("energy", "--k", "2", "--beta", "1", "--delta", "2", "--format", "table"):
        "d69d44f1e4152882339649d90f9027cc5641c2d1f58121cc16dbb36163ee0bd4",
    ("energy", "--k", "2", "--beta", "1", "--delta", "2", "--format", "json"):
        "84b2bafd2c6570812d7140d3c34a69f17f1b8bba006c9cbf593d00371d3e3773",
    ("energy", "--k", "2", "--beta", "1", "--delta", "2", "--format", "csv"):
        "4386738c8dbd5df9d3e6e9d499d192bbe360068d067873622b56e473bef612c1",
    ("energy", "--k", "3", "--alpha", "1/2", "--beta", "1", "--delta", "3", "--format", "table"):
        "910451138db6ad1d6f30cb611e43af50418c82ea4fec276783a3cd906469f2e9",
    ("energy", "--k", "3", "--alpha", "1/2", "--beta", "1", "--delta", "3", "--format", "json"):
        "21c624bd595e698b09353b8c4327752a2553d5c6e5cbf65652fd698bbbe8a202",
    ("energy", "--k", "3", "--alpha", "1/2", "--beta", "1", "--delta", "3", "--format", "csv"):
        "4198a1fa6f7e1740a245e892505ef94352ce3e10e3092c97808a867221f4764a",
    ("critical", "--k", "1", "--digits", "12", "--format", "table"):
        "1efc36c8d22ae187bba24fa8aedaa5b752112d450a59cdf10aa256cee673b5ff",
    ("critical", "--k", "1", "--digits", "12", "--format", "csv"):
        "7a9b2c9969a282801809c732e3535d943ddf2c582044650f3295578c9a16280c",
    ("critical", "--k", "2", "--digits", "12", "--format", "table"):
        "20ea794b5a251a2427bc11ce9a2f1e389a7f539894cbd6905ca5d45fb9e1b120",
    ("critical", "--k", "2", "--digits", "12", "--format", "csv"):
        "9eae11a9f75047cbb4cee84e5818f266208d091ac46c21ae431460995b365a16",
    # deep pins, captured before the critical reports dropped their decimal
    # strings and the CLI began rendering every decimal itself
    ("critical", "--k", "1", "--digits", "580", "--format", "json"):
        "1da741d3facd8f71692ad078be5fd7e5a3d486357b7274c12858245f8d3e6cb1",
    ("critical", "--k", "1", "--digits", "420", "--format", "table"):
        "0ccb8cd63f1c3a5a696843816327ae6af1d6326544cea47d5ed2932e1fa39351",
    ("critical", "--k", "2", "--digits", "370", "--format", "csv"):
        "4749502a3e556962c01db3c408e4da3bbaebd10ff47ab44ecbe3cebe3cc3abce",
    ("verify", "--digits", "270", "--format", "json"):
        "3799dbf18abf178566b4e761150f2fd2d9d020374dca00817e4687d0b7f4814c",
}


@pytest.mark.parametrize("argv", list(EXACT_OUTPUT_SHA256))
def test_exact_outputs_are_pinned(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_OUTPUT_SHA256[argv]
    # --out holds the same bytes
    path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXACT_OUTPUT_SHA256[argv]


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


#: a window at the (1, 0) corner where interior cells have a float gradient
#: norm below 1e-9, though no gradient zero has delta > 0
BOUNDARY_WINDOW = ("--grid", "50", "--alpha-min", "0.999", "--alpha-max", "1.001",
                   "--delta-max", "1e-7")


def test_scan3_polish_onto_the_boundary_is_no_interior_zero(capsys, tmp_path):
    code, out, err = run(capsys, "scan3", *BOUNDARY_WINDOW)
    assert code == 0
    assert "interior gradient zeros (delta > 0): none" in out
    path = tmp_path / "cells.json"
    code, out, err = run(capsys, "scan3", *BOUNDARY_WINDOW, "--format", "json",
                         "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["interior_zeros"] == []
    # the grid alone would suggest interior zeros; the summary rests on the
    # exact certificate in test_critical.py instead
    assert any(d > 0 and g < 1e-9 for _, d, _, g in payload["cells"])


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


@pytest.mark.parametrize("argv, axis", [
    (("--delta-max", "5e-324"), "delta"),
    (("--alpha-min", "0.5", "--alpha-max", "0.5000000000000001"), "alpha"),
])
def test_scan3_refuses_repeated_grid_nodes(capsys, argv, axis):
    # the default window at five cells reports its one strict minimum; a
    # window whose nodes repeat would report none, and is refused instead
    assert "strict local minima: 1\n" in run(capsys, "scan3", "--grid", "5")[1]
    code, out, err = run(capsys, "scan3", "--grid", "5", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: the {axis} grid nodes repeat") and err.count("\n") == 1


@pytest.mark.parametrize("alpha_max, code", [("1e30", 0), ("1e55", 2)])
def test_scan3_overflow_edge_in_alpha(capsys, alpha_max, code):
    # each kernel table holds only the powers of alpha it has terms for, at
    # most alpha^6, which overflows near 1e51: a window reaching 1e30 scans,
    # where square 12x12 gradient tables reached alpha^11, overflowed near
    # 1e28 and made NaN of 0 * inf; a window reaching 1e55 is refused
    got, out, err = run(capsys, "scan3", "--grid", "50", "--alpha-max", alpha_max)
    assert got == code
    if code:
        assert out == ""
        assert err == ("error: the scan overflows float64 on this window; "
                       "lower --alpha-max or --delta-max\n")
    else:
        assert err == "" and "nan" not in out


def test_scan3_grid_cap_refused_before_scanning(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran for an over-cap grid")

    monkeypatch.setattr(scan, "scan_three_point", no_scan)
    code, out, err = run(capsys, "scan3", "--grid", str(cli.MAX_GRID + 1))
    assert code == 2
    assert err.startswith("error:") and "--grid" in err


#: range-flag texts: finite, huge, tiny, zero, negative and non-finite
RANGE_TEXTS = ("0.05", "1", "2.5", "20", "1e-300", "1e150", "1e308", "1e999",
               "0", "-0", "-1", "-1e308", "inf", "-inf", "nan")
NON_FINITE_WORD = re.compile(r"\b-?(nan|inf)\b", re.IGNORECASE)


def _assert_exits_cleanly(argv, codes=(0, 2)):
    """Run main(argv): the exit code is in `codes`, stderr holds no traceback,
    exit 0 prints no nan/inf word and exit 2 prints nothing to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    assert code in codes, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not NON_FINITE_WORD.search(out.getvalue()), (argv, out.getvalue())
    elif code == 2:
        assert out.getvalue() == ""


def _argv(command, flags):
    return [*command, *(text for flag_and_value in flags.items() for text in flag_and_value)]


@settings(deadline=None, max_examples=100)
@given(grid=st.sampled_from((*range(-5, 41), cli.MAX_GRID, cli.MAX_GRID + 1)),
       flags=st.fixed_dictionaries({}, optional={
           flag: st.sampled_from(RANGE_TEXTS)
           for flag in ("--alpha-min", "--alpha-max", "--delta-max")}))
def test_scan3_flag_space_exits_cleanly(grid, flags):
    _assert_exits_cleanly(_argv(("scan3", "--grid", str(grid)), flags))


#: rational-flag texts: integers, fractions, decimals and exponents that parse,
#: then ones past the length cap, zero and negative classes and non-rationals
GOOD_RATIONALS = ("1", "2", "1/3", "7/2", "3.25", "1e-7", "1e190", "1e-190", "1e195")
BAD_RATIONALS = ("0", "0/5", "-1", "-1/2", "1e2000", "7" * (cli.MAX_RATIONAL_DIGITS + 1),
                 "1/0", "nan", "inf", "x", "")
DIGITS_TEXTS = ("-3", "5", "6", "12", "40", str(cli.MAX_DIGITS), str(cli.MAX_DIGITS + 1), "x")
COMMON_FLAGS = {"--digits": st.sampled_from(DIGITS_TEXTS),
                "--format": st.sampled_from(("table", "json", "csv", "xml"))}
#: the rational flags that give each --k a Kahler class; --delta is optional
#: for k = 3 only, since its default 0 degenerates the k = 1 and k = 2 classes
ENERGY_FLAGS = {"1": {"--alpha", "--delta"}, "2": {"--beta", "--delta"},
                "3": {"--alpha", "--beta"}}


@settings(deadline=None, max_examples=300)
@given(k=st.sampled_from(("1", "2", "3", "0", "x")),
       rationals=st.fixed_dictionaries({
           flag: st.sampled_from(GOOD_RATIONALS) | st.sampled_from(BAD_RATIONALS)
           for flag in ("--alpha", "--beta", "--delta")}),
       toggled=st.sets(st.sampled_from(("--alpha", "--beta", "--delta")), max_size=2),
       common=st.fixed_dictionaries({}, optional=COMMON_FLAGS))
# classes whose float column overflows, which random draws rarely reach
@example(k="1", rationals={"--alpha": "1e195", "--beta": "1", "--delta": "1e-190"},
         toggled=set(), common={})
@example(k="3", rationals={"--alpha": "1e190", "--beta": "1e-190", "--delta": "1e-190"},
         toggled={"--delta"}, common={"--format": "json"})
def test_energy_flag_space_exits_cleanly(k, rationals, toggled, common):
    # the flags this --k takes, with those in `toggled` added or left out
    present = ENERGY_FLAGS.get(k, set()) ^ toggled
    flags = {flag: text for flag, text in rationals.items() if flag in present}
    _assert_exits_cleanly(_argv(("energy", "--k", k), {**flags, **common}))


@settings(deadline=None, max_examples=40)
@given(k=st.sampled_from(("1", "2", "3", "0", "-1", "x")),
       flags=st.fixed_dictionaries({}, optional=COMMON_FLAGS))
def test_critical_flag_space_exits_cleanly(k, flags):
    _assert_exits_cleanly(_argv(("critical", "--k", k), flags))


@settings(deadline=None, max_examples=25)
@given(flags=st.fixed_dictionaries({}, optional=COMMON_FLAGS))
def test_verify_flag_space_exits_cleanly(flags):
    # exit 1 is a failed verification record
    _assert_exits_cleanly(_argv(("verify",), flags), codes=(0, 1, 2))


# -- scan3 export streaming ------------------------------------------------------
#
# The exporters write one alpha row at a time.  These oracles are the earlier
# string-building exporters, kept to pin the layout byte for byte.

def _oracle_cells(report) -> list[tuple[float, float, float, float]]:
    """Row-major (alpha outer, delta inner) cell tuples of the report."""
    values, grad_norms = _whole_grids(report.alphas, report.deltas)
    return [(float(a), float(d), float(values[i, j]), float(grad_norms[i, j]))
            for i, a in enumerate(report.alphas) for j, d in enumerate(report.deltas)]


def _oracle_scan_csv(report, digits: int) -> str:
    lines = ["alpha,delta,value,grad_norm"]
    for a, d, v, g in _oracle_cells(report):
        lines.append(f"{a:.{digits}g},{d:.{digits}g},{v:.{digits}g},{g:.{digits}g}")
    return "\n".join(lines) + "\n"


def _oracle_cell(cell) -> dict:
    return {"i": cell.i, "j": cell.j, "alpha": cell.alpha, "delta": cell.delta,
            "value": cell.value, "grad_norm": cell.grad_norm,
            "boundary": cell.boundary}


def _oracle_scan_json(report, digits: int) -> str:
    g = report.grid
    payload = {
        "grid": {
            "alpha_min": g.alpha_min, "alpha_max": g.alpha_max,
            "alpha_count": g.alpha_count, "alpha_spacing": g.alpha_spacing,
            "delta_min": g.delta_min, "delta_max": g.delta_max,
            "delta_count": g.delta_count, "delta_spacing": g.delta_spacing,
        },
        "digits": digits,
        "global_min": _oracle_cell(report.global_min),
        "minima": [_oracle_cell(c) for c in report.minima],
        "interior_zeros": [],
        "cells": [list(row) for row in _oracle_cells(report)],
    }
    return json.dumps(payload, indent=2) + "\n"


#: floats whose repr or %g form is easy to get wrong
AWKWARD_FLOATS = (-0.0, 5e-324, 1e16, 1e-7, 2.0)


def _hand_built_blocks(alphas, values, grad_norms):
    """A stand-in for scan._blocks that yields the hand-built grids, three
    rows at a time in one buffer that the next block overwrites."""
    def blocks(axis, deltas):
        assert np.array_equal(axis, alphas)
        return _one_buffer_blocks(values, grad_norms, 3)

    return blocks


def _hand_built_report(monkeypatch, na: int, nd: int, seed: int) -> ScanReport:
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
    grid = GridSpec(alpha_min=float(alphas[0]), alpha_max=float(alphas[-1]),
                    alpha_count=na, alpha_spacing="geometric",
                    delta_min=0.0, delta_max=10.0, delta_count=nd,
                    delta_spacing="linear")
    # the kernel's one way out: interleaved_rows and the oracles' _whole_grids
    # both read these grids through it
    monkeypatch.setattr(scan, "_blocks", _hand_built_blocks(alphas, values, grad_norms))
    return ScanReport(grid=grid, alphas=alphas, deltas=deltas, minima=minima,
                      global_min=minima[0], finite=True)


@pytest.mark.parametrize("digits", [6, 17])
@pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (5, 7)])
def test_streamed_exports_match_string_oracle(monkeypatch, tmp_path, shape, digits):
    report = _hand_built_report(monkeypatch, *shape, seed=shape[0] * 10 + shape[1])
    for name, write, oracle in (("cells.csv", ScanReport.write_csv, _oracle_scan_csv),
                                ("cells.json", ScanReport.write_json, _oracle_scan_json)):
        path = tmp_path / name
        with open(path, "w", newline="\n") as fh:
            write(report, fh, digits)
        assert path.read_bytes() == oracle(report, digits).encode()
    payload = json.loads((tmp_path / "cells.json").read_text())
    assert payload["interior_zeros"] == [] and len(payload["minima"]) == 3


# sha256 of the exports: the csv pins are the string-building exporters'
# bytes; the json pins, which write each grad_norm with repr, were taken
# when the gradient came to be evaluated from exact numerator tables
SCAN3_EXPORT_SHA256 = {
    ("csv", ()): "fbbaee4afbf88c4246a2aa03046f5f0eae1cfb3fee1124866cf4a6824163cff3",
    ("json", ()): "64f19db8de62d4bd84f445724780d7316eb42c4038ff91450e6463106efa91b8",
    ("csv", "seeded"): "1ca5038c10d98759ba41f75b1164c44231c2d60f7452d1a4d0485f9f7cf27176",
    ("json", "seeded"): "f35d34314193381bfd298899c3ed3f3e63a3b5997fa187d7a4d31a5b87547c04",
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


# -- scan3 export in one process ------------------------------------------------
#
# The csv and json exports write every alpha row in the process that ran the
# scan, evaluating the rows again from row 0 in the summary's blocks.

@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_scan3_never_forks(capsys, monkeypatch, tmp_path, fmt):
    # two allowed cores, where an exporter that split its rows would fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def fork():
        raise AssertionError("scan3 forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    out = ("--out", str(tmp_path / f"cells.{fmt}"))
    code, _, err = run(capsys, "scan3", "--grid", "130", *SEEDED_WINDOW,
                       "--format", fmt, *(out if fmt != "table" else ()))
    assert (code, err) == (0, "")


def _count_kernel_rows(monkeypatch) -> collections.Counter:
    """Wrap scan._blocks to count, per alpha, how often its row is yielded."""
    evaluated = collections.Counter()
    kernel = scan._blocks

    def blocks(alphas, deltas):
        for start, values, grad_norms in kernel(alphas, deltas):
            evaluated.update(alphas[start:start + len(values)].tolist())
            yield start, values, grad_norms

    monkeypatch.setattr(scan, "_blocks", blocks)
    return evaluated


@pytest.mark.parametrize("fmt, times", [("table", 1), ("csv", 2), ("json", 2)])
def test_scan3_evaluates_each_alpha_row_at_most(capsys, monkeypatch, tmp_path, fmt, times):
    # the summary evaluates every row once, and an export evaluates every row
    # exactly once more as it writes it
    evaluated = _count_kernel_rows(monkeypatch)
    out = ("--out", str(tmp_path / f"cells.{fmt}"))
    code, _, err = run(capsys, "scan3", "--grid", "130", *SEEDED_WINDOW,
                       "--format", fmt, *(out if fmt != "table" else ()))
    assert (code, err) == (0, "")
    assert len(evaluated) == 130
    assert set(evaluated.values()) == {times}


def _export_peak(shape) -> int:
    """tracemalloc's peak over one scan and its csv export to os.devnull;
    numpy reports its data buffers to tracemalloc."""
    scan.scan_three_point(grid_counts=(4, 4))  # builds the cached term tables
    tracemalloc.start()
    try:
        report = scan.scan_three_point(grid_counts=shape)
        with open(os.devnull, "w") as fh:
            report.write_csv(fh, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_export_peak_memory_does_not_grow_with_alpha_rows():
    # the export holds no grid-sized array: 1.91 and 1.98 MiB.  An export
    # that built the value and gradient grids read 1.91 and 3.29 MiB
    assert _export_peak((256, 500)) <= 1.1 * _export_peak((64, 500))


def _fail_in_rows(monkeypatch):
    """Make ScanReport.interleaved_rows raise at alpha row n // 2."""
    rows = ScanReport.interleaved_rows

    def failing_rows(self):
        for i, row in enumerate(rows(self)):
            if i == self.alphas.size // 2:
                raise RuntimeError("injected failure")
            yield row

    monkeypatch.setattr(ScanReport, "interleaved_rows", failing_rows)


@pytest.mark.parametrize("previous", [True, False])
def test_failed_export_keeps_the_previous_out_file(capfd, monkeypatch, tmp_path, previous):
    # the failure propagates, and neither a half-written export nor its
    # sibling temporary file is left where the earlier file (if any) was
    _fail_in_rows(monkeypatch)
    for fmt in ("csv", "json"):
        folder = tmp_path / fmt
        folder.mkdir()
        path = folder / f"cells.{fmt}"
        if previous:
            path.write_bytes(b"previous export\n")
        with pytest.raises(RuntimeError, match="injected"):
            cli.main(["scan3", "--grid", "8", "--format", fmt, "--out", str(path)])
        assert capfd.readouterr() == ("", "")
        assert list(folder.iterdir()) == ([path] if previous else [])
        if previous:
            assert path.read_bytes() == b"previous export\n"


def test_out_write_error_names_the_out_path(capsys, tmp_path):
    path = tmp_path / "missing" / "records.txt"
    code, out, err = run(capsys, "verify", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_out_through_a_symlink_replaces_its_target(capsys, tmp_path):
    target = tmp_path / "records.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    code, out, err = run(capsys, "verify", "--out", str(link))
    assert (code, out) == (0, "")
    assert link.is_symlink() and target.read_text().startswith("record")
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_new_out_file_mode_follows_the_umask(capsys, tmp_path):
    old = os.umask(0o027)
    try:
        code, out, err = run(capsys, "verify", "--out", str(tmp_path / "records.txt"))
    finally:
        os.umask(old)
    assert code == 0
    assert (tmp_path / "records.txt").stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("argv", [("verify",), ("scan3", "--grid", "8", "--format", "csv")])
def test_out_to_a_character_device_is_written_in_place(capsys, argv):
    code, out, err = run(capsys, *argv, "--out", os.devnull)
    assert code == 0, err
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_to_a_fifo_is_written_in_place(capsys, tmp_path):
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code, out, err = run(capsys, "verify", "--out", str(fifo))
    finally:
        reader.join(timeout=30)
    assert code == 0, err
    assert received[0].startswith(b"record")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


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


@pytest.mark.parametrize("argv, flag", [
    (("--k", "3", "--alpha", "1/3", "--beta", "1e2000", "--delta", "7"), "--beta"),
    (("--k", "1", "--alpha", "1e1000000000", "--delta", "1"), "--alpha"),
    (("--k", "1", "--alpha", "1", "--delta", "1e-1000000000"), "--delta"),
    (("--k", "2", "--beta", "7" * (cli.MAX_RATIONAL_DIGITS + 1)), "--beta"),
])
def test_oversized_rational_is_refused_before_it_is_built(capsys, argv, flag):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", *argv])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"argument {flag}:" in err and "digits" in err


def test_rational_cap_boundary(capsys):
    code, out, err = run(capsys, "energy", "--k", "3", "--alpha", "1",
                         "--beta", "7" * cli.MAX_RATIONAL_DIGITS)
    assert code == 0, err
    code, out, err = run(capsys, "energy", "--k", "3", "--alpha", "1",
                         "--beta", "1e" + str(cli.MAX_RATIONAL_DIGITS - 5))
    assert code == 0, err


def test_energy_float_overflow_is_refused(capsys):
    code, out, err = run(capsys, "energy", "--k", "3", "--alpha", "1e190",
                         "--beta", "1e-190", "--delta", "1e-190")
    assert code == 2
    assert err.startswith("error:") and "--alpha" in err
    assert out == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("extremal-lab")


# -- import boundary ----------------------------------------------------------------
#
# Only scan3 needs numpy; the exact commands must neither load it nor need it.

#: the directory holding the extremal_lab package under test
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
RUN_MAIN = "import sys; from extremal_lab.cli import main; sys.exit(main(sys.argv[1:]))"
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "


def _interpreter(*args, environ=os.environ, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE, **kwargs):
    """A fresh interpreter run on `args`, the package under test first on its path."""
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=stderr,
                          text=True, env=dict(environ, PYTHONPATH=path), **kwargs)


def _python(code, *argv, **kwargs):
    return _interpreter("-c", code, *argv, **kwargs)


def test_exact_path_never_imports_numpy():
    res = _python("import sys, extremal_lab.cli, extremal_lab.critical, extremal_lab.energy; "
                  "print('numpy' in sys.modules)")
    assert (res.returncode, res.stdout) == (0, "False\n"), res.stderr
    for argv in (("verify",), ("critical", "--k", "2"),
                 ("energy", "--k", "3", "--alpha", "1", "--beta", "1")):
        plain = _python(RUN_MAIN, *argv)
        blocked = _python(BLOCK_NUMPY + RUN_MAIN, *argv)
        assert plain.returncode == blocked.returncode == 0, blocked.stderr
        assert blocked.stdout == plain.stdout
    # the block does bite: scan3 cannot run without numpy, and says so
    res = _python(BLOCK_NUMPY + RUN_MAIN, "scan3", "--grid", "2")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: scan3 needs numpy, which cannot be imported\n"


#: modules the exact commands must not load: start-up is most of their time
HEAVY_MODULES = {"dataclasses", "inspect", "typing", "json", "csv"}


def _loaded_modules(code, *argv) -> set:
    """The modules loaded once `code` has run in a fresh interpreter."""
    res = _python(f"import sys; {code}; print(*sys.modules)", *argv)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


def test_exact_path_loads_no_heavy_modules():
    # measured against a bare interpreter under the same environment, whose
    # site may load typing itself
    bare = _loaded_modules("pass")
    run_main = "from extremal_lab.cli import main; main(sys.argv[1:])"
    for argv in (("verify",), ("critical", "--k", "2"),
                 ("energy", "--k", "3", "--alpha", "1", "--beta", "1")):
        for fmt in ("table", "json", "csv"):
            added = _loaded_modules(run_main, *argv, "--format", fmt) - bare
            assert "extremal_lab.energy" in added
            # json loads only for --format json and csv only for --format csv
            assert added & HEAVY_MODULES == HEAVY_MODULES & {fmt}, (argv, fmt)
            # the scan and its renderers, and numpy, load only for scan3
            assert not added & {"extremal_lab.scan", "numpy"}, (argv, fmt)
            # an energy at a point evaluates D from the plain data of sextics,
            # so only verify and critical load the polynomial layer
            polynomial = added & {"extremal_lab.exactpoly", "extremal_lab.critical"}
            assert polynomial == (set() if argv[0] == "energy" else
                                  {"extremal_lab.exactpoly", "extremal_lab.critical"}), (argv, fmt)
    # scan adds nothing heavy to what numpy itself loads
    added = _loaded_modules("import extremal_lab.scan") - _loaded_modules("import numpy")
    assert "extremal_lab.scan" in added and not added & HEAVY_MODULES


#: the exact layers and the modules only they use: a scan reads its sextics as
#: plain data, so it loads none of them
EXACT_MODULES = {"extremal_lab.energy", "extremal_lab.exactpoly", "extremal_lab.delpezzo",
                 "extremal_lab.critical", "fractions", "decimal"}


def test_scan3_loads_no_exact_layer(tmp_path):
    bare = _loaded_modules("pass")
    run_main = "from extremal_lab.cli import main; main(sys.argv[1:])"
    for fmt in ("table", "csv", "json"):
        out = ("--out", str(tmp_path / f"cells.{fmt}")) if fmt != "table" else ()
        added = _loaded_modules(run_main, "scan3", "--grid", "2", "--format", fmt, *out) - bare
        assert {"extremal_lab.scan", "extremal_lab.sextics"} <= added, fmt
        assert not added & EXACT_MODULES, (fmt, added & EXACT_MODULES)
    # importing the CLI loads none either; that each exact command loads
    # the energy module is checked above, in every format
    assert not (_loaded_modules("import extremal_lab.cli") - bare) & EXACT_MODULES


# -- the process entry -------------------------------------------------------------
#
# `python -m extremal_lab` and the `extremal-lab` command run `cli.main` and
# then freeze the collector, so the collections at exit skip what the imports
# made.  RUN_MAIN calls `cli.main` without the freeze.

ENTRY_COMMANDS = [("verify",), ("critical", "--k", "2"),
                  ("energy", "--k", "3", "--alpha", "1", "--beta", "2"),
                  ("scan3", "--grid", "37", "--format", "csv", "--out", "scan3.csv")]


@pytest.mark.parametrize("argv", ENTRY_COMMANDS)
def test_module_entry_matches_main(tmp_path, argv):
    runs = {}
    for name, args in {"main": ("-c", RUN_MAIN), "module": ("-m", "extremal_lab")}.items():
        cwd = tmp_path / name
        cwd.mkdir()
        res = _interpreter(*args, *argv, cwd=cwd)
        assert res.returncode == 0, res.stderr
        runs[name] = (res.returncode, res.stdout, res.stderr,
                      {p.name: p.read_bytes() for p in cwd.iterdir()})
    assert runs["module"] == runs["main"]
    assert len(runs["main"][3]) == ("--out" in argv)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [("-c", RUN_MAIN), ("-m", "extremal_lab")])
def test_full_stdout_exits_two_with_one_error_line(args):
    with open("/dev/full", "w") as full:
        res = _interpreter(*args, "verify", stdout=full)
    assert (res.returncode, res.stderr) == (2, "error: [Errno 28] No space left on device\n")


def test_entry_freezes_after_main_and_main_does_not(capsys):
    frozen = gc.get_freeze_count()
    assert cli.main(["energy", "--k", "3", "--alpha", "1", "--beta", "2"]) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()
    count = ("import gc, sys; from extremal_lab.__main__ import run; "
             "code = run(); print(gc.get_freeze_count() > 0, file=sys.stderr); sys.exit(code)")
    res = _python(count, "verify")
    assert (res.returncode, res.stderr) == (0, "True\n")


def test_installed_command_is_the_process_entry():
    from extremal_lab.__main__ import run

    scripts = re.search(r"^\[project\.scripts\]\n(.*?)^$", PYPROJECT.read_text(), re.M | re.S)
    entry = re.fullmatch(r'extremal-lab = "([\w.]+):(\w+)"', scripts.group(1).strip())
    module, name = entry.groups()
    assert getattr(importlib.import_module(module), name) is run


# -- scan3 in a fresh process -----------------------------------------------------

def test_scan3_overflow_refusal_prints_no_warning(tmp_path):
    # pytest captures warnings in process, so only a child shows whether a
    # numpy RuntimeWarning escapes the kernel's errstate
    res = _python(RUN_MAIN, "scan3", "--delta-max", "1e300", cwd=tmp_path)
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--delta-max" in lines[0]
    assert "Warning" not in res.stderr
    assert res.stdout == "" and not any(tmp_path.iterdir())


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("argv", [("critical", "--k", "1", "--format", "csv"),
                                  ("scan3", "--grid", "70", "--format", "csv")])
def test_out_to_dev_stdout_writes_through_stdout(tmp_path, argv):
    # stdout redirected to a regular file: --out /dev/stdout must append to
    # it, not replace the file, and the scan summary must follow the cells
    plain = _python(RUN_MAIN, *argv, "--out", "out.txt", cwd=tmp_path)
    assert plain.returncode == 0, plain.stderr
    export = (tmp_path / "out.txt").read_text()
    log = tmp_path / "log.txt"
    log.write_text("earlier line\n")
    with open(log, "a") as fh:
        res = _python(RUN_MAIN, *argv, "--out", "/dev/stdout", cwd=tmp_path, stdout=fh)
    assert (res.returncode, res.stderr) == (0, "")
    summary = plain.stdout.replace("wrote out.txt", "wrote /dev/stdout")
    assert log.read_text() == "earlier line\n" + export + summary
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.txt", "out.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/stderr"), reason="needs /dev/stderr")
def test_out_to_dev_stderr_writes_through_stderr(tmp_path):
    # stderr appended to a regular file: --out /dev/stderr must append to
    # it too, not replace the file and its earlier lines
    argv = ("critical", "--k", "1", "--format", "csv")
    plain = _python(RUN_MAIN, *argv, cwd=tmp_path)
    assert plain.returncode == 0, plain.stderr
    log = tmp_path / "err.txt"
    log.write_text("earlier line\n")
    with open(log, "a") as fh:
        res = _python(RUN_MAIN, *argv, "--out", "/dev/stderr", cwd=tmp_path, stderr=fh)
    assert (res.returncode, res.stdout) == (0, "")
    assert log.read_text() == "earlier line\n" + plain.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["err.txt"]


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("grid", ["300", "420"])
def test_scan3_export_does_not_depend_on_blas_threads(tmp_path, grid):
    # OpenBLAS takes its thread count from OPENBLAS_NUM_THREADS, else from
    # the affinity mask; whole-grid products changed the last bits of some
    # cells between one thread and two at these sizes
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    starts = {"one-thread": dict(environ=dict(base, OPENBLAS_NUM_THREADS="1")),
              "two-threads": dict(environ=dict(base, OPENBLAS_NUM_THREADS="2")),
              "one-cpu": dict(environ=base, preexec_fn=_pin_to_one_cpu)}
    exports = set()
    for name, kwargs in starts.items():
        path = tmp_path / f"{name}.json"
        res = _python(RUN_MAIN, "scan3", "--grid", grid, "--format", "json",
                      "--out", str(path), **kwargs)
        assert res.returncode == 0, res.stderr
        exports.add(path.read_bytes())
    assert len(exports) == 1


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
@pytest.mark.skipif(not _blas_is_openblas(), reason="numpy is not built on OpenBLAS")
def test_scan_loads_openblas_without_worker_threads():
    # one thread by default; an explicit OPENBLAS_NUM_THREADS still wins
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    count = "import os, extremal_lab.scan; print(len(os.listdir('/proc/self/task')))"
    res = _python(count, environ=base)
    assert (res.returncode, res.stdout) == (0, "1\n"), res.stderr
    if len(os.sched_getaffinity(0)) > 1:
        res = _python(count, environ=dict(base, OPENBLAS_NUM_THREADS="2"))
        assert (res.returncode, res.stdout) == (0, "2\n"), res.stderr
