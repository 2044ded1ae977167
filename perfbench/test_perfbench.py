"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 30, 100, 1000])
def test_tail_is_the_highest_order_statistic_with_ten_beyond(n):
    samples = [float((7 * i) % n) for i in range(n)]  # a permutation of 0..n-1
    value, pct = ops.tail_latency(samples)
    assert value == n - 11
    assert sum(s > value for s in samples) == ops.TAIL_BEYOND
    assert pct == pytest.approx(100 * (n - 11) / (n - 1))


def test_tail_with_too_few_samples_is_the_maximum():
    assert ops.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    with pytest.raises(ValueError):
        ops.tail_latency([])


# -- seed -> argv ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_schedule_is_a_function_of_the_seed(name):
    first = workloads.schedule(name, 11, 20)
    assert first == workloads.schedule(name, 11, 20)
    assert [op.argv for op in first] != [op.argv for op in workloads.schedule(name, 12, 20)]
    assert all(isinstance(a, str) for op in first for a in op.argv)
    one_round = len(workloads.schedule(name, 11, 0))
    assert len(first) == one_round * round(20 / workloads.WORKLOADS[name].nominal_round_s)


def test_energy_classes_are_kahler_with_small_and_64_bit_numerators():
    ops_ = [op for op in workloads.schedule("cli-quick", 5, 20) if op.command == "energy"]
    assert {op.k for op in ops_} == {1, 2, 3}
    for op in ops_:
        a, b = checks.slice_class(op.k, op.point)
        poly = checks.moment_polygon(a, b)
        # every (-1)-curve and line has positive area: no polygon edge collapses
        assert len(poly) == 3 + op.k
    for k in (1, 2, 3):
        sizes = [max(v.numerator.bit_length() for v in op.point) for op in ops_ if op.k == k]
        assert min(sizes) < 64 <= max(sizes)


def test_scan_windows_keep_the_anti_canonical_class_inside():
    for name in ("scan-large", "scan-export"):
        for op in workloads.schedule(name, 9, 20):
            argv = dict(zip(op.argv[1::2], op.argv[2::2]))
            assert float(argv["--alpha-min"]) < 1 < float(argv["--alpha-max"])
            assert float(argv["--delta-max"]) > 0


# -- span self time -------------------------------------------------------------

def test_self_time_subtracts_the_union_of_direct_children():
    trace = [
        ["parent", 0.0, 10.0, -1, 0],
        ["child", 1.0, 3.0, 0, 0],
        ["child", 2.0, 5.0, 0, 0],  # overlaps the first child: counted once
        ["grandchild", 2.5, 4.0, 2, 0],  # belongs to its parent only
        ["child", 9.0, 12.0, 0, 0],  # clipped to the parent's end
    ]
    assert spans.self_times(trace) == [5.0, 2.0, 1.5, 1.5, 3.0]
    self_s, calls, counters = spans.aggregate([
        {"spans": trace, "counters": {"x.length_max": 4, "x.cells": 10}},
        {"spans": trace[:2], "counters": {"x.length_max": 3, "x.cells": 5}},
    ])
    assert self_s == {"parent": 13.0, "child": 8.5, "grandchild": 1.5}
    assert calls == {"parent": 2, "child": 4, "grandchild": 1}
    assert counters == {"x.length_max": 4, "x.cells": 15}


def test_traced_command_nests_spans_at_the_names_callers_use(tmp_path):
    out = tmp_path / "spans.json"
    runner = run.Runner(ROOT, tmp_path / "work")
    res = runner.run([sys.executable, str(HERE / "traced_cli.py"), "7", str(out),
                      "critical", "--k", "1", "--digits", "30"])
    assert res.returncode == 0, res.stderr
    trace = json.loads(out.read_text())
    names = [s[0] for s in trace["spans"]]
    assert names[0] == "cli.cmd_critical"
    by_index = {i: s for i, s in enumerate(trace["spans"])}
    page = names.index("critical.page_class")
    isolate = names.index("exactpoly.isolate_real_roots")
    assert by_index[page][3] == 0 and by_index[isolate][3] == page
    assert all(s[4] == 7 for s in trace["spans"])
    assert trace["counters"]["exactpoly.isolate_real_roots.degree_max"] == 4
    assert trace["counters"]["exactpoly.sturm_chain.length_max"] >= 2


# -- per-child resources ------------------------------------------------------------

def test_rss_is_captured_per_child_not_as_a_running_maximum(tmp_path):
    def child(code):
        return ops.run_process([sys.executable, "-c", code], None, tmp_path, tmp_path, 30)

    big = child("b = b'x' * (96 << 20)")
    small = child("pass")
    assert big.returncode == small.returncode == 0
    assert big.maxrss_kib >= 96 * 1024
    assert small.maxrss_kib < big.maxrss_kib - 64 * 1024


def test_a_process_past_its_timeout_is_killed(tmp_path):
    res = ops.run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                          None, tmp_path, tmp_path, 0.5)
    assert res.timed_out and res.returncode != 0 and res.wall_s < 10


# -- references and checks ------------------------------------------------------

def test_references_agree_with_the_paper_and_the_displayed_quotient():
    ref = checks.critical_reference(1, 40)
    assert abs(ref["ratio"] - 3.183933404) < 1e-9
    assert checks.toric_normalized_energy(3, (1, 1, 1)) == 2
    alpha, delta = Fraction(3, 7), Fraction(5, 2)
    x = delta / alpha
    quotient = (3 * x ** 3 + 16 * x ** 2 + 14 * x + 4) / (x * (x ** 2 + 6 * x + 6))
    assert checks.toric_normalized_energy(alpha + delta, (alpha,)) == quotient


def test_probe_criterion(tmp_path):
    probe = workloads.PROBE_VERIFY_DIGITS
    assert checks.check_probe(probe, 2, "", "error: --digits must be at most 500\n",
                              tmp_path) is None
    internal = ("error: Exceeds the limit (4300 digits) for integer string "
                "conversion; use sys.set_int_max_str_digits() to increase the limit\n")
    assert checks.check_probe(probe, 2, "", internal, tmp_path) is not None
    nan_summary = ("global minimum: alpha = inf, delta = 0, value = nan, "
                   "grad norm = nan (boundary)\n")
    assert checks.check_probe(workloads.PROBE_ALPHA_INF, 0, nan_summary, "",
                              tmp_path) is not None


def test_import_time_parsing():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      1200 |      80000 |   numpy\n"
              "import time:       300 |     150000 | extremal_lab.cli\n")
    assert run._import_cumulative_us(stderr) == {"numpy": 80000, "extremal_lab.cli": 150000}


def test_kernel_model_counts_the_99_terms():
    assert run._kernel_model(99) == (312, 5152)
    assert run._kernel_model(0) == (0, 0)


# -- the whole benchmark ------------------------------------------------------------

def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_is_correct_and_prints_every_metric(trace, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "cli-quick", "--seed", "3", "--seconds", "1",
                     "--trace", trace])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m[0]: m[1] for m in expected}


def test_all_workloads_in_one_command_prefix_each_metric(capsys, monkeypatch):
    def fake_measure(runner, name, seed, seconds, lines):
        lines.append(f"workload {name}")
        op = workloads.WORKLOADS[name].warmup[0]
        outcomes = [run.Outcome(op, None, None), run.Outcome(op, None, "wrong")]
        return {m[0]: 1.0 for m in run.END_TO_END}, outcomes, [], {}

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "end_to_end", fake_measure)
    assert run.main(["--workload", "all", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    n = len(workloads.WORKLOADS)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2 * n, n)
    assert set(result["metrics"]) == {f"{w}.{m[0]}" for w in workloads.WORKLOADS
                                      for m in run.END_TO_END}


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "scan-large", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
