"""End-to-end CLI checks: JSON shape, exit codes, file interop, and the
stability of repeated invocations."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import capbound
from capbound import acceptance, asymptotics, cli, golden, verifier
from capbound.asymptotics import GUARD, MAX_DIGITS, MAX_Q
from capbound.bounds import bound_for_d, optimal_bound, sharp_bound, theorem_bound
from capbound.capsearch import MAX_BUDGET, max_capset
from capbound.cli import main
from capbound.qnomial import qnomial
from capbound.stages import _str_int
from capbound.verifier import parse_pointset
from test_qnomial import inclusion_exclusion
from test_verifier import OTHER_SPELLINGS, _values


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_qnomial_command(capsys):
    code, report, _ = run_cli(capsys, "qnomial", "--n", "6", "--k", "4")
    assert code == 0
    assert report["command"] == "qnomial"
    assert report["result"]["value"] == "90"
    assert report["checks"] == []


def test_qnomial_big_value_survives_json(capsys):
    code, report, _ = run_cli(capsys, "qnomial", "--n", "400", "--k", "400")
    assert code == 0
    assert int(report["result"]["value"]) == qnomial(400, 400, 3)


def test_qnomial_value_past_4300_digits(capsys):
    code, report, _ = run_cli(capsys, "qnomial", "--n", "10000", "--k", "6666")
    assert code == 0
    value = report["result"]["value"]
    assert len(value) > 4300
    assert _str_int(value) == inclusion_exclusion(10000, 6666, 3)


def test_oversized_row_exit_2_at_once(capsys):
    started = time.monotonic()
    code, report, err = run_cli(capsys, "qnomial", "--n", "1000000",
                                "--k", "0")
    assert time.monotonic() - started < 2.0
    assert code == 2 and report is None
    assert err.startswith("error:") and "ceiling" in err


# A child that caps its own address space at its size once the CLI is
# imported plus 128 MiB, the row ceiling, then runs one command.
CAPPED_CLI = """
import resource, sys
import capbound.cli
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh
                if line.startswith("VmSize:")) * 1024
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = size + 2**27
if hard != resource.RLIM_INFINITY:
    soft = min(soft, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
sys.exit(capbound.cli.main(sys.argv[1:]))
"""
needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads VmSize from /proc/self/status")


def run_capped(*argv):
    src = str(Path(capbound.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", CAPPED_CLI,
                           *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


@needs_proc
@pytest.mark.parametrize("n,q", [(0, 10**10), (1, 1_938_953), (18, 10**5),
                                 (18_322, 3)])
def test_admitted_rows_fit_the_ceiling_above_the_cli(n, q):
    # the n = 0 row is (1,) at every q; the others are the largest rows
    # admitted at their q, whose builds held the most (about 60-95 MB)
    done = run_capped("qnomial", "--n", n, "--k", 0, "--q", q)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["value"] == "1"


@needs_proc
@pytest.mark.parametrize("n,q", [(1, 1_938_954), (1, 10**7), (2, 6 * 10**6),
                                 (18_323, 3)])
def test_rows_past_the_ceiling_exit_2_at_once(n, q):
    # one past the largest admitted row, and long rows of small entries
    # whose coefficient bits alone stayed under the ceiling (n = 1,
    # q = 10^7 took 321 MB)
    started = time.monotonic()
    done = run_capped("qnomial", "--n", n, "--k", 0, "--q", q)
    assert time.monotonic() - started < 5.0
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and "row ceiling" in done.stderr


def test_bound_optimize(capsys):
    code, report, _ = run_cli(capsys, "bound", "--n", "6", "--optimize-d")
    assert code == 0
    (entry,) = report["result"]["bounds"]
    assert entry["d"] == 7 and entry["value"] == "324"
    assert entry["method"] == "optimal"


def test_bound_sharp_checks(capsys):
    code, report, _ = run_cli(capsys, "bound", "--n", "6", "--sharp",
                              "--theorem")
    assert code == 0
    methods = [b["method"] for b in report["result"]["bounds"]]
    assert methods == ["theorem", "sharp"]
    names = [c["name"] for c in report["checks"]]
    assert "sharp:equals_bound_for_d_4n_3" in names
    assert all(c["pass"] for c in report["checks"])


def test_bound_entries_are_the_reports_as_json(capsys):
    _, report, _ = run_cli(capsys, "bound", "--n", "30", "--d", "5",
                           "--optimize-d", "--theorem", "--sharp")
    assert report["result"]["bounds"] == [
        bound.as_json() for bound in (bound_for_d(30, 5), optimal_bound(30),
                                      theorem_bound(30), sharp_bound(30))]


def test_bound_requires_a_mode(capsys):
    code, report, err = run_cli(capsys, "bound", "--n", "6")
    assert code == 2
    assert report is None
    assert "pick at least one" in err


def test_domain_error_exit_2(capsys):
    code, report, err = run_cli(capsys, "qnomial", "--n", "-1", "--k", "0")
    assert code == 2
    assert report is None and err.startswith("error:")


def test_alpha_command(capsys):
    code, report, _ = run_cli(capsys, "alpha")
    assert code == 0
    assert report["result"]["alpha"]["decimal"] == "2.7551046130236330002"
    assert report["result"]["alpha"]["scale"] == 19
    assert all(c["pass"] for c in report["checks"])


def test_alpha_10000_digits(capsys):
    code, report, _ = run_cli(capsys, "alpha", "--digits", "10000")
    assert code == 0
    alpha = report["result"]["alpha"]
    assert alpha["scale"] == 10000 and len(alpha["decimal"]) == 10002
    assert alpha["decimal"].startswith("2.7551046130236330002")
    assert alpha["mantissa"] == alpha["decimal"].replace(".", "")
    assert all(c["pass"] for c in report["checks"])


def test_closed_stdout_leaves_no_traceback():
    # the report (about 150 kB) outgrows the pipe buffer, so the child is
    # still writing when the reader stops after 100 bytes
    src = str(Path(capbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.Popen(
        [sys.executable, "-m", "capbound.cli", "alpha", "--digits", "25000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = child.stdout.read(100)
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 0
    child.stderr.close()
    assert head.startswith(b"{")
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_leading_constant_command(capsys):
    code, report, _ = run_cli(capsys, "leading-constant")
    assert code == 0
    assert report["result"]["leading_constant"]["decimal"].startswith(
        "3.326762746")
    assert all(c["pass"] for c in report["checks"])


def test_growth_both_methods(capsys):
    code, report, _ = run_cli(capsys, "growth", "--q", "3", "--method", "both")
    assert code == 0
    assert report["result"]["saddle"]["constant"]["decimal"].startswith(
        "2.75510461302363300022")
    assert report["checks"][0]["name"] == "saddle_ratio_agree"
    assert report["checks"][0]["pass"]


def test_growth_ratio_only(capsys):
    code, report, _ = run_cli(capsys, "growth", "--q", "2", "--method",
                              "ratio")
    assert code == 0
    assert abs(report["result"]["ratio_estimate"] - 1.88988) < 1e-3
    assert report["result"]["counters"] == {}
    assert set(report["result"]["timings_ms"]) == {"ratio"}


def test_growth_reports_cost(capsys):
    code, report, _ = run_cli(capsys, "growth", "--q", "5", "--digits",
                              "200", "--method", "both")
    assert code == 0
    result = report["result"]
    assert set(result) == {"saddle", "ratio_estimate", "counters",
                           "timings_ms"}
    assert set(result["saddle"]) == {"q", "x0", "constant", "residual"}
    counters = result["counters"]
    assert counters["bisection_steps"] == 64
    assert counters["work_digits"] == 210
    assert list(counters["newton_steps"])[-1] == "210"
    assert set(result["timings_ms"]) == {"bisection", "ladder", "newton",
                                         "residual", "constant", "ratio"}


def test_verify_recurrence_command(capsys):
    code, report, _ = run_cli(capsys, "verify-recurrence", "--nmax", "30")
    assert code == 0
    assert report["result"]["all_zero"] is True
    assert report["result"]["first_failure"] is None


def test_table_known_reference_defect(capsys):
    # named for the q=8 reference digit that was once one off; the full
    # table now passes every check, q=8_matches_reference included
    code, report, _ = run_cli(capsys, "table")
    assert code == 0
    rows = report["result"]["rows"]
    assert [r["q"] for r in rows] == [4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
                                      23, 25, 27, 29, 31]
    names = [c["name"] for c in report["checks"]]
    assert "q=8_matches_reference" in names
    assert all(c["pass"] for c in report["checks"])


def test_table_subrange_passes(capsys):
    code, report, _ = run_cli(capsys, "table", "--qmin", "9", "--qmax", "31")
    assert code == 0
    assert [r["q"] for r in report["result"]["rows"]] == \
        [9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]
    assert all(c["pass"] for c in report["checks"])


def test_table_rows_report_the_saddle_cost(capsys):
    code, report, _ = run_cli(capsys, "table", "--qmin", "5", "--qmax", "8")
    assert code == 0
    rows = report["result"]["rows"]
    assert [r["q"] for r in rows] == [5, 7, 8]
    for row in rows:
        assert set(row["counters"]) == {"bisection_steps", "newton_steps",
                                        "work_digits", "work_bits", "stop"}
        assert row["counters"]["work_digits"] == 40 + GUARD
        assert set(row["timings_ms"]) == {"bisection", "ladder", "newton",
                                          "residual", "constant"}


def test_table_rows_leave_the_verdict_to_checks(capsys):
    # a pinned row carries its reference, and its verdict only as the one
    # q=..._matches_reference check; an unpinned row has neither
    code, report, _ = run_cli(capsys, "table", "--qmin", "29", "--qmax", "37")
    assert code == 0
    rows = report["result"]["rows"]
    assert [r["q"] for r in rows] == [29, 31, 32, 37]
    assert not any("pass" in row for row in rows)
    names = [c["name"] for c in report["checks"]]
    for row in rows:
        pinned = golden.GROWTH_TABLE.get(row["q"])
        assert row.get("reference") == pinned
        assert names.count(f"q={row['q']}_matches_reference") == \
            (pinned is not None)
    assert len(names) == 2


def test_search_writes_pointset(tmp_path, capsys):
    out = tmp_path / "witness.txt"
    code, report, _ = run_cli(capsys, "search", "--n", "2", "--out", str(out))
    assert code == 0
    assert report["result"]["max_size"] == 4
    assert report["result"]["proven_optimal"] is True
    assert report["result"]["witness"] == ["0 0", "0 1", "1 0", "1 1"]
    ps = parse_pointset(out.read_text(), 2)
    assert ps.points == (0, 1, 3, 4)


def test_search_result_fields(capsys):
    result = run_cli(capsys, "search", "--n", "2")[1]["result"]
    assert set(result) == {"n", "max_size", "witness", "nodes_explored",
                           "prunes", "proven_optimal", "timings_ms",
                           "counters"}


def test_search_reports_prune_counts(capsys):
    result = run_cli(capsys, "search", "--n", "3")[1]["result"]
    search = max_capset(3)
    assert result["nodes_explored"] == search.nodes_explored
    assert result["prunes"] == search.prunes


def test_search_reports_phase_costs(capsys):
    result = run_cli(capsys, "search", "--n", "4")[1]["result"]
    assert set(result["timings_ms"]) == {"lower_proofs", "tables", "find",
                                         "identity", "classes", "refute"}
    counters = result["counters"]
    assert result["nodes_explored"] == (counters["find_nodes"]
                                        + counters["collect_nodes"]
                                        + counters["refute_nodes"])
    assert counters["refuted_size"] == 21
    assert counters["forced_slice"] == 9
    assert counters["class_frames_tried"] == 21
    assert counters["class_automorphisms"] == 144
    assert counters["stabilizer_frames_tried"] == 446
    assert set(result["prunes"]) == {"cardinality", "orbit", "slice"}
    assert result["prunes"]["orbit"] > 0
    assert result["prunes"]["slice"] > 0


def test_search_with_budget(capsys):
    code, report, _ = run_cli(capsys, "search", "--n", "3", "--budget", "10")
    assert code == 0
    assert report["result"]["proven_optimal"] is False


@pytest.mark.parametrize("argv,reason", [
    (("search", "--n", "5"), "needs a node budget"),
    (("search", "--n", "6", "--budget", "10"), "out of reach"),
])
def test_search_out_of_reach_exit_2(capsys, argv, reason):
    # refused before any search table is built, so this returns at once
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report is None
    assert err.startswith("error:") and reason in err


def _no_walk(*args, **kwargs):
    raise AssertionError("the search walk was entered")


def test_search_refuses_an_unwritable_out_before_the_walk(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "max_capset", _no_walk)
    out = tmp_path / "missing" / "w5.txt"
    code, report, err = run_cli(capsys, "search", "--n", "5", "--budget",
                                "300000", "--out", str(out))
    assert code == 2 and report is None
    assert err.startswith("error:") and "w5.txt" in err
    assert not out.parent.exists()


@pytest.mark.parametrize("argv,reason", [
    (("--n", "6", "--budget", "10"), "out of reach"),
    (("--n", "5"), "needs a node budget"),
    (("--n", "3", "--budget", "0"), "at least 1"),
    (("--n", "5", "--budget", str(MAX_BUDGET + 1)), "at most"),
])
def test_search_refuses_n_and_budget_before_out(tmp_path, capsys, monkeypatch,
                                                argv, reason):
    # those refusals come first, and leave an existing --out as it was
    monkeypatch.setattr(cli, "max_capset", _no_walk)
    for out in (tmp_path / "missing" / "w.txt", tmp_path / "kept.txt"):
        if out.parent.exists():
            out.write_text("0 0 0\n")
        code, report, err = run_cli(capsys, "search", *argv, "--out", str(out))
        assert code == 2 and report is None
        assert err.startswith("error:") and reason in err
    assert (tmp_path / "kept.txt").read_text() == "0 0 0\n"


def test_search_out_replaces_an_existing_file_after_the_walk(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "w.txt"
    out.write_text("stale\n" * 10)

    def walk(n, node_budget=None):
        assert out.read_text() == "stale\n" * 10
        return max_capset(n, node_budget=node_budget)

    monkeypatch.setattr(cli, "max_capset", walk)
    assert run_cli(capsys, "search", "--n", "2", "--out", str(out))[0] == 0
    assert out.read_text() == "0 0\n0 1\n1 0\n1 1\n"


@pytest.mark.parametrize("argv", [
    ["search", "--n", "2", "--threads", "2"],
    ["table", "--threads", "2"],
])
def test_threads_option_removed(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_verify_clp_from_file(tmp_path, capsys):
    out = tmp_path / "w.txt"
    run_cli(capsys, "search", "--n", "2", "--out", str(out))
    code, report, _ = run_cli(capsys, "verify-clp", "--n", "2", "--d", "2",
                              "--set", str(out))
    assert code == 0
    assert report["result"]["diagonal_ok"] is True
    assert len(report["checks"]) == 5
    assert all(c["pass"] for c in report["checks"])


def test_verify_clp_renders_the_reports_checks(tmp_path, capsys):
    # the five checks are named once, by VerifierReport.checks, and
    # verify-clp prints that list as it stands at every d
    witness = max_capset(3).witness
    out = tmp_path / "w.txt"
    out.write_text(verifier.format_pointset(witness))
    for d in range(7):
        report = verifier.verify_support_bound(witness, d)
        code, cli_report, _ = run_cli(capsys, "verify-clp", "--n", "3",
                                      "--d", str(d), "--set", str(out))
        assert code == 0
        assert cli_report["checks"] == [
            {"name": c.name, "pass": c.passed, "detail": c.detail}
            for c in report.checks]
    assert [c.name for c in report.checks] == [
        "vanishes_off_set", "pair_matrix_diagonal", "rank_cap",
        "support_cap", "dimension_bound"]
    assert report.checks[2].detail == "max rank 8 <= 34"  # at d = 6


def test_verify_clp_reports_cost(tmp_path, capsys):
    out = tmp_path / "w.txt"
    run_cli(capsys, "search", "--n", "3", "--out", str(out))
    for _ in range(2):
        code, report, _ = run_cli(capsys, "verify-clp", "--n", "3", "--d",
                                  "4", "--set", str(out))
        assert code == 0
    result = report["result"]
    assert set(result["timings_ms"]) == {"table", "nullspace", "checks"}
    assert all(t >= 0 for t in result["timings_ms"].values())
    counters = result["counters"]
    # the elimination of the set's 9 indicators over all 27 monomials,
    # each of which adds rank
    assert counters["elimination_rows"] == 9
    assert counters["elimination_cols"] == 27
    assert counters["elimination_rank"] == 9
    assert counters["dim_v"] == result["dim_v"]
    # a maximum cap is complete: every other point completes a pair of it
    assert counters["third_points"] == 27 - 9
    assert counters["table_cached"] is True
    assert counters["elimination_cached"] is True


def test_verify_clp_reports_failed_checks(tmp_path, capsys, monkeypatch):
    # the constant 1 does not vanish off A: its pair matrix has no zero
    # entry, and its support is all of F_3^n; it joins the basis where
    # every call reads it, kept elimination or not
    basis_values = verifier._Elimination.basis_values
    one = _values(verifier.make_poly(2, {(0, 0): 1}))
    monkeypatch.setattr(verifier._Elimination, "basis_values",
                        lambda self, d: [*basis_values(self, d), one])
    witness = max_capset(2).witness
    report = verifier.verify_support_bound(witness, 2)
    assert not report.vanishing_ok
    assert not report.diagonal_ok and not report.rank_ok
    assert not report.all_ok
    out = tmp_path / "w.txt"
    out.write_text(verifier.format_pointset(witness))
    code, cli_report, _ = run_cli(capsys, "verify-clp", "--n", "2", "--d",
                                  "2", "--set", str(out))
    assert code == 1
    assert cli_report["result"]["diagonal_ok"] is False
    assert cli_report["result"]["rank_ok"] is False
    assert cli_report["result"]["vanishing_ok"] is False
    failed = {c["name"] for c in cli_report["checks"] if not c["pass"]}
    assert {"vanishes_off_set", "pair_matrix_diagonal", "rank_cap"} <= failed


@pytest.mark.parametrize("argv,reason", [
    (("verify-clp", "--n", "7", "--d", "2", "--set", "POINTS"),
     "out of reach for the verifier"),
    (("verify-recurrence", "--nmax", "2001"), "n_max must be in [2, 2000]"),
    (("search", "--n", "3", "--budget", "0"), "at least 1"),
    (("search", "--n", "3", "--budget", "-5"), "at least 1"),
    (("alpha", "--digits", str(MAX_DIGITS + 1)), "digits must be in [1, "),
    (("leading-constant", "--digits", str(MAX_DIGITS + 1)),
     "digits must be in [1, "),
    (("growth", "--q", "3", "--digits", str(MAX_DIGITS + 1)),
     "digits must be in [1, "),
    (("growth", "--q", str(MAX_Q + 1), "--method", "both"),
     "q must be in [2, "),
    (("table", "--qmax", "400"), f"qmax must be at most {MAX_Q}"),
    (("search", "--n", "5", "--budget", str(MAX_BUDGET + 1)),
     f"at most {MAX_BUDGET}"),
    (("qnomial", "--n", "100000", "--k", "5"),
     "over the 128 MiB row ceiling"),
    (("table", "--qmin", "40", "--qmax", "30"), "qmin must be at most qmax"),
])
def test_ceilings_exit_2(tmp_path, capsys, argv, reason):
    points = tmp_path / "p7.txt"
    points.write_text("0 0 0 0 0 0 0\n0 0 0 0 0 0 1\n")
    argv = [str(points) if a == "POINTS" else a for a in argv]
    started = time.perf_counter()
    code, report, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert report is None
    assert err.startswith("error:") and reason in err


def test_verify_clp_dimension_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n0 1\n")
    code, report, err = run_cli(capsys, "verify-clp", "--n", "3", "--d", "2",
                                "--set", str(bad))
    assert code == 2 and "dimension" in err


def test_verify_all_quick(capsys):
    code, report, _ = run_cli(capsys, "verify-all", "--level", "quick")
    assert code == 0
    criteria = report["result"]["criteria"]
    names = [
        "1_recurrence_exact", "2_root_and_alpha_digits", "3_growth_table",
        "4_method_independence", "5_identity_chain", "6_oracle_domination",
        "7_proof_core", "8_leading_constant", "9_first_correction",
        "10_property_suites"]
    # the verdicts are the report's checks alone, one per criterion
    assert [c["name"] for c in report["checks"]] == names
    assert all(c["pass"] for c in report["checks"])
    assert [list(c) for c in criteria] == [
        ["name", "measured", "elapsed_ms", "timings_ms"]] * len(names)
    assert [c["name"] for c in criteria] == names
    assert all(c["elapsed_ms"] >= 0 for c in criteria)
    measured = {c["name"]: c["measured"] for c in criteria}
    assert measured["2_root_and_alpha_digits"]["alpha_ulp"] <= 1
    assert measured["6_oracle_domination"]["runs"]["3"]["witness"] == [
        0, 1, 3, 4, 9, 10, 14, 17, 23]
    # the searches' wall times sit next to elapsed_ms, not in measured
    assert all("seconds" not in run for run in
               measured["6_oracle_domination"]["runs"].values())
    timings = {c["name"]: c["timings_ms"] for c in criteria}
    assert set(timings["6_oracle_domination"]) == {"1", "2", "3"}
    assert all(t == {} for name, t in timings.items()
               if name != "6_oracle_domination")
    assert measured["8_leading_constant"]["value"]["decimal"].startswith(
        "3.326762746")
    # criterion 9 computes its estimate at quick level too
    assert measured["9_first_correction"]["n_max"] == 600
    estimate = measured["9_first_correction"]["estimate"]
    target = golden.FIRST_CORRECTION
    assert estimate < 0 and abs(estimate - target) <= 0.05 * abs(target)
    assert all("warning" not in c for c in criteria)


# An argv's stand-in for the point file `search --n 2 --out` writes
WITNESS = "WITNESS"


def with_witness(argv, tmp_path, capsys):
    """argv with WITNESS replaced by a file `search --n 2 --out` wrote."""
    out = tmp_path / "w2.txt"
    assert main(["search", "--n", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    return [str(out) if a == WITNESS else a for a in argv]


SADDLE_STAGES = {"bisection", "ladder", "newton", "residual", "constant"}
STAGE_CASES = [
    (["bound", "--n", "30", "--theorem", "--sharp"], None,
     [{"theorem", "sharp"}]),
    (["qnomial", "--n", "10", "--k", "7"], None, [{"row"}]),
    (["growth", "--q", "5", "--method", "both"], None,
     [SADDLE_STAGES | {"ratio"}]),
    (["table", "--qmin", "5", "--qmax", "8"], "rows", [SADDLE_STAGES] * 3),
    (["alpha", "--digits", "100"], None, [{"alpha", "characteristic_root"}]),
    (["leading-constant", "--digits", "100"], None, [{"constant", "check"}]),
    (["verify-recurrence", "--nmax", "50"], None, [{"recurrence"}]),
    (["search", "--n", "3"], None, [{"lower_proofs", "tables", "find",
                                     "identity", "classes", "refute"}]),
    (["verify-clp", "--n", "2", "--d", "2", "--set", WITNESS], None,
     [{"table", "nullspace", "checks"}]),
    (["verify-all"], "criteria",
     [set()] * 5 + [{"1", "2", "3"}] + [set()] * 4),
]


@pytest.mark.parametrize("argv,where,stages", STAGE_CASES,
                         ids=[argv[0] for argv, _, _ in STAGE_CASES])
def test_every_command_reports_its_stage_times(tmp_path, capsys, argv, where,
                                              stages):
    # each timed part of a report (the result, or each table row and
    # verify-all criterion) has timings_ms over its command's stages
    code, report, _ = run_cli(capsys, *with_witness(argv, tmp_path, capsys))
    assert code == 0 and report["elapsed_ms"] >= 0
    parts = report["result"][where] if where else [report["result"]]
    assert [set(part["timings_ms"]) for part in parts] == stages
    assert all(ms >= 0 for part in parts for ms in part["timings_ms"].values())


@pytest.mark.parametrize("argv", [argv for argv, _, _ in STAGE_CASES],
                         ids=[argv[0] for argv, _, _ in STAGE_CASES])
def test_every_command_renders_its_checks_in_one_shape(tmp_path, capsys,
                                                       argv):
    # cli.main renders every check as exactly {name, pass, detail} and
    # exits 1 iff one of them fails, and prints the report as one line in
    # json.dumps's default form, the one json's C encoder writes
    code = main(with_witness(argv, tmp_path, capsys))
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report) + "\n"
    for check in report["checks"]:
        assert list(check) == ["name", "pass", "detail"]
        assert type(check["name"]) is str and type(check["pass"]) is bool
        assert type(check["detail"]) is str
    assert code == (0 if all(c["pass"] for c in report["checks"]) else 1)


def test_one_ratio_tolerance_decides_growth_and_criterion_4(capsys,
                                                            monkeypatch):
    # the tolerance is read where ratio_check decides, so tightening it
    # fails `growth --method both` and criterion 4 alike
    monkeypatch.setattr(asymptotics, "RATIO_TOLERANCE", 1e-9)
    code, report, _ = run_cli(capsys, "growth", "--q", "5", "--method", "both")
    assert code == 1
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [
        ("saddle_ratio_agree", False)]
    assert not acceptance.c4_method_independence("quick").passed


@pytest.mark.parametrize("argv,names", [
    (["leading-constant", "--digits", "9"], []),
    (["leading-constant", "--digits", "10"],
     ["matches_reference_to_10_significant_digits"]),
    (["leading-constant", "--digits", "11"],
     ["matches_reference_to_10_significant_digits"]),
    (["alpha", "--digits", "18"], []),
    (["alpha", "--digits", "19"], ["alpha_matches_reference",
                                   "characteristic_root_matches_reference"]),
])
def test_digit_checks_start_at_their_gates(capsys, argv, names):
    # golden's gates: the leading constant is checked from the 10 places
    # its 10 shared significant digits need, alpha from its pinned places
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == names
    assert all(c["pass"] for c in report["checks"])


def test_missing_file_exit_2(capsys):
    code, report, err = run_cli(capsys, "verify-clp", "--n", "2", "--d", "2",
                                "--set", "/nonexistent/file.txt")
    assert code == 2 and report is None


def test_repeat_invocations_stable(capsys):
    _, first, _ = run_cli(capsys, "bound", "--n", "9", "--sharp")
    _, second, _ = run_cli(capsys, "bound", "--n", "9", "--sharp")
    for report in (first, second):
        report.pop("elapsed_ms")
        report["result"].pop("timings_ms")
    assert first == second


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # each call must start from the defaults, not from what an earlier
    # call parsed
    _, sharp, _ = run_cli(capsys, "bound", "--n", "3", "--sharp")
    assert [b["method"] for b in sharp["result"]["bounds"]] == ["sharp"]
    _, theorem, _ = run_cli(capsys, "bound", "--n", "3", "--theorem")
    assert [b["method"] for b in theorem["result"]["bounds"]] == ["theorem"]
    assert not any(c["name"].startswith("sharp:") for c in theorem["checks"])
    assert theorem["inputs"]["sharp"] is False
    out = tmp_path / "w.txt"
    run_cli(capsys, "search", "--n", "2", "--out", str(out))
    code, _, _ = run_cli(capsys, "verify-clp", "--n", "2", "--d", "2",
                         "--set", str(out))
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify-clp", "--n", "2", "--d", "2"])
    assert exc.value.code == 2
    assert "--set" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--q", "3", "--method", "nonsense"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# the option parser

@pytest.mark.parametrize("argv,fragment", [
    ([], "the following arguments are required: COMMAND"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["search", "--n", "4", "--bogus"], "unrecognized arguments: --bogus"),
    (["bound", "--n", "3", "extra"], "unrecognized arguments: extra"),
    # prefix abbreviations are not expanded
    (["bound", "--n", "3", "--optimize"],
     "unrecognized arguments: --optimize"),
    (["search", "--n"], "argument --n: expected one argument"),
    (["search", "--n", "--budget", "5"],
     "argument --n: expected one argument"),
    (["search", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["search", "--n=4.5"], "argument --n: invalid int value: '4.5'"),
    (["growth", "--q", "5", "--method", "nonsense"],
     "argument --method: invalid choice: 'nonsense'"),
    (["verify-all", "--level=slow"], "argument --level: invalid choice"),
    (["bound", "--n", "3", "--sharp=yes"], "ignored explicit argument 'yes'"),
    (["qnomial", "--n", "6"], "the following arguments are required: --k"),
    (["verify-clp", "--set", "w.txt"],
     "the following arguments are required: --n, --d"),
    (["verify-clp", "--n", "4", "--d", "2"],
     "the following arguments are required: --set"),
    (["verify-clp", "--n", "4", "--d", "2", "--set", "w.txt",
      "--from-search"],
     "unrecognized arguments: --from-search"),
])
def test_usage_errors_exit_2(capsys, argv, fragment):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: capbound")
    assert "error: " in error and fragment in error


def test_option_equals_value_form(capsys):
    _, spaced, _ = run_cli(capsys, "bound", "--n", "6", "--optimize-d")
    _, joined, _ = run_cli(capsys, "bound", "--n=6", "--optimize-d")
    for report in (spaced, joined):
        report.pop("elapsed_ms")
        report["result"].pop("timings_ms")
    assert joined == spaced


def test_repeated_option_keeps_its_last_value(capsys):
    code, report, _ = run_cli(capsys, "qnomial", "--n", "5", "--k", "4",
                              "--n", "6")
    assert code == 0
    assert report["inputs"]["n"] == 6 and report["result"]["value"] == "90"


@pytest.mark.parametrize("argv,names", [
    (["--help"], ["bound", "qnomial", "growth", "table", "alpha",
                  "leading-constant", "verify-recurrence", "search",
                  "verify-clp", "verify-all"]),
    (["-h"], ["COMMAND"]),
    (["bound", "-h"], ["--n", "--d", "--optimize-d", "--theorem",
                       "--sharp"]),
    (["qnomial", "--help"], ["--n", "--k", "--q"]),
    (["growth", "--q", "3", "--help"],
     ["--q", "--digits", "--method {saddle,ratio,both}"]),
    (["table", "-h"], ["--qmin", "--qmax"]),
    (["alpha", "-h"], ["--digits"]),
    (["leading-constant", "-h"], ["--digits"]),
    (["verify-recurrence", "-h"], ["--nmax", "2000"]),
    (["search", "-h"], ["--n", "--budget", "--out", str(MAX_BUDGET)]),
    (["verify-clp", "-h"], ["--n N --d D --set SET"]),
    (["verify-all", "-h"], ["--level {quick,full}"]),
])
def test_help_exits_0(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: capbound")
    assert "|" not in captured.out.splitlines()[0]  # no option groups
    for name in names:
        assert name in captured.out


def test_inputs_are_pinned(tmp_path, capsys):
    # every option in table order; flags read false unless given, defaults
    # are filled in, and options left unset are left out
    reports = [
        run_cli(capsys, "bound", "--n", "6", "--optimize-d")[1],
        run_cli(capsys, "growth", "--q", "3")[1],
    ]
    out = tmp_path / "w.txt"
    run_cli(capsys, "search", "--n", "2", "--out", str(out))
    reports.append(run_cli(capsys, "verify-clp", "--n", "2", "--d", "2",
                           "--set", str(out))[1])
    assert [list(r["inputs"].items()) for r in reports] == [
        [("n", 6), ("optimize_d", True), ("theorem", False),
         ("sharp", False)],
        [("q", 3), ("digits", 40), ("method", "saddle")],
        [("n", 2), ("d", 2), ("set", str(out))],
    ]


def test_import_loads_no_argparse():
    src = str(Path(capbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, capbound.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.strip() == "[]"


def test_oversized_verify_clp_refused_before_reading(tmp_path, capsys,
                                                     monkeypatch):
    # parsing and encoding a point file is quadratic in its width, so an
    # n above the verifier's ceiling is refused before the file is read
    def unread(text):
        raise AssertionError("the point file was read")

    monkeypatch.setattr("capbound.cli.parse_pointset", unread)
    points = tmp_path / "wide.txt"
    points.write_text(" ".join("0" * 1000) + "\n")
    code, report, err = run_cli(capsys, "verify-clp", "--n", "1000", "--d",
                                "2", "--set", str(points))
    assert code == 2 and report is None
    assert err.startswith("error:") and "out of reach for the verifier" in err


@pytest.mark.parametrize("lines", [["0 1 2 " * 2000], ["0 1 2 0", "1 1"]],
                         ids=["wide-first-line", "narrow-second-line"])
def test_verify_clp_refuses_a_wide_point_file_before_encoding(
        tmp_path, capsys, monkeypatch, lines):
    # a point of another width than --n is refused before any point is
    # converted; converting a point of width w costs time quadratic in w.
    # A row is converted by int(row, 3), which the verifier's module
    # namespace shadows here.
    def unconverted(*args):
        raise AssertionError("a point was converted")

    monkeypatch.setattr(verifier, "int", unconverted, raising=False)
    points = tmp_path / "wide.txt"
    points.write_text("\n".join(lines) + "\n")
    code, report, err = run_cli(capsys, "verify-clp", "--n", "4", "--d", "2",
                                "--set", str(points))
    assert code == 2 and report is None
    assert "point file has dimension" in err and "expected 4" in err


@pytest.mark.parametrize("token", OTHER_SPELLINGS)
def test_verify_clp_refuses_other_spellings(tmp_path, capsys, token):
    # a point file holds the digits 0, 1 and 2 alone
    points = tmp_path / "points.txt"
    points.write_text(f"0 1\n1 {token}\n", encoding="utf-8")
    code, report, err = run_cli(capsys, "verify-clp", "--n", "2", "--d", "2",
                                "--set", str(points))
    assert code == 2 and report is None
    assert err == ("error: point file line 2 holds a coordinate other than "
                   "0, 1 or 2\n")


@pytest.mark.parametrize("extra,code", [(0, 0), (1, 2)],
                         ids=["at-the-ceiling", "one-over"])
def test_verify_clp_point_file_ceiling(tmp_path, capsys, extra, code):
    # the file is read to one character past the ceiling, and a longer
    # one is refused before any line is parsed
    ceiling = verifier.POINT_FILE_MAX_CHARS
    points = tmp_path / "long.txt"
    text = "0 0 0 0\n# " + "x" * (ceiling + extra - 11) + "\n"
    assert len(text) == ceiling + extra
    points.write_text(text)
    found, report, err = run_cli(capsys, "verify-clp", "--n", "4", "--d",
                                 "2", "--set", str(points))
    assert found == code
    if code == 2:
        assert report is None
        assert err == f"error: point file exceeds {ceiling} characters\n"
    else:
        assert report["result"]["set_size"] == 1 and err == ""


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_verify_clp_refuses_an_endless_point_file(capsys):
    code, report, err = run_cli(capsys, "verify-clp", "--n", "4", "--d", "2",
                                "--set", "/dev/zero")
    assert code == 2 and report is None
    assert "point file exceeds" in err and "Traceback" not in err
