"""End-to-end CLI checks: JSON shape, exit codes, file interop, and the
stability of repeated invocations."""
import json

import pytest

from capbound.cli import main
from capbound.qnomial import qnomial
from capbound.verifier import parse_pointset


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


def test_search_writes_pointset(tmp_path, capsys):
    out = tmp_path / "witness.txt"
    code, report, _ = run_cli(capsys, "search", "--n", "2", "--out", str(out))
    assert code == 0
    assert report["result"]["max_size"] == 4
    assert report["result"]["proven_optimal"] is True
    assert report["result"]["witness"] == ["0 0", "0 1", "1 0", "1 1"]
    ps = parse_pointset(out.read_text())
    assert ps.points == (0, 1, 3, 4)


def test_search_with_budget(capsys):
    code, report, _ = run_cli(capsys, "search", "--n", "3", "--budget", "10")
    assert code == 0
    assert report["result"]["proven_optimal"] is False


@pytest.mark.parametrize("argv,reason", [
    (("search", "--n", "5"), "needs a node budget"),
    (("search", "--n", "6", "--budget", "10"), "out of reach"),
    (("verify-clp", "--n", "5", "--d", "2", "--from-search"),
     "needs a node budget"),
])
def test_search_out_of_reach_exit_2(capsys, argv, reason):
    # refused before any search table is built, so this returns at once
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report is None
    assert err.startswith("error:") and reason in err


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
    assert len(report["checks"]) == 4
    assert all(c["pass"] for c in report["checks"])


def test_verify_clp_from_search(capsys):
    code, report, _ = run_cli(capsys, "verify-clp", "--n", "1", "--d", "1",
                              "--from-search")
    assert code == 0
    assert report["result"]["dim_v"] == 1
    assert report["result"]["support_cap"] == 2


def test_verify_clp_dimension_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n0 1\n")
    code, report, err = run_cli(capsys, "verify-clp", "--n", "3", "--d", "2",
                                "--set", str(bad))
    assert code == 2 and "dimension" in err


def test_missing_file_exit_2(capsys):
    code, report, err = run_cli(capsys, "verify-clp", "--n", "2", "--d", "2",
                                "--set", "/nonexistent/file.txt")
    assert code == 2 and report is None


def test_repeat_invocations_stable(capsys):
    _, first, _ = run_cli(capsys, "bound", "--n", "9", "--sharp")
    _, second, _ = run_cli(capsys, "bound", "--n", "9", "--sharp")
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--q", "3", "--method", "nonsense"])
    assert exc.value.code == 2
