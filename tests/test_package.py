"""The package loads a layer only when a caller first uses it: names
resolve lazily from their layers, and the CLI loads the asymptotics
layer only for the commands that run it.  Module loads are checked in
fresh interpreters, so the rest of the suite's imports do not hide
them."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capbound

SRC = str(Path(capbound.__file__).resolve().parents[1])

# every name `capbound` exported when __init__ imported each layer,
# by the layer that defines it
EXPORTS = {
    "asymptotics": [
        "RecurrenceCheck", "SaddleResult", "alpha", "characteristic_root",
        "first_correction_estimate", "growth_constant",
        "growth_constant_ratio", "leading_constant",
        "leading_constant_empirical", "normalized_sharp_bound",
        "saddle_point", "trinomial_middle", "verify_recurrence"],
    "bounds": ["BoundReport", "bound_for_d", "optimal_bound", "sharp_bound",
               "theorem_bound"],
    "capsearch": ["PointSet", "SearchResult", "complete_triple",
                  "decode_point", "encode_point", "is_progression_free",
                  "max_capset"],
    "fixedpoint": ["BigFixed", "icbrt_newton"],
    "qnomial": ["QNomialRow", "mspace_size", "qnomial_row", "row_prefix",
                "series_coeff_bound"],
    "verifier": ["FieldPoly", "Monomial", "VerifierReport", "clp_split",
                 "eval_poly", "expand_neg_sum", "format_pointset",
                 "make_poly", "monomials_up_to", "parse_pointset",
                 "reconstruct_split", "vanishing_space_basis",
                 "verify_support_bound"],
}
LAYERS = ["affine", "asymptotics", "bounds", "capsearch", "fixedpoint",
          "golden", "qnomial", "stages", "verifier"]
ALL = sorted([name for names in EXPORTS.values() for name in names]
             + LAYERS)


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def capbound_layers(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("capbound.")}


def test_import_loads_no_layer():
    modules = loaded_after("import capbound")
    assert "capbound" in modules
    assert capbound_layers(modules) == set()
    assert "fractions" not in modules


def test_a_bound_loads_only_its_layers():
    modules = loaded_after("import capbound\n"
                           "assert capbound.optimal_bound(6).value == 324")
    assert capbound_layers(modules) == {"bounds", "qnomial"}


CLI_RUN = """\
import contextlib, io
from capbound import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {argvs!r}:
        assert cli.main(argv) == 0, argv
"""


def test_fast_commands_load_no_asymptotics(tmp_path):
    witness = str(tmp_path / "w3.txt")
    modules = loaded_after(CLI_RUN.format(argvs=[
        ["qnomial", "--n", "10", "--k", "7"],
        ["bound", "--n", "6", "--optimize-d", "--theorem"],
        ["search", "--n", "3", "--out", witness],
        ["verify-clp", "--n", "3", "--d", "2", "--set", witness]]))
    assert "capbound.cli" in modules
    unloaded = {"capbound.asymptotics", "capbound.fixedpoint",
                "capbound.acceptance", "fractions"}
    assert not unloaded & modules


def test_growth_loads_asymptotics_without_fractions():
    modules = loaded_after(CLI_RUN.format(argvs=[
        ["growth", "--q", "5", "--method", "both"]]))
    assert "capbound.asymptotics" in modules
    assert "fractions" not in modules


def test_digit_checks_load_no_fractions():
    # alpha's two checks against pinned digits run on integer mantissas,
    # in golden beside those digits, without the acceptance battery
    modules = loaded_after(CLI_RUN.format(argvs=[
        ["alpha", "--digits", "20"]]))
    assert "capbound.golden" in modules
    assert not {"capbound.acceptance", "fractions"} & modules


def test_all_lists_the_same_names():
    assert sorted(capbound.__all__) == ALL
    assert [name for name in dir(capbound) if not name.startswith("_")] == ALL
    assert "__version__" in dir(capbound)


@pytest.mark.parametrize("layer", sorted(EXPORTS))
def test_names_resolve_to_their_layer(layer):
    module = importlib.import_module(f"capbound.{layer}")
    for name in EXPORTS[layer]:
        assert getattr(capbound, name) is getattr(module, name), name


def test_layer_names_are_the_submodules():
    for layer in LAYERS:
        assert getattr(capbound, layer) is importlib.import_module(
            f"capbound.{layer}")


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from capbound import *", namespace)
    assert set(ALL) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        capbound.no_such_name  # noqa: B018
    # a layer's own name that the package never exported stays unknown
    with pytest.raises(AttributeError):
        capbound.check_reach  # noqa: B018
    # nor does a name the package no longer exports
    with pytest.raises(AttributeError, match="'pi'"):
        capbound.pi  # noqa: B018
    assert len(capbound.__all__) == 45 + len(LAYERS)
