"""The one shape of a report's checks; the stage clock behind every
report's `timings_ms`, on a clock that reads out set times instead of
the wall clock; and the one spelling of big integers and its reading
back, which leave the interpreter's digit limit as it was."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capbound
from capbound import stages
from capbound.stages import Check, Stages, _int_str, _str_int


def test_laps_charge_the_time_since_the_previous_lap(monkeypatch):
    ticks = iter([10.0, 10.25, 10.5, 11.0, 11.0012344])
    monkeypatch.setattr(stages, "perf_counter", lambda: next(ticks))
    clock = Stages("find", "refute")
    clock.lap("find")
    clock.lap("tables")
    clock.lap("find")
    clock.lap(4)
    # find is charged twice and reports the sum, refute is named but
    # never charged, stages named at construction come first, and every
    # value is ms rounded to 3 places
    assert clock.ms == {"find": 750.0, "refute": 0.0, "tables": 250.0,
                        4: 1.234}
    assert list(clock.ms) == ["find", "refute", "tables", 4]


def test_a_check_is_a_plain_slotted_verdict():
    check = Check("rank_cap", True, "max rank 8 <= 34")
    assert (check.name, check.passed, check.detail) == (
        "rank_cap", True, "max rank 8 <= 34")
    # equal on its three fields alone, and shown by them
    assert check == Check("rank_cap", True, "max rank 8 <= 34")
    assert check != Check("rank_cap", False, "max rank 8 <= 34")
    assert check != Check("rank_cap", True, "max rank 9 <= 34")
    assert check != Check("support_cap", True, "max rank 8 <= 34")
    assert check != ("rank_cap", True, "max rank 8 <= 34")
    assert repr(check) == "Check('rank_cap', True, 'max rank 8 <= 34')"
    with pytest.raises(AttributeError):
        check.extra = 1  # no field beyond the three


limit_api = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                               reason="no int-to-str digit limit")


@limit_api
def test_int_str_lifts_the_limit_for_one_conversion():
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        value = 7 * 10**5000 + 1
        assert _int_str(value) == "7" + "0" * 4999 + "1"
        assert _int_str(-value) == "-7" + "0" * 4999 + "1"
        assert sys.get_int_max_str_digits() == 640
        with pytest.raises(ValueError):
            str(value)
        assert _str_int("7" + "0" * 4999 + "1") == value
        assert _str_int("-7" + "0" * 4999 + "1") == -value
        assert sys.get_int_max_str_digits() == 640
        with pytest.raises(ValueError):
            int("7" + "0" * 4999 + "1")
    finally:
        sys.set_int_max_str_digits(saved)


SPELLED = """\
import contextlib, io, json, sys
import capbound
limit = sys.get_int_max_str_digits()
assert limit > 0, limit
decimal = capbound.alpha(30000).decimal()
assert len(decimal.partition(".")[2]) == 30000
assert "capbound.cli" not in sys.modules
assert sys.get_int_max_str_digits() == limit
from capbound import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["qnomial", "--n", "18000", "--k", "9000"]) == 0
assert len(json.loads(out.getvalue())["result"]["value"]) > limit
assert sys.get_int_max_str_digits() == limit
print("ok")
"""


READ_BACK = """\
import sys
from capbound import alpha
from capbound.fixedpoint import BigFixed
limit = sys.get_int_max_str_digits()
assert limit > 0, limit
value = alpha(30000)
assert BigFixed.from_decimal(value.decimal()) == value
assert sys.get_int_max_str_digits() == limit
print("ok")
"""


def run_fresh(code):
    """Run code in a fresh interpreter at the default digit limit and
    return its output."""
    src = str(Path(capbound.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONINTMAXSTRDIGITS"}
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(env, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@limit_api
def test_library_and_cli_spell_big_values_under_the_limit():
    # no command wraps the process: alpha's 30,000 decimals spell without
    # the CLI, and a command's 7,043-digit value leaves the limit as it was
    assert run_fresh(SPELLED) == "ok\n"


@limit_api
def test_big_decimals_read_back_under_the_limit():
    # alpha's 30,000 decimals parse back to the same value, and the
    # limit is as it was afterwards
    assert run_fresh(READ_BACK) == "ok\n"
