"""The stage clock behind every report's `timings_ms`, on a clock that
reads out set times instead of the wall clock, and the one spelling of
big integers, which leaves the interpreter's digit limit as it was."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capbound
from capbound import stages
from capbound.stages import Stages, _int_str


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


@limit_api
def test_library_and_cli_spell_big_values_under_the_limit():
    # no command wraps the process: alpha's 30,000 decimals spell without
    # the CLI, and a command's 7,043-digit value leaves the limit as it was
    src = str(Path(capbound.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONINTMAXSTRDIGITS"}
    done = subprocess.run([sys.executable, "-c", SPELLED],
                          env=dict(env, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
