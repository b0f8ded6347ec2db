"""The stage clock behind every report's `timings_ms`, on a clock that
reads out set times instead of the wall clock."""
from capbound import stages
from capbound.stages import Stages


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
