"""The plumbing of every report: the one shape of its checks, the stage
clock behind its `timings_ms`, and the one spelling of its big integers
as decimal strings, with the one reading of them back."""
import sys
from time import perf_counter


class Check:
    """A named pass/fail verdict and its detail, made where its rule lives
    and rendered by cli.main alone; a plain class, as cli._Opt is."""
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.name, self.passed, self.detail = name, passed, detail

    def __eq__(self, other) -> bool:
        if not isinstance(other, Check):
            return NotImplemented
        return ((self.name, self.passed, self.detail)
                == (other.name, other.passed, other.detail))

    def __repr__(self) -> str:
        return f"Check({self.name!r}, {self.passed!r}, {self.detail!r})"


class Stages:
    """Wall time per stage of one call.  Each lap charges its stage the
    time since the previous lap (or the start), a stage charged twice adds
    up, and `ms` gives each stage in ms to 3 places: those named at
    construction first, at 0.0 if never charged.  A class alone, since the
    benchmark's tracer makes every public function of the package a span."""
    __slots__ = ("seconds", "end")

    def __init__(self, *names) -> None:
        self.seconds = dict.fromkeys(names, 0.0)
        self.end = perf_counter()

    def lap(self, stage) -> None:
        now = perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self.end
        self.end = now

    @property
    def ms(self) -> dict:
        return {k: round(s * 1000, 3) for k, s in self.seconds.items()}


def _int_str(x: int) -> str:
    """str(x) of any length: the interpreter's digit limit (4300 by
    default, Python >= 3.10.7) is lifted for this one conversion only.
    Private, so the benchmark's tracer makes no span of it."""
    return _unlimited(str, x)


def _str_int(text: str) -> int:
    """int(text) of any length, the inverse of _int_str, with the digit
    limit lifted for this one conversion only."""
    return _unlimited(int, text)


def _unlimited(convert, value):
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is None:
        return convert(value)
    sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        sys.set_int_max_str_digits(saved)
