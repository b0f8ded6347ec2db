"""The stage clock behind every report's `timings_ms`."""
from time import perf_counter


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
