"""Known-bad: protected state written from a closure inside a method."""
from dataclasses import dataclass

__all__ = []


@dataclass(frozen=True)
class Snapshot:
    value: float

    def bump_later(self):
        def bump():
            object.__setattr__(self, "value", self.value + 1)

        return bump


class Running:
    __slots__ = ("demand", "_sig_work")

    def __init__(self, demand):
        self.demand = demand
        self._sig_work = (demand,)

    def rebind_later(self, demand):
        def rebind():
            self._sig_work = (demand,)

        return rebind
