"""Known-good: closures and nested classes that build protected state
during construction, and a closure whose own parameter is not the
receiver."""
from dataclasses import dataclass

__all__ = []


@dataclass(frozen=True)
class Snapshot:
    value: float
    doubled: float = 0.0

    def __post_init__(self):
        def fill():
            object.__setattr__(self, "doubled", self.value * 2)

        fill()

    def plus(self, other):
        def build(target):
            target._sig_work = (self.value + other,)
            return target

        return build


class Outer:
    class Running:
        __slots__ = ("_sig_work",)

        def __init__(self, work):
            self._sig_work = (work,)
