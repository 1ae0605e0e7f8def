"""Known-bad: protected state of classes nested in a class body."""
from dataclasses import dataclass

__all__ = []


class Outer:
    @dataclass(frozen=True)
    class Snapshot:
        value: float

        def bump(self):
            object.__setattr__(self, "value", self.value + 1)

    class Running:
        __slots__ = ("_sig_work",)

        def __init__(self, work):
            self._sig_work = (work,)

        def rebind(self, work):
            self._sig_work = (work,)
