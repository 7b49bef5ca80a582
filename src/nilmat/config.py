"""Run configuration: budgets, caps, the modulus-search seed and the prime override."""

from __future__ import annotations

from .record import Frozen


class Config(Frozen):
    # closure_cap is the element budget for subgroup closures; seed drives the extension-modulus search
    __slots__ = ("closure_cap", "seed", "prime_override")
    _defaults = {"closure_cap": 10**5, "seed": 0, "prime_override": None}

    def with_(self, **kw):
        return Config(**{**{f: getattr(self, f) for f in self._fields}, **kw})


DEFAULT = Config()
