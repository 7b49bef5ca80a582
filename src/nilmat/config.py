"""Run configuration: budgets, caps, the modulus-search seed and the prime override."""

from __future__ import annotations

from .record import Frozen


class Config(Frozen):
    # cayley_cap is reported in the CLI's flags only (no enumeration reads it); closure_cap is the
    # element budget for subgroup closures; seed drives the extension-modulus search
    __slots__ = ("cayley_cap", "closure_cap", "seed", "prime_override")
    _defaults = {"cayley_cap": 10**6, "closure_cap": 10**5, "seed": 0, "prime_override": None}

    def with_(self, **kw):
        return Config(**{**{f: getattr(self, f) for f in self._fields}, **kw})


DEFAULT = Config()
