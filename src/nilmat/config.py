"""Run configuration: budgets, caps, and determinism knobs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    cayley_cap: int = 10**6         # reported in the CLI's flags only; no enumeration reads it
    closure_cap: int = 10**5        # element budget for subgroup closures
    seed: int = 0                   # drives the extension-modulus search
    prime_override: int | None = None

    def with_(self, **kw):
        d = self.__dict__.copy()
        d.update(kw)
        return Config(**d)


DEFAULT = Config()
