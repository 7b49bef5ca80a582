"""Run configuration: budgets, caps, and determinism knobs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    prime_cap: int = 2**20          # largest reduction prime tried
    prefer_p_gt_n: bool = True      # soft preference for primes above the degree
    cayley_cap: int = 10**6         # Cayley graph vertex budget for presentations
    closure_cap: int = 10**5        # element budget for subgroup closures
    order_cap: int = 10**6          # power iteration budget for element orders
    eval_cap: int = 200             # evaluation points tried for function fields
    seed: int = 0                   # drives the extension-modulus search
    prime_override: int | None = None

    def with_(self, **kw):
        d = self.__dict__.copy()
        d.update(kw)
        return Config(**d)


DEFAULT = Config()
