"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of the traced nilmat modules
under every name a nilmat module binds it to (`from .congruence import
select_modulus` binds a second name), plus `Matrix.__mul__` as
`linalg.matmul`; `uninstall` puts the originals back.  A wrapper records
a span only while an operation runs, so the benchmark's own checks are
not traced.  Self time is span time minus the time of child spans.
Spans are aggregated per name as they close; all but the matmul spans are
also kept (up to a cap) with their parent and operation id, to be written
out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
from random import Random
from time import perf_counter

MODULES = ("linalg", "poly", "splitting", "congruence", "nilpotency", "testkit", "structure", "cli", "witness", "verify")
MATMUL = "linalg.matmul"
SPAN_CAP = 50_000

# sizes read from return values, summed per round
SIZES = {
    "congruence.finite_image_presentation": {"vertices": lambda r: r.image_order, "relators": lambda r: len(r.relators)},
    "congruence.kernel_normal_generators": {"kernel_gens": len},
    "congruence.schreier_kernel_generators": {"vertices": lambda r: r[1]},
    "nilpotency.test_series": {"depth": lambda r: r.depth},
    "testkit.closure_elts": {"elements": len},
    "testkit.closure": {"elements": len},
}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._tables = []          # one {name: row} per thread, merged by collect()
        self._lock = threading.Lock()
        self._patched = []
        self._ids = itertools.count()
        self.active = False
        self.op_id = None
        self.spans = []            # (span id, parent id, op id, name, start, end)

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.table = {}
            with self._lock:
                self._tables.append(st.table)
        return st

    def _wrap(self, fn, name):
        sizes = SIZES.get(name, {})
        keep = name != MATMUL
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st.stack
            sid = next(tracer._ids)
            parent = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                row = st.table.get(name)
                if row is None:
                    row = st.table[name] = dict.fromkeys(("calls", "self_s", "total_s", *sizes), 0)
                row["calls"] += 1
                row["self_s"] += dur - frame[0]
                row["total_s"] += dur
                if keep and len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, parent, tracer.op_id, name, t0, t1))
            for key, size in sizes.items():
                row[key] += size(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        from nilmat.linalg import Matrix

        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"nilmat.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "nilmat" and not modname.startswith("nilmat."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        orig = Matrix.__mul__
        Matrix.__mul__ = self._wrap(orig, MATMUL)
        self._patched.append((Matrix, "__mul__", orig))

    def uninstall(self):
        while self._patched:
            owner, attr, obj = self._patched.pop()
            setattr(owner, attr, obj)

    def collect(self):
        """Merged per-name table of the spans closed since the last call."""
        merged = {}
        with self._lock:
            for table in self._tables:
                for name, row in table.items():
                    into = merged.setdefault(name, dict.fromkeys(row, 0))
                    for k, v in row.items():
                        into[k] += v
                table.clear()
        return merged


# ---------------------------------------------------------------------------
# single-product timings per field

def matmul_us(seed, reps=31, n=8):
    """Median time in microseconds of one n x n Matrix product per field."""
    from fractions import Fraction

    from nilmat.fields import QQ, FiniteField, NumberField
    from nilmat.linalg import Matrix

    rng = Random(seed)
    fields = {
        "gf3": FiniteField(3),
        "gf101": FiniteField(101),
        "gf9": FiniteField(3, 2),
        "gf125": FiniteField(5, 3),
        "q": QQ,
        "nf": NumberField((-2, 0, 1)),
    }

    def entry(F):
        if F is QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if isinstance(F, NumberField):
            return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(F.degree))
        return F.random_element(rng)

    out = {}
    for key, F in fields.items():
        a = Matrix.make(F, [[entry(F) for _ in range(n)] for _ in range(n)])
        b = Matrix.make(F, [[entry(F) for _ in range(n)] for _ in range(n)])
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            a * b
            times.append(perf_counter() - t0)
        times.sort()
        out[key] = times[len(times) // 2] * 1e6
    return out
