"""Witness objects backing every negative verdict.

A witness embeds the offending matrices together with words over a stated
reference generator set, so a third party can replay the claim with plain
matrix arithmetic.  Witnesses found in a congruence image embed that
generator set too; their words also make sense over the original
generators, since both sides of a homomorphism satisfy the same word
identities.  The verifier rejects a context the pipeline does not emit
(verify.CONTEXTS).
"""

from __future__ import annotations

from .linalg import Matrix
from .record import Frozen


class WItem(Frozen):
    __slots__ = ("label", "mat", "word", "data")   # mat: a Matrix or None
    _defaults = {"mat": None, "word": None, "data": dict}


class Witness(Frozen):
    # context: the generators the words index (input | jordan_parts | u_parts | s_parts | image); items: WItems
    __slots__ = ("kind", "context", "items", "note")
    _defaults = {"note": ""}

    def find(self, label):
        for it in self.items:
            if it.label == label:
                return it
        return None


def serialize_matrix(m: Matrix):
    return {"field": m.field.to_json(), "rows": [[m.field.format(c) for c in row] for row in m.rows]}


def serialize_word(w):
    return [[i, e] for i, e in w] if w is not None else None


def serialize_witness(w: Witness):
    return {
        "kind": w.kind,
        "context": w.context,
        "note": w.note,
        "items": [
            {
                "label": it.label,
                "word": serialize_word(it.word),
                "matrix": serialize_matrix(it.mat) if it.mat is not None else None,
                "data": it.data,
            }
            for it in w.items
        ],
    }


def deserialize_matrix(d, seed=0):
    from .fields import field_from_json

    F = field_from_json(d["field"], seed=seed)
    rows = [[F.parse(c) for c in row] for row in d["rows"]]
    return Matrix.make(F, rows)


def deserialize_word(lst):
    if lst is None:
        return None
    return tuple((int(i), int(e)) for i, e in lst)


def deserialize_witness(d):
    items = tuple(
        WItem(
            it["label"],
            deserialize_matrix(it["matrix"]) if it.get("matrix") else None,
            deserialize_word(it.get("word")),
            it.get("data", {}),
        )
        for it in d.get("items", [])
    )
    return Witness(d["kind"], d.get("context", "input"), items, d.get("note", ""))
