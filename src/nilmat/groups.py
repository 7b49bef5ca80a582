"""Finitely generated matrix groups: generator lists with cached inverses,
words over the generators used for witnesses and Schreier bookkeeping, and
the one Cayley enumeration engine the pipeline uses.  The engine works on
interned row ids, so a Cayley edge is a few lookups and the field's work is
one product per batch of rows not yet acted on, against all the
generators' columns at once; the transversal of a lift to a source group
runs on the source's row ids alike.  A vertex is kept as its row ids, tree
parent and last letter, and its matrix and tree word are built only when
read.  A complete enumeration's table also gives its central vertices and
a generating set of the center, with no matrix products.

A Word is a tuple of (generator index, +1 | -1) pairs; the empty word is
the identity.  Pipeline elements travel as Elt pairs (matrix, word) so a
non-trivial claim about an element can always be replayed from the file
generators by plain multiplication.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dfield
from functools import cached_property

from .errors import Singular, SingularGenerator
from .linalg import Matrix, inverse

Word = tuple


def word_inverse(w: Word) -> Word:
    return tuple((i, -e) for i, e in reversed(w))


def word_mul(*ws) -> Word:
    out = []
    for w in ws:
        for i, e in w:
            if out and out[-1][0] == i and out[-1][1] == -e:
                out.pop()
            else:
                out.append((i, e))
    return tuple(out)


def evaluate_word(w: Word, gens, invs) -> Matrix:
    if not gens:
        raise ValueError("cannot evaluate a word without generators")
    out = Matrix.identity(gens[0].field, gens[0].n)
    for i, e in w:
        out = out * (gens[i] if e == 1 else invs[i])
    return out


@dataclass(frozen=True)
class Elt:
    """A group element with a word expressing it over the reference generators."""

    mat: Matrix
    word: Word

    def __mul__(self, other):
        return Elt(self.mat * other.mat, word_mul(self.word, other.word))

    def is_identity(self):
        return self.mat.is_identity()


def dedup_elts(elts):
    """Each distinct matrix of elts once, at its first occurrence, lazily."""
    seen = set()
    for e in elts:
        if e.mat not in seen:
            seen.add(e.mat)
            yield e


@dataclass(eq=False)
class Enumeration:
    """A breadth-first Cayley enumeration; see enumerate_group.  Its
    table was filled by row-id lookups, and a vertex is the tuple of its
    rows' ids in `rows`.  A vertex's matrix and tree word are built only
    when read: `vertex(v)` and `word(v)` build one, and `vertices` and
    `words` the whole list on first read."""

    rows: _RowAction   # the interned rows and the generators' action on them
    keys: list         # row ids of each vertex in breadth-first order, identity first
    parents: array     # tree parent of each vertex; the identity's is -1
    letters: array     # last letter of each vertex's tree word; the identity's is -1
    table: array       # table[v * ngens + i] is the index of vertex v times gens[i]
    ngens: int
    overflowed: bool = False
    schreier: list = dfield(default_factory=list)  # with a lift: one Elt per nontrivial Schreier generator, in discovery order

    def __len__(self):
        return len(self.keys)

    def vertex(self, v) -> Matrix:
        """The matrix of vertex v, sharing the interned row tuples."""
        return self.rows.matrix(self.keys[v])

    def word(self, v) -> Word:
        """The tree word of vertex v over the generator indices, read up
        its parents."""
        out = []
        while v > 0:
            out.append((self.letters[v], 1))
            v = self.parents[v]
        return tuple(reversed(out))

    @cached_property
    def vertices(self) -> list:
        return [self.vertex(v) for v in range(len(self))]

    @cached_property
    def words(self) -> list:
        out = [()]
        for v in range(1, len(self)):
            out.append(out[self.parents[v]] + ((self.letters[v], 1),))
        return out

    @cached_property
    def central(self) -> bytearray:
        """Flags of the central vertices of a complete enumeration, read off
        the Cayley table with no matrix products; their count is |Z|.

        Left multiplication by g_i follows the tree: g_i v is g_i parent(v)
        times v's last letter, one table lookup per vertex, and v is
        central iff g_i v = v g_i for every i."""
        n, k, table, parents, letters = len(self), self.ngens, self.table, self.parents, self.letters
        central = bytearray(b"\x01") * n
        for i in range(k):
            left = [table[i]] * n
            for v in range(1, n):
                lv = left[v] = table[left[parents[v]] * k + letters[v]]
                if lv != table[v * k + i]:
                    central[v] = 0
        return central

    def center(self) -> list:
        """Indices of vertices generating the center of a complete
        enumeration.

        A central vertex outside the span of those already chosen is
        chosen, in breadth-first order; each choice multiplies the span's
        order by at least the smallest prime dividing |Z|, so a p-group
        gets at most log_p |Z| generators.  The span grows coset by coset,
        walking the chosen vertex's tree word through the table.
        """
        n, k, table, central = len(self), self.ngens, self.table, self.central
        span = bytearray(n)
        span[0] = 1
        members = [0]
        out = []
        for v in range(1, n):
            if not central[v] or span[v]:
                continue
            out.append(v)
            path = [i for i, _ in self.word(v)]
            coset = list(members)
            while True:
                for a in path:
                    coset = [table[x * k + a] for x in coset]
                if span[coset[0]]:
                    break
                for x in coset:
                    span[x] = 1
                members.extend(coset)
        return out


class _RowAction:
    """Interned row vectors of one field and degree, acted on by fixed
    matrices through lookups: every distinct row met gets one id, the
    identity's rows being 0..n-1, and `images[i][r]` is the id of row r
    times mats[i].  `extend` multiplies every row not yet acted on by all
    the matrices in one batched `Field.matmul`."""

    def __init__(self, mats):
        self.field = mats[0].field
        self.n = mats[0].n
        self.points = list(Matrix.identity(self.field, self.n).rows)
        self.index = {r: j for j, r in enumerate(self.points)}
        # every matrix's columns side by side: a product row holds one
        # n-slice per matrix
        self.cols = tuple(c for m in mats for c in zip(*m.rows))
        self.images = [[] for _ in mats]
        self.done = 0

    def _act(self, batch):
        """Per matrix, the ids of the rows of batch times that matrix, cut
        from one product of batch with all the matrices' columns."""
        points, index, n = self.points, self.index, self.n
        prods = self.field.matmul(batch, self.cols)
        for s in range(0, len(self.cols), n):
            img = []
            for prod in prods:
                r = prod[s : s + n]
                j = index.setdefault(r, len(points))
                if j == len(points):
                    points.append(r)
                img.append(j)
            yield img

    def extend(self):
        batch, self.done = self.points[self.done :], len(self.points)
        for img, new in zip(self.images, self._act(batch)):
            img.extend(new)

    def matrix(self, key):
        return Matrix(self.field, tuple(map(self.points.__getitem__, key)))


class _SourceAction(_RowAction):
    """A lift's source side: only rows of transversal keys are acted on, as
    the rows of nontrivial Schreier keys are only read back by `matrix`;
    `images[i]` maps acted row ids, `extend` acts on the ids in `pending`."""

    def __init__(self, mats):
        super().__init__(mats)
        self.images = [{} for _ in mats]
        self.pending = set(range(len(self.points)))

    def extend(self):
        ids, self.pending = sorted(self.pending), set()
        for img, new in zip(self.images, self._act([self.points[r] for r in ids])):
            img.update(zip(ids, new))


def enumerate_group(gens, cap: int, lift=None) -> Enumeration:
    """Breadth-first Cayley enumeration of the group the matrices `gens`
    generate, with a spanning tree of positive-letter words.

    The engine works on row ids (_RowAction): a vertex is the tuple of its
    rows' ids, which is exact since a matrix is its rows, and an edge is n
    list lookups and one dict lookup.  The field works only on new rows:
    when the vertex at the head of the queue holds a row not yet acted on,
    every such row is multiplied by all the generators in one batched
    `Field.matmul`.  A vertex keeps only its row ids, its tree parent and
    its last letter; its matrix and word are built when read.

    Stops with `overflowed` set instead of adding a vertex beyond `cap`.
    Every edge looked up is recorded in the Cayley table, and every new
    vertex's tree parent with it; an overflowed enumeration keeps the rows
    it completed.

    With `lift` (one source Elt per generator, the source group mapping
    homomorphically onto the enumerated one by lift[i] -> gens[i]), every
    non-tree edge (v, i, w) gives the Schreier generator T(v) lift[i] T(w)^-1,
    T being the source transversal along the tree; by Schreier's lemma
    these generate the kernel of the map, and the identities among them
    can be left out.  The transversal runs on source row ids the same way,
    so a tree edge maps T(v)'s ids and costs no product.  When the mapped
    key of T(v) lift[i] equals T(w)'s the generator is the identity and
    nothing is recorded; otherwise that key's matrix is multiplied once by
    T(w)^-1, which is built along the tree from the lift's inverses on
    first need and kept for the call, and its word is T(v)'s and T(w)'s
    tree words mapped through the lift's words.
    """
    if not gens:
        raise ValueError("cannot enumerate a group without generators")
    rows = _RowAction(gens)
    images = rows.images
    k = len(gens)
    ident = tuple(range(rows.n))
    enum = Enumeration(rows, [ident], array("i", [-1]), array("i", [-1]), array("i"), k)
    keys, parents, letters, table, schreier = enum.keys, enum.parents, enum.letters, enum.table, enum.schreier
    index = {ident: 0}
    if lift is not None:
        src = _SourceAction([s.mat for s in lift])
        simages = src.images
        tkeys = [tuple(range(lift[0].mat.n))]
        tinvs, lift_invs = {0: Matrix.identity(src.field, lift[0].mat.n)}, [None] * k

        def tword(v):
            return word_mul(*(lift[i].word for i, _ in enum.word(v)))

        def tinv(v):
            path = []
            while v not in tinvs:
                path.append(v)
                v = parents[v]
            out = tinvs[v]
            for u in reversed(path):
                i = letters[u]
                if lift_invs[i] is None:
                    lift_invs[i] = inverse(lift[i].mat)
                out = tinvs[u] = lift_invs[i] * out
            return out

    qi = 0
    while qi < len(keys):
        v = keys[qi]
        if max(v) >= rows.done:
            rows.extend()
        if lift is not None:
            t = tkeys[qi]
            if not src.pending.isdisjoint(t):
                src.extend()
        for i, img in enumerate(images):
            w = tuple(map(img.__getitem__, v))
            j = index.get(w)
            if j is None:
                if len(keys) >= cap:
                    del table[qi * k :]
                    enum.overflowed = True
                    return enum
                j = index[w] = len(keys)
                keys.append(w)
                parents.append(qi)
                letters.append(i)
                if lift is not None:
                    tkeys.append(tuple(map(simages[i].__getitem__, t)))
                    src.pending.update(r for r in tkeys[-1] if r not in simages[0])
            elif lift is not None:
                tw = tuple(map(simages[i].__getitem__, t))
                if tw != tkeys[j]:
                    word = word_mul(tword(qi), lift[i].word, word_inverse(tword(j)))
                    schreier.append(Elt(src.matrix(tw) * tinv(j), word))
            table.append(j)
        qi += 1
    return enum


class GroupSpec:
    """A coefficient field plus invertible square generators with cached inverses."""

    def __init__(self, field, gens):
        gens = list(gens)
        if gens:
            n = gens[0].n
            for g in gens:
                if not g.is_square() or g.n != n:
                    raise SingularGenerator("generators must be square and of equal size")
            self.degree = n
        else:
            self.degree = 1
            gens = []
        self.field = field
        self.gens = tuple(gens)
        try:
            self.invs = tuple(inverse(g) for g in self.gens)
        except Singular as e:
            raise SingularGenerator(str(e)) from None

    @property
    def identity(self):
        return Matrix.identity(self.field, self.degree)

    def elts(self):
        """Generators paired with their single-letter words."""
        return [Elt(g, ((i, 1),)) for i, g in enumerate(self.gens)]

    def evaluate(self, w: Word) -> Matrix:
        if not self.gens:
            return self.identity
        return evaluate_word(w, self.gens, self.invs)

    def is_trivial(self):
        return all(g.is_identity() for g in self.gens)

    def __repr__(self):
        return f"GroupSpec({self.field.name()}, degree {self.degree}, {len(self.gens)} generators)"
