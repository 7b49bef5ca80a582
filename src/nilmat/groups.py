"""Finitely generated matrix groups: generator lists with cached inverses,
words over the generators used for witnesses and Schreier bookkeeping, and
the one Cayley enumeration engine the pipeline uses.  The engine works on
interned row ids, so a Cayley edge is a few lookups and the field's work is
one call of its row kernel per batch of rows not yet acted on, against all
the generators at once (over GF(q), q <= 64, with n(p - 1) < 256, the rows
are `bytes` and a product is a sum of table entries; over Q and Q(a) they
are integer numerators over one denominator).  A vertex is kept
as its row ids, tree parent and last letter, and its matrix and tree word
are built only when read.  A complete enumeration's table also gives its
central vertices and a generating set of the center, with no matrix
products, and, lifted to a source group, the Schreier generators of the
kernel in one more pass (schreier_generators), which runs on the
source's row ids as the engine does and forms no matrix product.

A Word is a tuple of (generator index, +1 | -1) pairs; the empty word is
the identity.  Pipeline elements travel as Elt pairs (matrix, word) so a
non-trivial claim about an element can always be replayed from the file
generators by plain multiplication.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import count

from .errors import Singular, SingularGenerator
from .linalg import Matrix, inverse
from .record import Frozen, Record

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


class Elt(Frozen):
    """A group element with a word expressing it over the reference generators."""

    __slots__ = ("mat", "word")

    def __init__(self, mat: Matrix, word: Word):
        set_mat, set_word = self._setters
        set_mat(self, mat)
        set_word(self, word)

    def __mul__(self, other):
        return Elt(self.mat * other.mat, word_mul(self.word, other.word))

    def is_identity(self):
        return self.mat.is_identity()


class Enumeration(Record):
    """A breadth-first Cayley enumeration; see enumerate_group.  Its
    table was filled by row-id lookups, and a vertex is the tuple of its
    rows' ids in `rows`.  A vertex's matrix and tree word are built only
    when read, by `vertex(v)` and `word(v)`."""

    __slots__ = (
        "rows",        # _RowAction: the interned rows and the generators' action on them
        "keys",        # row ids of each vertex in breadth-first order, identity first
        "parents",     # array: tree parent of each vertex; the identity's is -1
        "letters",     # array: last letter of each vertex's tree word; the identity's is -1
        "table",       # array: table[v * ngens + i] is the index of vertex v times gens[i]
        "ngens",
        "overflowed",
        "__dict__",    # the cached properties
    )
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, rows, keys, parents, letters, table, ngens, overflowed=False):
        self.rows, self.keys, self.parents, self.letters, self.table = rows, keys, parents, letters, table
        self.ngens, self.overflowed = ngens, overflowed

    def __len__(self):
        return len(self.keys)

    def vertex(self, v) -> Matrix:
        """The matrix of vertex v, read from its interned rows."""
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


class _Ids(dict):
    """Row -> id, a row met for the first time getting the next id and
    being listed in `rows`: one hash per row looked up that is known."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        super().__init__(zip(rows, count()))
        self.rows = list(rows)

    def __missing__(self, row):
        j = self[row] = len(self.rows)
        self.rows.append(row)
        return j


class _RowAction:
    """Interned row vectors of one field and degree, acted on by fixed
    matrices through lookups: every distinct row met gets one id, the
    identity's rows being 0..n-1, and `images[i][r]` is the id of row r
    times mats[i].  The rows, their products and their values come from
    the field's `row_kernel`: `bytes` of element values over a small
    GF(q), integer rows over Q and Q(a), value tuples elsewhere.  `extend`
    multiplies every row not yet acted on by all the matrices in one call
    of the kernel, and `matrix` decodes a key's rows by `values`."""

    def __init__(self, mats):
        self.field = mats[0].field
        self.n = mats[0].n
        ident, self.act, self.values = self.field.row_kernel(mats)
        self.index = _Ids(ident)
        self.points = self.index.rows
        self.images = [[] for _ in mats]
        self.done = 0

    def _act(self, batch):
        """Per matrix, the ids of the rows of batch times that matrix, from
        one call of the row kernel for all the matrices; new rows get ids
        in (matrix, row) order."""
        return [list(map(self.index.__getitem__, prods)) for prods in self.act(batch)]

    def extend(self):
        batch, self.done = self.points[self.done :], len(self.points)
        for img, new in zip(self.images, self._act(batch)):
            img.extend(new)

    def matrix(self, key):
        return Matrix(self.field, tuple(map(self.values, map(self.points.__getitem__, key))))


class _SourceAction(_RowAction):
    """A source side of schreier_generators, over the source field's row
    kernel (integer rows over Q and Q(a)), acting only on the rows asked
    for: `images[i]` maps acted row ids, and `extend` acts on the ids in
    `pending`.  One is built over the lift, for the rows of transversal
    keys, and one over the lift's inverses, for the rows met on the
    nontrivial Schreier keys' walks up the tree."""

    def __init__(self, mats):
        super().__init__(mats)
        self.images = [{} for _ in mats]
        self.pending = set(range(len(self.points)))

    def extend(self):
        ids, self.pending = sorted(self.pending), set()
        for img, new in zip(self.images, self._act([self.points[r] for r in ids])):
            img.update(zip(ids, new))


def enumerate_group(gens, cap: int) -> Enumeration:
    """Breadth-first Cayley enumeration of the group the matrices `gens`
    generate, with a spanning tree of positive-letter words.

    The engine works on row ids (_RowAction): a vertex is the tuple of its
    rows' ids, which is exact since a matrix is its rows, and an edge is n
    list lookups and one dict lookup.  The field works only on new rows:
    when the vertex at the head of the queue holds a row not yet acted on,
    every such row is multiplied by all the generators in one call of the
    field's row kernel.  A vertex keeps only its row ids, its tree parent
    and its last letter; its matrix and word are built when read.

    Stops with `overflowed` set instead of adding a vertex beyond `cap`.
    Every edge looked up is recorded in the Cayley table, and every new
    vertex's tree parent with it; an overflowed enumeration keeps the rows
    it completed.
    """
    if not gens:
        raise ValueError("cannot enumerate a group without generators")
    rows = _RowAction(gens)
    images = rows.images
    k = len(gens)
    ident = tuple(range(rows.n))
    enum = Enumeration(rows, [ident], array("i", [-1]), array("i", [-1]), array("i"), k)
    keys, parents, letters, table = enum.keys, enum.parents, enum.letters, enum.table
    index = {ident: 0}
    qi = 0
    while qi < len(keys):
        v = keys[qi]
        if max(v) >= rows.done:
            rows.extend()
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
            table.append(j)
        qi += 1
    return enum


def schreier_generators(enum: Enumeration, lift) -> list:
    """The nontrivial Schreier generators of a complete enumeration lifted
    to a source group, one Elt each, in table order.

    `lift` holds one source Elt per generator, the source group mapping
    homomorphically onto the enumerated one by lift[i] -> gens[i].  Every
    non-tree edge (v, i, w) gives the Schreier generator T(v) lift[i] T(w)^-1,
    T being the source transversal along the tree; by Schreier's lemma
    these generate the kernel of the map, and the identities among them
    can be left out.  One breadth-first pass over the table builds T on
    source row ids as the engine builds its vertices (_SourceAction), so a
    tree edge maps T(v)'s ids and costs no product; the first edge met
    into vertex w is its tree edge.  When the mapped key of T(v) lift[i]
    equals T(w)'s the generator is the identity and nothing is recorded;
    otherwise the edge is kept with that key.

    No Matrix product is formed.  The kept keys are interned in a second
    row action, over the lift's inverses, and walked up their targets'
    tree paths in lockstep: T(w) = T(parent(w)) lift[letter(w)], so each
    level maps a key through lift[letter(u)]^-1 and moves u to its parent,
    one extend per level acting on the rows not yet acted on.  Each key
    then holds the rows of T(v) lift[i] T(w)^-1, which are canonical, so
    each distinct key is decoded once and its edges share the Matrix.  A
    generator's word is T(v)'s and T(w)'s tree words mapped through the
    lift's words.
    """
    if enum.overflowed:
        raise ValueError("Schreier generators need a complete enumeration")
    k, table, parents, letters = enum.ngens, enum.table, enum.parents, enum.letters
    src = _SourceAction([s.mat for s in lift])
    simages = src.images
    tkeys = [tuple(range(src.n))]
    edges = []
    for v in range(len(enum)):
        t = tkeys[v]
        if not src.pending.isdisjoint(t):
            src.extend()
        for i in range(k):
            w, tw = table[v * k + i], tuple(map(simages[i].__getitem__, t))
            if w == len(tkeys):
                tkeys.append(tw)
                src.pending.update(r for r in tw if r not in simages[0])
            elif tw != tkeys[w]:
                edges.append((v, i, w, tw))
    if not edges:
        return []

    inv = _SourceAction([inverse(s.mat) for s in lift])
    iimages, intern = inv.images, inv.index.__getitem__
    keys = [tuple(map(intern, map(src.points.__getitem__, tw))) for *_, tw in edges]
    at = [w for _, _, w, _ in edges]
    live = [e for e, u in enumerate(at) if u]
    while live:
        inv.pending = {r for e in live for r in keys[e] if r not in iimages[0]}
        if inv.pending:
            inv.extend()
        for e in live:
            u = at[e]
            keys[e], at[e] = tuple(map(iimages[letters[u]].__getitem__, keys[e])), parents[u]
        live = [e for e in live if at[e]]

    def tword(v):
        return word_mul(*(lift[i].word for i, _ in enum.word(v)))

    mats, out = {}, []
    for (v, i, w, _), key in zip(edges, keys):
        if key not in mats:
            mats[key] = inv.matrix(key)
        out.append(Elt(mats[key], word_mul(tword(v), lift[i].word, word_inverse(tword(w)))))
    return out


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
