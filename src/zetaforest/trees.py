"""2-colored rooted trees with a non-negative integer index on each edge.

Trees are non-planar: equality of shapes is decided by a canonical AHU-style
encoding (`Tree.key`), which doubles as the text format of the tree DSL

    node  := color "(" [edge ("," edge)*] ")"
    edge  := nat ":" node
    color := "b" | "w"

with the outermost node the root and whitespace insignificant.  Children are
rendered sorted by (edge index, child encoding), so two trees are isomorphic
(root-, color- and index-preserving) exactly when their keys coincide.  One
walk per tree computes that order and the key; `Tree.kids` caches it, and
`key`, `tree_to_json` and `cap_phi_hat` read it.  A black leaf costs that
walk no sort or join: its encoding is the constant b().

Every terminal vertex must be black; a vertex of degree <= 1 counts as a
terminal, so the single-vertex tree must be black (it is the unit of the
glue-at-the-roots product).  `Tree.build` checks all of this, and
`parse_tree` checks the one rule its grammar leaves open, that terminals are
black, so a tree is valid once it exists and no operation on it checks its
structure again.

The tree-level symmetrization re-roots its input at every black vertex with
bumped path indices.  A term is an isomorphism class, named by its key:
`cap_phi_hat` keys every term in one walk down the input, where each vertex
hands its children the encodings of what lies above them, so a shared path
prefix is encoded once and each term costs one encoding of its new root,
joined from the term's new child and two strings per sibling slot.  A black
leaf is not visited: its parent keys the leaf's terms, b(k:s) for each
encoding s of what lies above the leaf.  `symmetrization_terms` parses its
trees back from those keys.

The terms do not depend on M, so `symmetrization_terms` keeps them in the
package's one cache, `table.TABLE`, keyed by the tree's fields (root,
black, white, edges) and the t-order: an equal tree parsed anew reads the
same term objects, and no ``Tree`` is kept alive by a key.
`harvestable_form` returns a tree it would not change, a harvestable one
with no 0-edge, as itself.  `w_word` and `is_harvestable` build the
adjacency and orientation they read for each call, so a stored term tree
keeps only what it was charged for.
"""

from __future__ import annotations

from bisect import bisect
from functools import cached_property
from typing import Callable, Iterable

from .combo import Combo, accumulate
from .errors import (
    InvalidTree,
    NegativeEdgeIndex,
    NotATree,
    NotConnected,
    NotEssentiallyPositive,
    NotHarvestable,
    RootNotBlack,
    TerminalNotBlack,
    TreeSyntaxError,
    UnknownVertex,
)
from .indices import bumps
from .series import TSeries
from .table import TABLE, memo
from .words import HElem, right_mul_x_pow, shuffle_all


def adjacency(t: Tree) -> dict:
    """Each vertex's neighbours, with the index of the edge to each, built
    from `t.edges` for one call.  Unlike the cached `Tree.adj`, it is kept
    nowhere, so a tree that a table or a caller keeps carries no O(V) maps
    for it."""
    adj: dict[int, dict[int, int]] = {t.root: {}}
    for u, v, k in t.edges:
        adj.setdefault(u, {})[v] = k
        adj.setdefault(v, {})[u] = k
    return adj


def orient(adj: dict, top: int) -> dict:
    """Parent map of the tree with adjacency `adj` hung from `top`, which
    maps to None.

    Breadth-first, so every vertex is listed after its parent and the
    reversed map lists children before parents.  O(V).
    """
    if top not in adj:
        raise UnknownVertex(f"root {top} is not a vertex")
    par: dict[int, int | None] = {top: None}
    seq = [top]
    for v in seq:
        for w in adj[v]:
            if w not in par:
                par[w] = v
                seq.append(w)
    return par


class Tree:
    """A tree: its root, its black and its white vertex ids, and its edges
    (u, v, k) with index k, which `build` orders as u < v and sorts.

    `build` is the public constructor, and it validates.  The positional one
    is internal, for trees valid by construction whose edges are already
    ordered and sorted.

    Immutable, equal and hashed by those four fields.  A plain class, not a
    dataclass, so that loading it does not load `dataclasses` and `inspect`;
    its `__dict__` holds the fields and what the cached properties compute.
    `kids` caches the one canonical walk, and `key` with it.
    """

    def __init__(self, root: int, black: frozenset, white: frozenset, edges: tuple):
        d = self.__dict__  # past the __setattr__ below, which refuses every write
        d["root"], d["black"], d["white"], d["edges"] = root, black, white, edges

    def __setattr__(self, name, value):
        raise AttributeError(f"a Tree is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Tree is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.root, self.black, self.white, self.edges) == (
            other.root, other.black, other.white, other.edges)

    def __hash__(self) -> int:
        return hash((self.root, self.black, self.white, self.edges))

    @classmethod
    def build(cls, root: int, black: Iterable[int], white: Iterable[int],
              edges: Iterable[tuple[int, int, int]]) -> "Tree":
        """The tree with these fields, edges ordered and sorted; raises
        `InvalidTree` if a vertex id or an edge index is not an ``int``
        (``bool`` included), or the `InvalidTree` or `UnknownVertex` error
        of `validate` if it is not a valid 2-colored rooted tree."""
        black, white, edges = tuple(black), tuple(white), tuple(edges)
        for x in (root, *black, *white, *(end for e in edges for end in e[:2])):
            if type(x) is not int:
                raise InvalidTree(f"vertex id {x!r} is not an int")
        for u, v, k in edges:
            if type(k) is not int:
                raise InvalidTree(f"edge {u}-{v} carries index {k!r}, not an int")
        es = tuple(sorted((min(u, v), max(u, v), k) for u, v, k in edges))
        t = cls(root, frozenset(black), frozenset(white), es)
        t.validate()
        return t

    @cached_property
    def vertices(self) -> frozenset:
        return self.black | self.white

    @cached_property
    def adj(self) -> dict:
        a: dict[int, dict[int, int]] = {v: {} for v in self.vertices}
        for u, v, k in self.edges:
            a[u][v] = k
            a[v][u] = k
        return a

    @cached_property
    def parent(self) -> dict:
        """Parent map oriented away from the root (root maps to None); see
        `orient`."""
        return orient(self.adj, self.root)

    @cached_property
    def kids(self) -> dict:
        """Every vertex's children in canonical order, as (edge index, child
        DSL, child) triples sorted by index, then DSL, children before
        parents: one post-order walk without recursion, which also caches
        `key`, the root's DSL.  A non-root vertex of degree 1 is a leaf,
        black in a valid tree: it gets no children and the DSL b() with no
        sort or join.  The root is never taken for a leaf, whatever its
        degree."""
        adj, par = self.adj, self.parent
        dsl: dict[int, str] = {}
        kids: dict[int, list] = {}
        # the parent map lists every vertex after its parent
        for v in reversed(par):
            p, nb = par[v], adj[v]
            if len(nb) == 1 and p is not None:  # a leaf, black in a valid tree
                kids[v], dsl[v] = [], "b()"
                continue
            kv = kids[v] = sorted([(k, dsl.pop(u), u) for u, k in nb.items() if u != p])
            dsl[v] = ("b(" if v in self.black else "w(") + ",".join([f"{k}:{e}" for k, e, _ in kv]) + ")"
        self.__dict__["key"] = dsl[self.root]
        return kids

    @cached_property
    def key(self) -> str:
        """Canonical DSL encoding; equal keys == isomorphic indexed trees.
        The walk of `kids` computes and caches it."""
        self.kids  # the walk stores the key
        return self.__dict__["key"]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def validate(self) -> None:
        if self.black & self.white:
            raise InvalidTree("a vertex cannot carry both colors")
        verts = self.vertices
        if self.root not in verts:
            raise UnknownVertex(f"root {self.root} is not a vertex")
        pairs = set()
        for u, v, k in self.edges:
            if u == v:
                raise NotATree(f"self-loop at vertex {u}")
            if (u, v) in pairs:
                raise NotATree(f"parallel edge {u}-{v}")
            pairs.add((u, v))
            if u not in verts or v not in verts:
                raise UnknownVertex(f"edge {u}-{v} uses an unknown vertex")
            if k < 0:
                raise NegativeEdgeIndex(f"edge {u}-{v} carries index {k}")
        if len(verts) != len(self.edges) + 1:
            raise NotATree(f"{len(verts)} vertices but {len(self.edges)} edges")
        if len(self.parent) != len(verts):
            raise NotConnected("not all vertices are reachable from the root")
        _check_terminals(self.white, self.degree)

    def to_json(self) -> dict:
        """The canonical DSL and the structural encoding of `tree_to_json`."""
        return {"dsl": self.key, "tree": tree_to_json(self)}

    def __str__(self) -> str:
        return self.key

    def __repr__(self) -> str:
        return f"Tree({self.key})"


def _check_terminals(white: Iterable[int], degree: Callable[[int], int]) -> None:
    """Raise TerminalNotBlack for the least white vertex of degree <= 1,
    a terminal; `validate` and `parse_tree` share this rule."""
    for v in sorted(white):
        if degree(v) <= 1:
            raise TerminalNotBlack(f"terminal vertex {v} is white")


def unit_tree() -> Tree:
    return Tree.build(0, [0], [], [])


def _zero_blocks(t: Tree) -> dict | None:
    """Where contracting every 0-edge sends each vertex of a 0-edge, or None
    when a block of 0-edges holds two black vertices.  Every other vertex is
    a block of its own.

    A block goes to its black vertex if it has one, else to its least vertex
    id.  Union-find with path halving over the 0-edges alone, O(V log V).
    """
    up: dict[int, int] = {}

    def find(v: int) -> int:
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        return v

    for u, v, k in t.edges:
        if k == 0:
            up.setdefault(u, u)
            up.setdefault(v, v)
            a, b = find(u), find(v)
            if b in t.black or (a not in t.black and b < a):
                a, b = b, a
            if b in t.black:
                return None
            up[b] = a
    return {v: find(v) for v in up}


def is_essentially_positive(t: Tree) -> bool:
    """True iff every path between two distinct black vertices has positive
    weight, that is, iff no block of 0-edges holds two black vertices.

    One union-find pass over the 0-edges, O(V log V).
    """
    return _zero_blocks(t) is not None


def _positive_blocks(t: Tree) -> dict:
    """`_zero_blocks(t)` of an essentially positive `t`; raises
    NotEssentiallyPositive, with the key and the reason, for any other."""
    block = _zero_blocks(t)
    if block is None:
        raise NotEssentiallyPositive(f"{t.key}: two black vertices are joined by 0-edges")
    return block


def circ_product(a: Tree, b: Tree) -> Tree:
    """Glue the two trees at their (black) roots."""
    for t in (a, b):
        if t.root not in t.black:
            raise RootNotBlack("both factors must have black roots")
    offset = max(a.vertices) + 1 - min(b.vertices)

    def m(v: int) -> int:
        return a.root if v == b.root else v + offset

    black = a.black.union(map(m, b.black))
    white = a.white.union(map(m, b.white))
    edges = list(a.edges)
    for u, v, k in b.edges:  # each glued edge as (lower, higher, k)
        u, v = m(u), m(v)
        edges.append((u, v, k) if u < v else (v, u, k))
    edges.sort()
    return Tree(a.root, black, white, tuple(edges))


def _harvest_fault(t: Tree, adj: dict, par: dict) -> str | None:
    """The first harvestability rule that `t` breaks, in words, or None;
    `adj` is its `adjacency` and `par` that oriented from its root."""
    if t.root not in t.black:
        return "the root is white"
    if len(adj[t.root]) > 1:
        return "the root is not terminal"
    if any(len(adj[v]) < 3 for v in t.white):
        return "a white vertex has fewer than 3 edges"
    if any(len(adj[v]) > 2 for v in t.black):
        return "a black vertex has more than 2 edges"
    zero = [(u, v) for u, v, k in t.edges if k == 0]
    if any(u in t.black and v in t.black for u, v in zero):
        return "a 0-edge joins two black vertices"
    for u, v in zero:
        child, parent = (u, v) if par[u] == v else (v, u)
        if parent in t.white and child in t.black:
            return "a 0-edge joins a white vertex to its black child"
    return None


def is_harvestable(t: Tree) -> bool:
    """Terminal black root, branched whites, unbranched blacks, and positivity
    at black children of whites and between adjacent blacks."""
    adj = adjacency(t)
    return _harvest_fault(t, adj, orient(adj, t.root)) is None


def harvestable_form(t: Tree) -> Tree:
    """The harvestable pair of an essentially positive one, built directly.

    1. Contract: every 0-edge has a white endpoint, and each block of 0-edges
       becomes one vertex: its black vertex (the root if the block holds it),
       or else its least vertex id.
    2. Splice: every white vertex of degree 2 goes, and its two edges become
       one whose index is their sum.
    3. Hoist: each branched black non-root vertex in increasing id order,
       then the root if it is not terminal, hands its children to a fresh
       white vertex joined to it by a 0-edge.  Fresh ids count up from the
       largest id of `t` plus one.

    A valid tree has no white terminal, so every contracted white block
    keeps degree >= 2.  No black vertex is contracted away or spliced, so
    the black set is `t`'s.  Each step is one pass over the contracted
    adjacency, and the edges, each written as (lower, higher, k), are sorted
    once; the whole costs O(V log V).

    With no 0-edge, no white vertex of degree 2, no black vertex of degree
    3 or more and a terminal root, that is, for a harvestable tree with no
    0-edge, the steps change nothing and give a tree equal to `t` field by
    field, so `t` itself is returned after one pass over its edges.
    """
    if t.root not in t.black:
        raise RootNotBlack("harvestable form needs a black root")
    black, root = t.black, t.root
    degree: dict[int, int] = {}
    for u, v, k in t.edges:
        if not k:
            break
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    else:
        if degree.get(root, 0) < 2 and all(d < 3 if v in black else d != 2 for v, d in degree.items()):
            return t
    block = _positive_blocks(t)
    adj: dict[int, dict[int, int]] = {root: {}}  # the root names its block
    for u, v, k in t.edges:
        if k:
            u, v = block.get(u, u), block.get(v, v)
            nu, nv = adj.get(u), adj.get(v)
            if nu is None:
                nu = adj[u] = {}
            if nv is None:
                nv = adj[v] = {}
            nu[v] = nv[u] = k
    for v in list(adj):
        if v not in black and len(adj[v]) == 2:
            (a, ka), (b, kb) = adj.pop(v).items()
            del adj[a][v], adj[b][v]
            adj[a][b] = adj[b][a] = ka + kb
    hoisted = sorted(v for v, nb in adj.items() if len(nb) >= 3 and v in black and v != root)
    # a hoisted vertex keeps the edge to its parent and hands over the rest
    par = orient(adj, root) if hoisted else {}
    if len(adj[root]) >= 2:
        hoisted.append(root)
    top = max(max(black), max(t.white, default=root)) + 1 if hoisted else 0
    fresh = {v: top + i for i, v in enumerate(hoisted)}
    edges = [(v, f, 0) for v, f in fresh.items()]
    for v, nb in adj.items():
        fv = fresh.get(v)
        for w, k in nb.items():
            if v < w:  # each edge once, from its lower end
                fw = fresh.get(w)
                a = v if fv is None or par.get(v) == w else fv
                b = w if fw is None or par.get(w) == v else fw
                edges.append((a, b, k) if a < b else (b, a, k))
    edges.sort()
    return Tree(root, black, frozenset(adj.keys() - black).union(fresh.values()), tuple(edges))


def circ_h(a: Tree, b: Tree) -> Tree:
    """Glue at the roots, then pass to harvestable form."""
    return harvestable_form(circ_product(a, b))


def w_word(t: Tree) -> HElem:
    """The word of a harvestable pair, from one fold over its vertices,
    children before parents.

    Each non-root vertex with parent edge index k passes up its stem, a word
    `head` followed by the z-word of a black index `run`, bottom first.  A
    black vertex appends k to its child's run (a black leaf starts one after
    the unit word); a white vertex's stem is the shuffle of its children's
    stems times x^k, with an empty run.  Each maximal black run is turned into
    z-letters once, when its white parent or the root closes it.  The word is
    the closed stem below the terminal root, or 1 for the single vertex.  The
    fold is O(V) steps; the shuffles at white vertices dominate.
    """
    adj = adjacency(t)
    par = orient(adj, t.root)
    fault = _harvest_fault(t, adj, par)
    if fault is not None:
        raise NotHarvestable(f"{t.key}: {fault}")
    stems: dict[int, list] = {v: [] for v in par}

    def close(head: HElem, run: list) -> HElem:
        return head.concat(HElem.from_index(tuple(run)))

    for v, p in reversed(par.items()):
        if p is None:
            break
        k = adj[v][p]
        if v in t.black:
            # a black non-root vertex of a harvestable pair has at most one child
            head, run = stems[v][0] if stems[v] else (HElem.unit(), [])
            run.append(k)
        else:
            head, run = right_mul_x_pow(shuffle_all(close(*st) for st in stems[v]), k), []
        stems[p].append((head, run))
    return close(*stems[t.root][0]) if stems[t.root] else HElem.unit()


class TreeCombo(Combo):
    """Formal rational combination of trees, keyed by canonical encoding
    alone, as `HElem` is keyed by word: a key names an isomorphism class."""

    __slots__ = ()

    def __init__(self, terms: Iterable[tuple[Tree, object]] = ()):
        super().__init__((t.key, c) for t, c in terms)

    def terms(self) -> list[tuple[Tree, object]]:
        """(tree, coefficient) in key order, each tree parsed from its key, so
        its vertex ids do not depend on how the input was labelled."""
        return [(parse_tree(k), c) for k, c in self._items()]

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coeff": str(c), "tree": tree_to_json(t)} for t, c in self.terms()
            ]
        }


@memo("bump_cuts")
def _bump_cuts(ks: tuple, order: int) -> tuple:
    """`bumps(ks, order)` cut by entry degree: item d < order holds the
    terms (bumped, d + degree, coefficient) whose degree stays below
    `order`.  A handful of (ks, order) pairs serve every call of
    `cap_phi_hat`, so the fans are shared tuples."""
    fan = tuple(bumps(ks, order))  # rejects an order below 1
    return tuple(tuple((b, d + db, c) for b, db, c in fan if d + db < order) for d in range(order))


def cap_phi_hat(t: Tree, order: int) -> TSeries:
    """Tree-level t-adic symmetrization: `t` re-rooted at each black v, the
    indices ks of the root-to-v path raised by a bump vector l with
    wt(l) = d < order, at t^d with weight (-1)^wt(ks) b(ks; l), summed by key.

    One walk down the tree, parents before children, hands each vertex a
    that has children its entries (k, "k:s", degree, coefficient) for the
    part of `t` outside a's subtree, encoded as s and entering a through
    index k.  The root has one entry, which hangs nothing, from
    `bumps((), order)`, which also rejects an order below 1.  a groups its
    entries by slot: where "k:s" goes among its children's "k:e", sorted by
    (index, "k:e"), which is (index, DSL) order.  Leaving out one child or
    none, a slot splits the rest of a's encoding into a prefix and a
    suffix, built once for the whole group, and an entry's encoding is
    prefix + "k:s" + suffix.  With none left out, a black a adds that
    encoding, its term's key, to its degree's row.  With child u left out,
    each bump of u's edge that keeps the degree below `order` gives one
    string: u's entry "kb:s" if u has children, else, u being a black
    leaf, the key "b(kb:s)" of u's term, added straight to its row.  Every
    fan of bumps comes cut by entry degree from `_bump_cuts`.  Per-edge
    signs and b-binomials multiply to the path's.  So a shared path prefix
    is encoded once, each entry or term costs one string build, O(V)
    characters, nothing recurses and no tree is built.
    """
    if t.root not in t.black:
        raise RootNotBlack("the symmetrization maps need a black root")
    _positive_blocks(t)
    kids, black = t.kids, t.black
    rows: list[dict] = [{} for _ in range(order)]
    todo = [(t.root, [(None, "", d, c) for _, d, c in _bump_cuts((), order)[0]])]
    while todo:
        a, entries = todo.pop()
        pairs = [(k, f"{k}:{e}") for k, e, _ in kids[a]]
        items = [ke for _, ke in pairs]
        head = "b(" if a in black else "w("
        slots: dict[int, list] = {}  # slot -> its entries as ("k:s", degree, coefficient)
        for k, ks, d, c in entries:
            # the root's entry hangs nothing: slot -1
            slots.setdefault(-1 if k is None else bisect(pairs, (k, ks)), []).append((ks, d, c))
        m = len(pairs)
        for i in range(m + (a in black)):  # the child left out; i == m: none
            rest = items[:i] + items[i + 1 :]
            if i < m:
                ku, _, u = kids[a][i]
                cut = _bump_cuts((ku,), order)
                leaf = not kids[u]
                if not leaf:
                    out = []
                    todo.append((u, out))
            for j, group in slots.items():
                j -= i < j  # the slot among the rest
                if j < 0:
                    pre, suf = head + ",".join(rest) + ")", ""
                else:
                    left, right = ",".join(rest[:j]), ",".join(rest[j:])
                    pre = head + left + "," if left else head
                    suf = "," + right + ")" if right else ")"
                if i == m:
                    for hang, d, c in group:
                        accumulate(rows[d], pre + hang + suf, c)
                elif leaf:  # u's term: u, a black leaf, under the rest as its one child
                    for hang, d, c in group:
                        for (kb,), deg, cb in cut[d]:
                            accumulate(rows[deg], f"b({kb}:{pre}{hang}{suf})", c * cb)
                else:
                    out += [(kb, f"{kb}:{pre}{hang}{suf}", deg, c * cb)
                            for hang, d, c in group for (kb,), deg, cb in cut[d]]
    return TSeries(map(TreeCombo._wrap, rows), order)


_terms = TABLE.getter("terms")


def symmetrization_terms(t: Tree, order: int) -> tuple:
    """(degree, coefficient, tree) per term of `cap_phi_hat(t, order)`: one
    isomorphism class each, its coefficient merged and nonzero, its tree
    parsed from its key, in degree then key order.

    The terms do not depend on M, so the "terms" of `table.TABLE` keep them
    by (root, black, white, edges, order): the tree's fields, not the
    ``Tree``, so an equal tree parsed anew gets the same term objects.  The
    term trees of an entry share one copy of each equal black or white set.
    """
    key = (t.root, t.black, t.white, t.edges, order)
    terms = _terms(key)
    if terms is None:
        sets: dict[frozenset, frozenset] = {}
        built = []
        for degree, combo in enumerate(cap_phi_hat(t, order).coeffs):
            for tree, coeff in combo.terms():
                black, white = sets.setdefault(tree.black, tree.black), sets.setdefault(tree.white, tree.white)
                built.append((degree, coeff, Tree(tree.root, black, white, tree.edges)))
        terms = tuple(built)
        TABLE.put("terms", key, terms)
    return terms


def cap_phi(t: Tree) -> TreeCombo:
    """Constant term of the tree-level symmetrization."""
    return cap_phi_hat(t, 1).coeffs[0]


def parse_tree(s: str) -> Tree:
    """Parse the tree DSL into a valid tree.

    One left-to-right scan with an explicit stack of open vertices, so the
    nesting depth is not bounded by the recursion limit.  Vertex ids count
    up in the order the vertices open, and each vertex but the first hangs
    from the open one by one edge with a decimal index.  So the grammar
    alone makes the result connected, with one edge fewer than vertices, no
    loop or parallel edge and no negative index, and the one rule left to
    check, after the whole input has parsed, is that terminals are black.
    """
    pos, n = 0, len(s)
    black: list[int] = []
    white: list[int] = []
    degree: list[int] = []  # by vertex id
    edges: list[tuple[int, int, int]] = []
    stack: list[int] = []  # vertices whose ")" is still to come
    k = 0  # index of the edge from stack[-1] to the next vertex
    while True:
        while pos < n and s[pos].isspace():
            pos += 1
        if pos >= n or s[pos] not in "bw":
            raise TreeSyntaxError("expected color 'b' or 'w'", pos)
        vid = len(degree)
        (black if s[pos] == "b" else white).append(vid)
        if stack:
            edges.append((stack[-1], vid, k))
            degree[stack[-1]] += 1
            degree.append(1)
        else:
            degree.append(0)
        pos += 1
        while pos < n and s[pos].isspace():
            pos += 1
        if pos >= n or s[pos] != "(":
            raise TreeSyntaxError("expected '('", pos)
        pos += 1
        while pos < n and s[pos].isspace():
            pos += 1
        if pos < n and s[pos] == ")":
            pos += 1
            # close vertices until one goes on with a further edge
            while stack:
                while pos < n and s[pos].isspace():
                    pos += 1
                if pos < n and s[pos] == ",":
                    pos += 1
                    break
                if pos >= n or s[pos] != ")":
                    raise TreeSyntaxError("expected ')'", pos)
                pos += 1
                stack.pop()
            else:
                break
        else:
            stack.append(vid)
        while pos < n and s[pos].isspace():
            pos += 1
        start = pos
        while pos < n and s[pos].isdecimal():
            pos += 1
        if start == pos:
            raise TreeSyntaxError("expected an edge index", pos)
        try:
            k = int(s[start:pos])
        except ValueError:  # more digits than int() converts
            raise TreeSyntaxError(f"edge index of {pos - start} digits is too long", start) from None
        while pos < n and s[pos].isspace():
            pos += 1
        if pos >= n or s[pos] != ":":
            raise TreeSyntaxError("expected ':'", pos)
        pos += 1

    while pos < n and s[pos].isspace():
        pos += 1
    if pos != n:
        raise TreeSyntaxError("unexpected trailing input", pos)
    _check_terminals(white, degree.__getitem__)
    edges.sort()  # each edge already runs from the open vertex to a newer one
    return Tree(0, frozenset(black), frozenset(white), tuple(edges))


def tree_to_json(t: Tree) -> dict:
    """Structural encoding mirroring the DSL, children in canonical order."""
    obj: dict[int, dict] = {}
    for v, kids in t.kids.items():
        obj[v] = {
            "color": "b" if v in t.black else "w",
            "edges": [{"index": k, "child": obj.pop(u)} for k, _, u in kids],
        }
    return obj[t.root]
