"""2-colored rooted trees with a non-negative integer index on each edge.

Trees are non-planar: equality of shapes is decided by a canonical AHU-style
encoding (`Tree.key`), which doubles as the text format of the tree DSL

    node  := color "(" [edge ("," edge)*] ")"
    edge  := nat ":" node
    color := "b" | "w"

with the outermost node the root and whitespace insignificant.  Children are
rendered sorted by (edge index, child encoding), so two trees are isomorphic
(root-, color- and index-preserving) exactly when their keys coincide.

Every terminal vertex must be black; a vertex of degree <= 1 counts as a
terminal, so the single-vertex tree must be black (it is the unit of the
glue-at-the-roots product).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

from .combo import Combo
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
from .indices import b_binom, bounded_vectors
from .rationals import rat_str
from .series import TSeries
from .words import HElem, right_mul_x_pow, shuffle_all

Edge = tuple[int, int, int]  # (u, v, k) with u < v


@dataclass(frozen=True)
class Tree:
    root: int
    black: frozenset
    white: frozenset
    edges: tuple

    @classmethod
    def build(cls, root: int, black: Iterable[int], white: Iterable[int],
              edges: Iterable[tuple[int, int, int]]) -> "Tree":
        es = tuple(sorted((min(u, v), max(u, v), k) for u, v, k in edges))
        return cls(root=root, black=frozenset(black), white=frozenset(white), edges=es)

    @cached_property
    def vertices(self) -> frozenset:
        return self.black | self.white

    @cached_property
    def adj(self) -> dict:
        a: dict[int, dict[int, int]] = {v: {} for v in self.vertices}
        for u, v, k in self.edges:
            a.setdefault(u, {})[v] = k
            a.setdefault(v, {})[u] = k
        return a

    @cached_property
    def parent(self) -> dict:
        """Parent map oriented away from the root (root maps to None)."""
        par: dict[int, int | None] = {self.root: None}
        stack = [self.root]
        while stack:
            v = stack.pop()
            for u in self.adj[v]:
                if u not in par:
                    par[u] = v
                    stack.append(u)
        return par

    @cached_property
    def key(self) -> str:
        """Canonical DSL encoding; equal keys == isomorphic indexed trees."""
        return self._canonical()

    def _canonical(self, kids_out: dict | None = None) -> str:
        """The canonical DSL, from one post-order walk without recursion.

        Children are ordered by edge index, then child DSL.  If `kids_out` is
        given, it receives every vertex's children in that order as (edge
        index, child DSL, child) triples, children before parents.
        """
        adj, par = self.adj, self.parent
        dsl: dict[int, str] = {}
        # the parent map lists every vertex after its parent
        for v in reversed(par):
            p = par[v]
            kids = sorted([(k, dsl.pop(u), u) for u, k in adj[v].items() if u != p])
            inner = ",".join([f"{k}:{e}" for k, e, _ in kids])
            dsl[v] = ("b(" if v in self.black else "w(") + inner + ")"
            if kids_out is not None:
                kids_out[v] = kids
        return dsl[self.root]

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
        for v in verts:
            if self.degree(v) <= 1 and v not in self.black:
                raise TerminalNotBlack(f"terminal vertex {v} is white")

    def path_edges(self, v: int, w: int) -> tuple:
        """Edge pairs (u1, u2) on the unique simple path from v to w."""
        for q in (v, w):
            if q not in self.vertices:
                raise UnknownVertex(f"vertex {q} is not in the tree")
        par = self.parent

        def up(x: int) -> set:
            out = set()
            while par[x] is not None:
                p = par[x]
                out.add((min(x, p), max(x, p)))
                x = p
            return out

        return tuple(sorted(up(v) ^ up(w)))

    def change_root(self, v: int) -> "Tree":
        if v not in self.vertices:
            raise UnknownVertex(f"vertex {v} is not in the tree")
        return replace(self, root=v)

    def __str__(self) -> str:
        return self.key

    def __repr__(self) -> str:
        return f"Tree({self.key})"


def unit_tree() -> Tree:
    return Tree.build(0, [0], [], [])


def is_essentially_positive(t: Tree) -> bool:
    """True iff every path between two distinct black vertices has positive weight.

    Equivalent formulation used here: no connected component of the subgraph
    of 0-indexed edges contains two black vertices.
    """
    seen: set[int] = set()
    for start in t.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        blacks = 0
        while comp:
            v = comp.pop()
            if v in t.black:
                blacks += 1
                if blacks > 1:
                    return False
            for u, k in t.adj[v].items():
                if k == 0 and u not in seen:
                    seen.add(u)
                    comp.append(u)
    return True


def circ_product(a: Tree, b: Tree) -> Tree:
    """Glue the two trees at their (black) roots."""
    for t in (a, b):
        if t.root not in t.black:
            raise RootNotBlack("both factors must have black roots")
    offset = max(a.vertices) + 1 - min(b.vertices)

    def m(v: int) -> int:
        return a.root if v == b.root else v + offset

    black = set(a.black) | {m(v) for v in b.black}
    white = set(a.white) | {m(v) for v in b.white}
    edges = list(a.edges) + [(m(u), m(v), k) for u, v, k in b.edges]
    return Tree.build(a.root, black, white, edges)


def is_harvestable(t: Tree) -> bool:
    """Terminal black root, branched whites, unbranched blacks, and positivity
    at black children of whites and between adjacent blacks."""
    if t.root not in t.black:
        return False
    if t.degree(t.root) > 1:
        return False
    for v in t.white:
        if t.degree(v) < 3:
            return False
    for v in t.black:
        if t.degree(v) > 2:
            return False
    par = t.parent
    for u, v, k in t.edges:
        if k > 0:
            continue
        if u in t.black and v in t.black:
            return False
        child, parent = (u, v) if par[u] == v else (v, u)
        if parent in t.white and child in t.black:
            return False
    return True


def harvestable_form(t: Tree) -> Tree:
    """Rewrite an essentially positive pair into a harvestable one.

    In order and each to fixpoint: (i) contract every 0-indexed edge with a
    white endpoint (the merged vertex is black iff either endpoint was; the
    root always survives); (ii) joint the two edges at every white vertex of
    degree 2, summing their indices; (iii) hoist the children of every
    branched black non-root vertex onto a new white vertex joined by a
    0-edge; (iv) the same hoisting at the root when it is not terminal.
    """
    if t.root not in t.black:
        raise RootNotBlack("harvestable form needs a black root")
    if not is_essentially_positive(t):
        raise NotEssentiallyPositive(t.key)
    color = {v: v in t.black for v in t.vertices}
    adj: dict[int, dict[int, int]] = {v: dict(t.adj[v]) for v in t.vertices}
    root = t.root
    fresh = max(t.vertices) + 1

    def drop_edge(u: int, v: int) -> None:
        del adj[u][v]
        del adj[v][u]

    def add_edge(u: int, v: int, k: int) -> None:
        adj[u][v] = k
        adj[v][u] = k

    while True:
        target = None
        for u in sorted(adj):
            for v in sorted(adj[u]):
                if u < v and adj[u][v] == 0 and not (color[u] and color[v]):
                    target = (u, v)
                    break
            if target:
                break
        if target is None:
            break
        u, v = target
        if root in target:
            keep, gone = (u, v) if u == root else (v, u)
        elif color[u] != color[v]:
            keep, gone = (u, v) if color[u] else (v, u)
        else:
            keep, gone = u, v
        drop_edge(u, v)
        for w, k in list(adj[gone].items()):
            drop_edge(gone, w)
            add_edge(keep, w, k)
        color[keep] = color[keep] or color[gone]
        del adj[gone], color[gone]

    while True:
        cand = [v for v in sorted(adj) if not color[v] and len(adj[v]) == 2]
        if not cand:
            break
        v = cand[0]
        (a, ka), (b, kb) = sorted(adj[v].items())
        drop_edge(v, a)
        drop_edge(v, b)
        del adj[v], color[v]
        add_edge(a, b, ka + kb)

    def parents() -> dict:
        par: dict[int, int | None] = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in par:
                    par[y] = x
                    stack.append(y)
        return par

    def hoist(v: int, kids: list) -> None:
        nonlocal fresh
        w = fresh
        fresh += 1
        color[w] = False
        adj[w] = {}
        for u, k in kids:
            drop_edge(v, u)
            add_edge(w, u, k)
        add_edge(v, w, 0)

    while True:
        par = parents()
        cand = [v for v in sorted(adj) if color[v] and v != root and len(adj[v]) >= 3]
        if not cand:
            break
        v = cand[0]
        hoist(v, [(u, k) for u, k in sorted(adj[v].items()) if u != par[v]])

    if len(adj[root]) >= 2:
        hoist(root, sorted(adj[root].items()))

    edges = [(u, v, k) for u in adj for v, k in adj[u].items() if u < v]
    return Tree.build(
        root,
        [v for v in adj if color[v]],
        [v for v in adj if not color[v]],
        edges,
    )


def circ_h(a: Tree, b: Tree) -> Tree:
    """Glue at the roots, then pass to harvestable form."""
    return harvestable_form(circ_product(a, b))


def _stem(t: Tree, anchor: int, child: int, k: int) -> Tree:
    """Subtree hanging off `anchor` at `child`, re-rooted on a fresh black vertex
    joined to `child` by an edge of index k."""
    seen = {child}
    stack = [child]
    while stack:
        v = stack.pop()
        for u in t.adj[v]:
            if u != anchor and u not in seen:
                seen.add(u)
                stack.append(u)
    fresh = max(t.vertices) + 1
    edges = [e for e in t.edges if e[0] in seen and e[1] in seen]
    edges.append((fresh, child, k))
    return Tree.build(fresh, (t.black & seen) | {fresh}, t.white & seen, edges)


def w_word(t: Tree) -> HElem:
    """Extract the word of a harvestable pair.

    Walking up the black chain from the terminal root collects the z-indices
    (root edge last); a white branch vertex contributes the shuffle of its
    stems' words followed by x to the power of the chain-top edge.
    """
    if not is_harvestable(t):
        raise NotHarvestable(t.key)
    return _w(t)


def _w(t: Tree) -> HElem:
    chain: list[int] = []
    prev, cur = None, t.root
    while True:
        nxt = [(u, k) for u, k in sorted(t.adj[cur].items()) if u != prev]
        if not nxt:
            return HElem.from_index(tuple(reversed(chain)))
        ((u, k),) = nxt
        if u in t.black:
            chain.append(k)
            prev, cur = cur, u
            continue
        stems = [_w(_stem(t, u, c, l)) for c, l in sorted(t.adj[u].items()) if c != cur]
        out = right_mul_x_pow(shuffle_all(stems), k)
        return out.concat(HElem.from_index(tuple(reversed(chain))))


class TreeCombo(Combo):
    """Formal rational combination of trees, keyed by canonical encoding.

    Each key keeps the first tree seen with it as its representative."""

    __slots__ = ("_trees",)

    def __init__(self, terms: Iterable[tuple[Tree, object]] = ()):
        trees: dict[str, Tree] = {}  # setdefault keeps the first tree per key
        super().__init__((trees.setdefault(t.key, t).key, c) for t, c in terms)
        self._trees = {k: trees[k] for k in self._terms}

    def _derive(self, data: dict, other: "TreeCombo | None" = None) -> "TreeCombo":
        out = self._wrap(data)
        if other is None:
            out._trees = self._trees
        else:
            trees = {**other._trees, **self._trees}
            out._trees = {k: trees[k] for k in data}
        return out

    @classmethod
    def from_tree(cls, t: Tree, coeff=1) -> "TreeCombo":
        return cls([(t, coeff)])

    def terms(self) -> list[tuple[Tree, object]]:
        return [(self._trees[k], c) for k, c in self._sorted()]

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coeff": rat_str(c), "tree": tree_to_json(t)} for t, c in self.terms()
            ]
        }


def symmetrization_terms(t: Tree, order: int):
    """Yield (degree, coefficient, re-rooted tree) for the t-adic tree map.

    One term per black vertex v and per non-negative bump vector l on the
    root-to-v path with total < order: the tree re-rooted at v with indices
    raised by l, weighted by the signed product of b-binomials, in degree
    equal to the bump total.
    """
    if t.root not in t.black:
        raise RootNotBlack("the symmetrization maps need a black root")
    if not is_essentially_positive(t):
        raise NotEssentiallyPositive(t.key)
    for v in sorted(t.black):
        path = t.path_edges(t.root, v)
        ks = tuple(t.adj[a][b] for a, b in path)
        sign = -1 if sum(ks) % 2 else 1
        for l in bounded_vectors(len(path), order - 1):
            b = b_binom(ks, l)
            if not b:
                continue
            bump = dict(zip(path, l))
            edges = [(u, w, k + bump.get((u, w), 0)) for u, w, k in t.edges]
            yield sum(l), sign * b, Tree.build(v, t.black, t.white, edges)


def cap_phi_hat(t: Tree, order: int) -> TSeries:
    """Tree-level t-adic symmetrization: signed root changes with index bumps
    along the old-root-to-new-root path, one t power per bump weight."""
    rows: list[list] = [[] for _ in range(order)]
    for degree, coeff, shifted in symmetrization_terms(t, order):
        rows[degree].append((shifted, coeff))
    return TSeries(map(TreeCombo, rows), order)


def cap_phi(t: Tree) -> TreeCombo:
    """Constant term of the tree-level symmetrization."""
    return cap_phi_hat(t, 1).coeffs[0]


def parse_tree(s: str) -> Tree:
    """Parse the tree DSL; the resulting tree is validated."""
    pos = 0
    n = len(s)
    black: set[int] = set()
    white: set[int] = set()
    edges: list[tuple[int, int, int]] = []
    next_id = 0

    def skip() -> None:
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip()
        if pos >= n or s[pos] != ch:
            raise TreeSyntaxError(f"expected {ch!r}", pos)
        pos += 1

    def nat() -> int:
        nonlocal pos
        skip()
        start = pos
        while pos < n and s[pos].isdigit():
            pos += 1
        if start == pos:
            raise TreeSyntaxError("expected an edge index", pos)
        return int(s[start:pos])

    def node() -> int:
        nonlocal pos, next_id
        skip()
        if pos >= n or s[pos] not in "bw":
            raise TreeSyntaxError("expected color 'b' or 'w'", pos)
        vid = next_id
        next_id += 1
        (black if s[pos] == "b" else white).add(vid)
        pos += 1
        expect("(")
        skip()
        if pos < n and s[pos] == ")":
            pos += 1
            return vid
        while True:
            k = nat()
            expect(":")
            child = node()
            edges.append((vid, child, k))
            skip()
            if pos < n and s[pos] == ",":
                pos += 1
                continue
            expect(")")
            return vid

    root = node()
    skip()
    if pos != n:
        raise TreeSyntaxError("unexpected trailing input", pos)
    t = Tree.build(root, black, white, edges)
    t.validate()
    return t


def tree_to_json(t: Tree) -> dict:
    """Structural encoding mirroring the DSL, children in canonical order."""
    children: dict[int, list] = {}
    t._canonical(children)
    obj: dict[int, dict] = {}
    for v, kids in children.items():
        obj[v] = {
            "color": "b" if v in t.black else "w",
            "edges": [{"index": k, "child": obj.pop(u)} for k, _, u in kids],
        }
    return obj[t.root]
