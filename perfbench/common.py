"""Input generation and independent encoders shared by the workloads.

Nothing here imports zetaforest: the benchmark builds its inputs with its own
generator and hands the program only DSL strings, indices and ``Tree.build``
arguments.  The encoders are iterative so that they also work on the deep
over-limit inputs.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")

# (root, black, white, edges) exactly as Tree.build takes them
TreeArgs = tuple


def load_data(name: str):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = (5 ** 0.5 - 1) / 2


def stratify(strata: dict, rng) -> list:
    """Order the cases of all strata so that every prefix of the result has
    close to the full mix of cases and of case costs.

    Each stratum is a list of (label, check, cost) where cost is any sortable
    proxy for the case's run time.  Within a stratum the cases are sorted by
    cost (ties in seeded random order) and the i-th one is placed at
    (offset + i * golden ratio) mod 1, a low-discrepancy sequence with a
    seeded offset; sorting every case by its place interleaves the strata in
    proportion to their size.  A time-bounded pass then measures nearly the
    same mix whatever the seed, so seeds change the inputs, not the mix.
    """
    placed = []
    for s, (name, cases) in enumerate(sorted(strata.items())):
        cases = list(cases)
        rng.shuffle(cases)
        cases.sort(key=lambda c: c[2])
        offset = rng.random()
        for i, (label, check, _) in enumerate(cases):
            placed.append(((offset + i * GOLDEN) % 1.0, s, f"{name}/{label}", check))
    placed.sort(key=lambda c: (c[0], c[1]))
    return [(label, check) for _, _, label, check in placed]


def compositions(values, depth: int):
    """All tuples of the given length with entries from `values`."""
    out = [()]
    for _ in range(depth):
        out = [t + (v,) for t in out for v in values]
    return out


def indices_up_to(max_weight: int) -> list:
    """Every index (tuple of positive integers) of weight <= max_weight."""
    out = [()]
    frontier = [()]
    for _ in range(max_weight):
        frontier = [k + (e,) for k in frontier for e in range(1, max_weight + 1) if sum(k) + e <= max_weight]
        out += frontier
    return sorted(out, key=lambda k: (sum(k), k))


def random_fraction(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 2, 3, 7)))


def essentially_positive(black, edges) -> bool:
    """No component of the 0-indexed edges holds two black vertices."""
    parent: dict = {}

    def find(v):
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    for u, v, k in edges:
        if k == 0:
            parent[find(u)] = find(v)
    seen = set()
    for v in black:
        r = find(v)
        if r in seen:
            return False
        seen.add(r)
    return True


def random_tree(rng, n: int, k_cap: int) -> TreeArgs:
    """Essentially positive tree on exactly n vertices with a black root.

    Random recursive shape; terminals black, interior vertices black with
    probability 0.6; indices uniform in [0, k_cap], then random 0-edges are
    raised to 1 until the tree is essentially positive.
    """
    parents = [rng.randrange(i) for i in range(1, n)]
    degree = [0] * n
    for i, p in enumerate(parents, start=1):
        degree[i] += 1
        degree[p] += 1
    black = {0} | {v for v in range(1, n) if degree[v] <= 1 or rng.random() < 0.6}
    edges = [(p, i, rng.randint(0, k_cap)) for i, p in enumerate(parents, start=1)]
    while not essentially_positive(black, edges):
        j = rng.choice([j for j, e in enumerate(edges) if e[2] == 0])
        edges[j] = edges[j][:2] + (1,)
    return 0, sorted(black), sorted(set(range(n)) - black), edges


def chain(colors: str, ks) -> TreeArgs:
    """Path 0 - 1 - ... rooted at 0; colors[i] is 'b' or 'w' for vertex i."""
    edges = [(i, i + 1, k) for i, k in enumerate(ks)]
    black = [i for i, c in enumerate(colors) if c == "b"]
    white = [i for i, c in enumerate(colors) if c == "w"]
    return 0, black, white, edges


def random_chain(rng, n_edges: int) -> TreeArgs:
    """Essentially positive chain: black ends, interior whites with
    probability 0.3, and indices in [1, 3]."""
    colors = "b" + "".join("w" if rng.random() < 0.3 else "b" for _ in range(n_edges - 1)) + "b"
    return chain(colors, [rng.randint(1, 3) for _ in range(n_edges)])


def relabel(args: TreeArgs, rng) -> TreeArgs:
    """The same tree with its vertex ids permuted and shifted."""
    root, black, white, edges = args
    ids = list(black) + list(white)
    new = list(range(7, 7 + len(ids)))
    rng.shuffle(new)
    m = dict(zip(ids, new))
    return m[root], [m[v] for v in black], [m[v] for v in white], [(m[u], m[v], k) for u, v, k in edges]


def canonical_dsl(args: TreeArgs) -> str:
    """Canonical DSL of a tree: children sorted by (edge index, encoding)."""
    root, black, _, edges = args
    adj: dict = {}
    for u, v, k in edges:
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))
    black = set(black)
    enc: dict = {}
    stack = [(root, None, False)]
    while stack:
        v, par, done = stack.pop()
        kids = [(u, k) for u, k in adj.get(v, ()) if u != par]
        if not done:
            stack.append((v, par, True))
            stack.extend((u, v, False) for u, _ in kids)
            continue
        inner = ",".join(f"{k}:{e}" for k, e in sorted((k, enc[u]) for u, k in kids))
        enc[v] = ("b" if v in black else "w") + "(" + inner + ")"
    return enc[root]


def json_to_dsl(obj: dict) -> str:
    """Render the structural JSON encoding back to DSL, keeping its child order."""
    out = []
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(item["color"] + "(")
        todo = [")"]
        for j, e in reversed(list(enumerate(item["edges"]))):
            todo.append(e["child"])
            todo.append(("," if j else "") + f"{e['index']}:")
        stack.extend(todo)
    return "".join(out)
