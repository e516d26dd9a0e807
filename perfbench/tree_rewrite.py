"""tree-rewrite: the tree calculus on seeded random trees of 12 to 30 vertices.

Each tree goes through Tree.build, key, a DSL round trip, tree_to_json,
harvestable_form / is_harvestable, invariance of the harvestable form and of
cap_phi_hat (t-order 3) under relabelling; seeded triples check the circ_h
laws; chains of 200 to 400 edges go through the linear-time operations and
harvestable_form.  Expected encodings come from the benchmark's own iterative
encoder, computed at set-up.  w_word and phi_hat are left out: they explode
at these sizes.

Every size from 12 to 30 gets the same number of trees, and the deepest
shapes (about one in twelve, whose cap_phi_hat expansion exceeds
MAX_SYMMETRIZATION_SIZE) are redrawn; this keeps the mix of case costs, and
the peak memory of the heaviest case, close to the same from seed to seed.

The over-limit inputs (a 1500-edge chain, a 1200-deep DSL nest) are run once
after the traced pass, outside any timing, and counted in the per-layer
metric trees.overlimit_failed.
"""

from __future__ import annotations

import operator
import random
from math import comb

from common import canonical_dsl, chain, json_to_dsl, random_chain, random_tree, relabel, stratify
from zetaforest.trees import Tree, cap_phi_hat, circ_h, harvestable_form, is_harvestable, parse_tree, tree_to_json

ORDER = 3
SIZES = range(12, 31)
SHAPE_TREES = 20 * len(SIZES)
MAX_SYMMETRIZATION_SIZE = 8000
CIRC_TRIPLES = 40
CHAINS = 6
KEY = operator.attrgetter("key")
OVERLIMIT_CHAIN_EDGES = 1500
OVERLIMIT_NEST_DEPTH = 1200


def build(T, args) -> Tree:
    return T.call("trees.build", Tree.build, *args)


def key(T, t) -> str:
    return T.call("trees.key", KEY, t)


def round_trip(T, args, dsl):
    """Build, key, DSL round trip and JSON encoding against the expected DSL."""
    t = build(T, args)
    if key(T, t) != dsl:
        return t, "key differs from the canonical encoding"
    if key(T, T.call("trees.parse_tree", parse_tree, dsl)) != dsl:
        return t, "DSL round trip changed the tree"
    if json_to_dsl(T.call("trees.tree_to_json", tree_to_json, t)) != dsl:
        return t, "tree_to_json disagrees with the canonical encoding"
    return t, None


def harvest(T, t):
    hf = T.call("trees.harvestable_form", harvestable_form, t)
    if not T.call("trees.is_harvestable", is_harvestable, hf):
        return hf, "harvestable form is not harvestable"
    return hf, None


def symmetrization_size(args) -> int:
    """Vertices times the number of cap_phi_hat terms: one per black vertex v
    and bump vector of total < ORDER on the root-to-v path."""
    root, black, white, edges = args
    adj: dict = {}
    for u, v, _ in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    depth = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for u in adj.get(v, ()):
            if u not in depth:
                depth[u] = depth[v] + 1
                stack.append(u)
    return (len(black) + len(white)) * sum(comb(depth[v] + ORDER - 1, ORDER - 1) for v in black)


def shape(args, moved):
    dsl = canonical_dsl(args)

    def check(T):
        t, detail = round_trip(T, args, dsl)
        if detail:
            return detail
        hf, detail = harvest(T, t)
        if detail:
            return detail
        t2 = build(T, moved)
        if key(T, T.call("trees.harvestable_form", harvestable_form, t2)) != key(T, hf):
            return "harvestable form depends on the labelling"
        a = T.call("trees.cap_phi_hat", cap_phi_hat, t, ORDER)
        if not T.call("series.eq", operator.eq, a, T.call("trees.cap_phi_hat", cap_phi_hat, t2, ORDER)):
            return "cap_phi_hat depends on the labelling"
        return None

    return dsl, check, symmetrization_size(args)


def circ_laws(triple):
    unit = (0, [0], [], [])

    def check(T):
        a, b, c = (T.call("trees.harvestable_form", harvestable_form, build(T, args)) for args in triple)
        if key(T, T.call("trees.circ_h", circ_h, a, b)) != key(T, T.call("trees.circ_h", circ_h, b, a)):
            return "circ_h not commutative"
        left = T.call("trees.circ_h", circ_h, T.call("trees.circ_h", circ_h, a, b), c)
        right = T.call("trees.circ_h", circ_h, a, T.call("trees.circ_h", circ_h, b, c))
        if key(T, left) != key(T, right):
            return "circ_h not associative"
        if key(T, T.call("trees.circ_h", circ_h, a, build(T, unit))) != key(T, a):
            return "circ_h unit law broken"
        return None

    cost = sum(len(args[1]) + len(args[2]) for args in triple)
    return "|".join(canonical_dsl(args) for args in triple), check, cost


def long_chain(args):
    dsl = canonical_dsl(args)

    def check(T):
        t, detail = round_trip(T, args, dsl)
        return detail or harvest(T, t)[1]

    return f"chain/{len(args[3])}", check, len(args[3])


def setup(seed: int) -> list:
    rng = random.Random(seed)
    shapes = []
    while len(shapes) < SHAPE_TREES:
        args = random_tree(rng, SIZES[len(shapes) % len(SIZES)], 3)
        if symmetrization_size(args) <= MAX_SYMMETRIZATION_SIZE:
            shapes.append(shape(args, relabel(args, rng)))
    triples = [tuple(random_tree(rng, rng.randint(4, 10), 2) for _ in range(3)) for _ in range(CIRC_TRIPLES)]
    strata = {
        "shape": shapes,
        "circ": [circ_laws(t) for t in triples],
        "chain": [long_chain(random_chain(rng, rng.randint(200, 400))) for _ in range(CHAINS)],
    }
    return stratify(strata, rng)


def overlimit() -> list:
    """Linear-time operations on inputs past the default recursion limit.

    Returns (label, detail) pairs; detail is None when the operation gave the
    right answer.  The recursion limit is left as it is.
    """
    args = chain("b" * (OVERLIMIT_CHAIN_EDGES + 1), [1 + i % 3 for i in range(OVERLIMIT_CHAIN_EDGES)])
    dsl = canonical_dsl(args)
    depth = OVERLIMIT_NEST_DEPTH
    nest_args = chain("b" + "wb" * (depth // 2) + "b" * (depth % 2), [1 + i % 2 for i in range(depth)])
    nest = canonical_dsl(nest_args)

    def parsed_dsl(t):
        return canonical_dsl((t.root, t.black, t.white, t.edges))

    probes = [
        (f"key chain/{OVERLIMIT_CHAIN_EDGES}", lambda: Tree.build(*args).key, dsl),
        (f"tree_to_json chain/{OVERLIMIT_CHAIN_EDGES}", lambda: json_to_dsl(tree_to_json(Tree.build(*args))), dsl),
        (f"parse_tree nest/{depth}", lambda: parsed_dsl(parse_tree(nest)), nest),
    ]
    out = []
    for label, run, expected in probes:
        try:
            detail = None if run() == expected else "wrong result"
        except Exception as exc:  # the known defect is a RecursionError; any error counts
            detail = type(exc).__name__
        out.append((label, detail))
    return out
