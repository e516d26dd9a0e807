"""Verification suites: machine checks of the algebraic identities.

A suite is a list of tables (inputs, key, check, shrinks): deterministic
inputs (seeded where random), an input's canonical key, an exact check that
returns a failure's detail or None, and an input's one-step shrinks, each
again a valid input: an index has one entry lowered by 1 or dropped, and a
tree has one edge index lowered by 1 or one non-root leaf dropped.
`run_suite` sweeps every input, then replaces each failing one by the first
of its shrinks that still fails, as long as one does, and reports each
minimum once.  The descent reads the sweep's results by key, so each
distinct case is checked at most once per run; keys suffice, as every check
depends only on the isomorphism class of its input.

The catalog, tree and oracle layers are imported by the builders and suites
that call them, so the word suites (btt, t-btt, kaneko) load none of them.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .errors import BadIndex, BadOrder, BadRunConfig, InvalidTree, UnknownSuite
from .indices import Tuple_, all_indices, bumps, weight
from .rationals import Rat
from .series import DEFAULT_ORDER, TSeries
from .symmetrize import phi, phi_hat
from .words import HElem, harmonic, right_mul_x_pow, shuffle, shuffle_all

if TYPE_CHECKING:
    from .trees import Tree


@dataclass(frozen=True)
class RunConfig:
    t_order: int = DEFAULT_ORDER
    m_max: int = 10
    weight_max: int = 4
    seed: int = 0
    count: int = 100

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int:  # bool included
                raise BadRunConfig(f"{name} must be an int, got {value!r}")
        for name in ("t_order", "m_max", "weight_max"):
            if getattr(self, name) < 1:
                raise BadRunConfig(f"{name} must be >= 1")
        if self.seed < 0:
            raise BadRunConfig("seed must be >= 0")
        if self.count < 1:
            raise BadRunConfig("count must be >= 1")


@dataclass
class Failure:
    case: str
    detail: str


@dataclass
class Report:
    suite: str
    config: dict
    cases: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        lines += [f"{k}: {v}" for k, v in sorted(self.config.items())]
        lines.append(f"cases: {self.cases}")
        lines.append(f"failures: {len(self.failures)}")
        for f in self.failures:
            lines.append(f"FAIL {f.case} :: {f.detail}")
        lines.append("status: ok" if self.ok else "status: fail")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "cases": self.cases,
            "failures": [{"case": f.case, "detail": f.detail} for f in self.failures],
            "ok": self.ok,
        }


def _z(k: int) -> HElem:
    return HElem.from_index((k,))


def _diff(lhs, rhs) -> Optional[str]:
    if lhs == rhs:
        return None
    return f"lhs={lhs} rhs={rhs}"


# ---------------------------------------------------------------------------
# identity builders (the right-hand sides of the checked equalities)


def _unskipped(ks: Tuple_, order: int) -> HElem:
    """(z_{k_1} sh ... sh z_{k_r}) x^{k_{r+1}}, where both BTT sides start."""
    if len(ks) < 2:
        raise BadIndex(f"the skip-one identity needs an index of depth >= 2, got {ks}")
    if order < 1:
        raise BadOrder(f"t-order must be >= 1, got {order}")
    return right_mul_x_pow(shuffle_all(_z(k) for k in ks[:-1]), ks[-1])


def t_btt_lhs(ks: Tuple_, order: int) -> TSeries:
    """phi_hat of (z_{k_1} sh ... sh z_{k_r}) x^{k_{r+1}}."""
    return phi_hat(_unskipped(ks, order), order)


def t_btt_rhs(ks: Tuple_, order: int) -> TSeries:
    """Signed sum over skipped positions i: z_{k_i} moves into the x power,
    and (k_i, k_{r+1}) take every term of their t-adic expansion `bumps`."""
    rows: list[dict] = [{} for _ in range(order)]
    _unskipped(ks, order).add_into(rows[0])
    for i in range(len(ks) - 1):
        others = [_z(k) for k in ks[:i] + ks[i + 1 : -1]]
        for (ki, kr), d, c in bumps((ks[i], ks[-1]), order):
            right_mul_x_pow(shuffle_all(others + [_z(kr)]), ki).add_into(rows[d], c)
    return TSeries(map(HElem._wrap, rows), order)


def btt_lhs(ks: Tuple_) -> HElem:
    """Constant term of `t_btt_lhs`."""
    return t_btt_lhs(ks, 1).coeffs[0]


def btt_rhs(ks: Tuple_) -> HElem:
    """Constant term of `t_btt_rhs`."""
    return t_btt_rhs(ks, 1).coeffs[0]


def kaneko_lhs(k: Tuple_, l: Tuple_, order: int) -> TSeries:
    return phi_hat(shuffle(HElem.from_index(k), HElem.from_index(l)), order)


def kaneko_rhs(k: Tuple_, l: Tuple_, order: int) -> TSeries:
    rows: list[dict] = [{} for _ in range(order)]
    for bumped, d, c in bumps(l, order):
        word = HElem.from_index(k + bumped[::-1])
        for row, image in zip(rows[d:], phi_hat(word, order).coeffs):
            image.add_into(row, c)
    return TSeries(map(HElem._wrap, rows), order)


def main_lhs(t: Tree, order: int) -> TSeries:
    from .trees import harvestable_form, w_word

    return phi_hat(w_word(harvestable_form(t)), order)


def harvested_terms(t: Tree, order: int) -> list:
    """The terms of `symmetrization_terms`, one per isomorphism class with
    its merged coefficient, each tree replaced by its harvestable form.  They
    do not depend on M, so a sweep over M builds them once per tree."""
    from .trees import harvestable_form, symmetrization_terms

    return [(d, c, harvestable_form(tree)) for d, c, tree in symmetrization_terms(t, order)]


def _harvested_words(terms: list, order: int) -> TSeries:
    """The words of harvested terms, weighted by their coefficients, one
    t-degree each."""
    from .trees import w_word

    rows: list[dict] = [{} for _ in range(order)]
    for degree, coeff, hf in terms:
        w_word(hf).add_into(rows[degree], coeff)
    return TSeries(map(HElem._wrap, rows), order)


def main_rhs(t: Tree, order: int) -> TSeries:
    """Tree-side of the main identity: signed, b-weighted words of the
    harvestable forms of the re-rooted index-bumped trees.  Those trees are
    the keys of `cap_phi_hat`, so this is also the diagram w(Phi_hat(X)),
    and `diagram_rhs` is the same function."""
    return _harvested_words(harvested_terms(t, order), order)


# one function under two names: perfbench's word-algebra workload imports both
diagram_rhs = main_rhs


def root_change_rhs(terms: list, M: int, order: int) -> TSeries:
    """Tree sums at M of the harvested terms of a tree, one t-degree each;
    `terms` comes from `harvested_terms(t, order)`."""
    from .zeta import zeta_tree

    rows = [Rat(0) for _ in range(order)]
    for degree, coeff, hf in terms:
        rows[degree] += coeff * zeta_tree(hf, M)
    return TSeries(tuple(rows), order)


# ---------------------------------------------------------------------------
# cases and their shrinks


def _cases(inputs: list, key: Callable, check: Callable,
           shrinks: Callable = lambda x: ()) -> list[tuple]:
    """A suite's one table: its inputs, each keyed by `key(x)`, checked by
    `check(x)` (a failure's detail, or None), and shrunk to `shrinks(x)`."""
    return [(inputs, key, check, shrinks)]


def _commas(ks: Tuple_) -> str:
    return ",".join(map(str, ks))


def _pair_key(pair: tuple) -> str:
    return f"k={_commas(pair[0])} l={_commas(pair[1])}"


def _index_shrinks(ks: Tuple_) -> list:
    """The index with one entry lowered by 1, then with one entry dropped."""
    lowered = [ks[:i] + (e - 1,) + ks[i + 1 :] for i, e in enumerate(ks) if e > 1]
    return lowered + [ks[:i] + ks[i + 1 :] for i in range(len(ks))]


def _tree_shrinks(t: Tree) -> list:
    """The essentially positive trees with one edge index of `t` lowered by 1,
    then those with one non-root leaf of `t` dropped."""
    from .trees import Tree, is_essentially_positive

    out = []
    for u, v, k in t.edges:
        if k >= 1:
            edges = [(a, b, k - 1 if (a, b) == (u, v) else kk) for a, b, kk in t.edges]
            out.append(Tree.build(t.root, t.black, t.white, edges))
    for leaf in sorted(t.vertices):
        if leaf == t.root or t.degree(leaf) != 1:
            continue
        edges = [e for e in t.edges if leaf not in (e[0], e[1])]
        try:
            out.append(Tree.build(t.root, t.black - {leaf}, t.white - {leaf}, edges))
        except InvalidTree:  # dropping a leaf can leave a white terminal
            continue
    return [t2 for t2 in out if is_essentially_positive(t2)]


# ---------------------------------------------------------------------------
# suites


def _skip_one_cases(cfg: RunConfig, depths: tuple, suffix: str,
                    lhs: Callable, rhs: Callable) -> list[tuple]:
    """The BTT cases: every index of depth r + 1, r in `depths`, shrunk to
    indices of depth >= 2."""
    idxs = [ks for r in depths for ks in all_indices(cfg.weight_max) if len(ks) == r + 1]
    return _cases(idxs, lambda ks: f"index={_commas(ks)}{suffix}",
                  lambda ks: _diff(lhs(ks), rhs(ks)),
                  lambda ks: [s for s in _index_shrinks(ks) if len(s) >= 2])


def _suite_btt(cfg: RunConfig) -> list[tuple]:
    return _skip_one_cases(cfg, (1, 2, 3), "", btt_lhs, btt_rhs)


def _suite_t_btt(cfg: RunConfig) -> list[tuple]:
    order = cfg.t_order
    return _skip_one_cases(cfg, (1, 2), f" t_order={order}",
                           lambda ks: t_btt_lhs(ks, order), lambda ks: t_btt_rhs(ks, order))


def _suite_kaneko(cfg: RunConfig) -> list[tuple]:
    order = cfg.t_order

    def check(pair: tuple) -> Optional[str]:
        k, l = pair
        d = _diff(kaneko_lhs(k, l, order), kaneko_rhs(k, l, order))
        if d:
            return "series: " + d
        d = _diff(kaneko_lhs(k, l, 1).coeffs[0], kaneko_rhs(k, l, 1).coeffs[0])
        return "constant: " + d if d else None

    def shrinks(pair: tuple) -> list:
        k, l = pair
        return [(k2, l) for k2 in _index_shrinks(k)] + [(k, l2) for l2 in _index_shrinks(l)]

    idxs = all_indices(cfg.weight_max)
    pairs = [(k, l) for k in idxs for l in idxs if weight(k) + weight(l) <= cfg.weight_max]
    return _cases(pairs, _pair_key, check, shrinks)


def _suite_vanish(cfg: RunConfig) -> list[tuple]:
    from .catalog import symmetric_hybrid_tree
    from .trees import cap_phi, harvestable_form, w_word

    del cfg

    def check(t: Tree) -> Optional[str]:
        combo = cap_phi(t)
        if combo:
            return f"tree map image nonzero: {combo}"
        img = phi(w_word(harvestable_form(t)))
        if img:
            return f"word map image nonzero: {img}"
        return None

    trees = [symmetric_hybrid_tree(k1, k2, l) for k1 in (1, 2) for k2 in (1, 2) for l in (1, 3)]
    return _cases(trees, lambda t: f"tree={t.key}", check)


def _suite_root_change(cfg: RunConfig) -> list[tuple]:
    """One case per (tree, M).  A tree's harvested terms are built the first
    time a case of that tree is checked, and serve it at every M."""
    from .catalog import harvestable_catalog
    from .trees import harvestable_form
    from .zeta import zeta_shat_tree

    order = cfg.t_order
    # each tree's M from m_max down, so its walks at m_max serve every M below
    inputs = [(t, M) for t in harvestable_catalog() if len(t.vertices) > 1
              for M in range(cfg.m_max, 0, -1)]
    terms: dict[str, list] = {}  # tree key -> harvested terms, for this run

    def check(x: tuple) -> Optional[str]:
        t, M = x
        if t.key not in terms:
            terms[t.key] = harvested_terms(t, order)
        return _diff(zeta_shat_tree(t, M, order), root_change_rhs(terms[t.key], M, order))

    def shrinks(x: tuple) -> list:
        t, M = x
        forms = (harvestable_form(t2) for t2 in _tree_shrinks(t))
        return [(hf, M) for hf in forms if len(hf.vertices) > 1]

    return _cases(inputs, lambda x: f"tree={x[0].key} M={x[1]} t_order={order}", check, shrinks)


def _least_failing_m(at: Callable[[int], Optional[str]], m_max: int) -> Optional[str]:
    """The detail `at(M)` of the least failing M in 1..m_max, or None.
    Every M is checked, from m_max down, so a tree's first oracle walk is
    at m_max and serves every M below it."""
    failing = [d for d in map(at, range(m_max, 0, -1)) if d is not None]
    return failing[-1] if failing else None


def _catalog_cases(check: Callable[[Tree], Optional[str]]) -> list[tuple]:
    """One case per tree of the builtin catalog, every one essentially
    positive with a black root, keyed by the tree and shrunk by
    `_tree_shrinks`."""
    from .catalog import builtin_catalog

    return _cases(builtin_catalog(), lambda t: f"tree={t.key}", check, _tree_shrinks)


def _suite_harvest(cfg: RunConfig) -> list[tuple]:
    from .trees import harvestable_form, is_harvestable
    from .zeta import zeta_shat_tree, zeta_tree

    order = cfg.t_order

    def check(t: Tree) -> Optional[str]:
        hf = harvestable_form(t)
        if not is_harvestable(hf):
            return f"harvestable form is not harvestable: {hf.key}"

        def at(M: int) -> Optional[str]:
            d = _diff(zeta_shat_tree(t, M, order), zeta_shat_tree(hf, M, order))
            if d:
                return f"shifted sums differ at M={M}: {d}"
            if zeta_tree(t, M) != zeta_tree(hf, M):
                return f"plain sums differ at M={M}"
            return None

        return _least_failing_m(at, cfg.m_max)

    return _catalog_cases(check)


def _suite_main(cfg: RunConfig) -> list[tuple]:
    from .zeta import z_m_series

    order = cfg.t_order

    def check(t: Tree) -> Optional[str]:
        lhs = main_lhs(t, order)
        terms = harvested_terms(t, order)
        d = _diff(lhs, _harvested_words(terms, order))
        if d:
            return "word identity: " + d

        def at(M: int) -> Optional[str]:
            d = _diff(z_m_series(lhs, M), root_change_rhs(terms, M, order))
            return f"numeric at M={M}: " + d if d else None

        return _least_failing_m(at, cfg.m_max)

    return _catalog_cases(check)


def _suite_algebra(cfg: RunConfig) -> list[tuple]:
    from .zeta import z_m_eval

    idxs = all_indices(cfg.weight_max)
    unit = HElem.unit()

    def unit_check(k: Tuple_) -> Optional[str]:
        a = HElem.from_index(k)
        if shuffle(a, unit) != a or shuffle(unit, a) != a:
            return "shuffle unit law broken"
        if harmonic(a, unit) != a or harmonic(unit, a) != a:
            return "harmonic unit law broken"
        return None

    def pair_check(pair: tuple) -> Optional[str]:
        a, b = map(HElem.from_index, pair)
        if shuffle(a, b) != shuffle(b, a):
            return "shuffle not commutative"
        if harmonic(a, b) != harmonic(b, a):
            return "harmonic not commutative"
        if not (shuffle(a, b).is_h1 and harmonic(a, b).is_h1):
            return "product left the y-initial subspace"
        for M in range(2, cfg.m_max + 1):
            lhs = z_m_eval(harmonic(a, b), M)
            rhs = z_m_eval(a, M) * z_m_eval(b, M)
            if lhs != rhs:
                return f"harmonic sums not multiplicative at M={M}: {lhs} != {rhs}"
        return None

    def triple_check(x: tuple) -> Optional[str]:
        a, b, c = map(HElem.from_index, x[1:])
        if shuffle(shuffle(a, b), c) != shuffle(a, shuffle(b, c)):
            return "shuffle not associative"
        if harmonic(harmonic(a, b), c) != harmonic(a, harmonic(b, c)):
            return "harmonic not associative"
        return None

    rng = random.Random(cfg.seed)
    triples = [(n, *(rng.choice(idxs) for _ in range(3))) for n in range(cfg.count)]
    pairs = [(ka, kb) for i, ka in enumerate(idxs) for kb in idxs[i:]]
    return (_cases(idxs, lambda k: f"unit k={_commas(k)}", unit_check)
            + _cases(pairs, _pair_key, pair_check)
            + _cases(triples, lambda x: f"triple#{x[0]:03d} {x[1]}/{x[2]}/{x[3]}", triple_check))


def _suite_assoc(cfg: RunConfig) -> list[tuple]:
    from .catalog import random_harvestable, unit_tree
    from .trees import circ_h

    rng = random.Random(cfg.seed)
    unit = unit_tree()

    def check(x: tuple) -> Optional[str]:
        _, a, b, c = x
        if circ_h(a, b).key != circ_h(b, a).key:
            return "glue product not commutative"
        left = circ_h(circ_h(a, b), c).key
        right = circ_h(a, circ_h(b, c)).key
        if left != right:
            return f"glue product not associative: {left} != {right}"
        if circ_h(a, unit).key != a.key:
            return "unit law broken"
        return None

    triples = [(n, *(random_harvestable(rng, max_vertices=5, k_cap=2) for _ in range(3)))
               for n in range(cfg.count)]
    return _cases(triples, lambda x: f"triple#{x[0]:03d} {x[1].key} | {x[2].key} | {x[3].key}",
                  check)


_SUITES = {
    "main": _suite_main,
    "btt": _suite_btt,
    "t-btt": _suite_t_btt,
    "kaneko": _suite_kaneko,
    "vanish": _suite_vanish,
    "root-change": _suite_root_change,
    "harvest": _suite_harvest,
    "algebra": _suite_algebra,
    "assoc": _suite_assoc,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: RunConfig) -> Report:
    try:
        gen = _SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    cases = 0
    failures: dict[str, Failure] = {}  # one per distinct minimized case
    for inputs, key, check, shrinks in gen(cfg):
        seen: dict[str, Optional[str]] = {}  # key -> detail, None if it passed

        def detail(x) -> Optional[str]:
            k = key(x)
            if k not in seen:
                seen[k] = check(x)
            return seen[k]

        for x in [x for x in inputs if detail(x) is not None]:  # sweep, then descend
            while (y := next((y for y in shrinks(x) if detail(y) is not None), None)) is not None:
                x = y  # the first failing shrink, until none fails
            failures.setdefault(key(x), Failure(key(x), detail(x)))
        cases += len(inputs)
    return Report(suite=name, config=asdict(cfg), cases=cases,
                  failures=[failures[k] for k in sorted(failures)])
