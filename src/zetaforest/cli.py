"""Command-line front end.

Exit codes: 0 on success (verification passed), 1 when a verification suite
finds a counterexample, 2 on input errors.  All output is UTF-8 and
newline-terminated; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .errors import BadIndex, ZetaForestError
from .indices import Tuple_
from .rationals import rat_str
from .symmetrize import phi, phi_hat
from .trees import (
    cap_phi,
    cap_phi_hat,
    harvestable_form,
    parse_tree,
    tree_to_json,
    w_word,
)
from .verify import SUITE_NAMES, RunConfig, run_suite
from .words import HElem
from .zeta import zeta_index, zeta_shat_tree, zeta_tree

DEFAULT_T_ORDER = 8


def default_t_order() -> int:
    """Default truncation order, overridable through ZF_T_ORDER."""
    raw = os.environ.get("ZF_T_ORDER", "").strip()
    if not raw:
        return DEFAULT_T_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise BadIndex(f"ZF_T_ORDER must be an integer, got {raw!r}")
    if value < 1:
        raise BadIndex("ZF_T_ORDER must be >= 1")
    return value


def parse_index(s: str) -> Tuple_:
    """Comma-separated positive integers; the empty string is the empty index."""
    s = s.strip()
    if not s:
        return ()
    out = []
    for part in s.split(","):
        part = part.strip()
        if not part.isdigit():
            raise BadIndex(f"bad index entry {part!r}")
        value = int(part)
        if value < 1:
            raise BadIndex(f"index entries must be positive, got {value}")
        out.append(value)
    return tuple(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaforest",
        description="Symmetrization maps on words and 2-colored rooted trees, "
        "with exact truncated-sum oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *, index=False, tree=False, m=False, t_order=False):
        p = sub.add_parser(name, help=help_)
        if index:
            p.add_argument("--index", required=True, help="comma-separated index, empty for the empty index")
        if tree:
            p.add_argument("--tree", required=True, help="tree DSL, e.g. b(2:b(1:b()))")
        if m:
            p.add_argument("-M", "--modulus-bound", dest="m", type=int, required=True, help="upper summation bound M")
        if t_order:
            p.add_argument("--t-order", dest="t_order", type=int, default=None, help="truncation order (default 8, env ZF_T_ORDER)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    add("phi", "constant-term symmetrization of the z-word of an index", index=True)
    add("phi-hat", "t-adic symmetrization of the z-word of an index", index=True, t_order=True)
    add("w", "word of a harvestable pair", tree=True)
    add("harvest", "harvestable form of an essentially positive pair", tree=True)
    add("cap-phi", "constant-term tree symmetrization", tree=True)
    add("cap-phi-hat", "t-adic tree symmetrization", tree=True, t_order=True)
    add("zeta", "truncated multiple harmonic sum", index=True, m=True)
    add("zeta-tree", "truncated tree sum", tree=True, m=True)
    add("zeta-shat", "shifted truncated tree sum as a t-series", tree=True, m=True, t_order=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, help=" | ".join(SUITE_NAMES))
    v.add_argument("--t-order", dest="t_order", type=int, default=None)
    v.add_argument("-M", "--modulus-bound", dest="m", type=int, default=RunConfig.m_max)
    v.add_argument("--weight-max", dest="weight_max", type=int, default=RunConfig.weight_max)
    v.add_argument("--seed", type=int, default=RunConfig.seed)
    v.add_argument("--count", type=int, default=RunConfig.count)
    v.add_argument("--json", action="store_true")
    return parser


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, sort_keys=True))


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command
    order = None
    if "t_order" in args:  # only the commands that take --t-order read ZF_T_ORDER
        order = args.t_order
        if order is None:
            order = default_t_order()
        elif order < 1:
            raise BadIndex("--t-order must be >= 1")

    if cmd == "phi":
        out = phi(HElem.from_index(parse_index(args.index)))
        _emit_json(out.to_json()) if args.json else _emit(str(out))
    elif cmd == "phi-hat":
        out = phi_hat(HElem.from_index(parse_index(args.index)), order)
        _emit_json(out.to_json(encode=lambda e: e.to_json())) if args.json else _emit(str(out))
    elif cmd == "w":
        out = w_word(parse_tree(args.tree))
        _emit_json(out.to_json()) if args.json else _emit(str(out))
    elif cmd == "harvest":
        out = harvestable_form(parse_tree(args.tree))
        if args.json:
            _emit_json({"dsl": out.key, "tree": tree_to_json(out)})
        else:
            _emit(out.key)
    elif cmd == "cap-phi":
        out = cap_phi(parse_tree(args.tree))
        _emit_json(out.to_json()) if args.json else _emit(str(out))
    elif cmd == "cap-phi-hat":
        out = cap_phi_hat(parse_tree(args.tree), order)
        _emit_json(out.to_json(encode=lambda c: c.to_json())) if args.json else _emit(str(out))
    elif cmd == "zeta":
        value = zeta_index(parse_index(args.index), _check_m(args.m))
        _emit_json({"value": rat_str(value)}) if args.json else _emit(rat_str(value))
    elif cmd == "zeta-tree":
        value = zeta_tree(parse_tree(args.tree), _check_m(args.m))
        _emit_json({"value": rat_str(value)}) if args.json else _emit(rat_str(value))
    elif cmd == "zeta-shat":
        out = zeta_shat_tree(parse_tree(args.tree), _check_m(args.m), order)
        _emit_json(out.to_json()) if args.json else _emit(str(out))
    elif cmd == "verify":
        cfg = RunConfig(
            t_order=order,
            m_max=args.m,
            weight_max=args.weight_max,
            seed=args.seed,
            count=args.count,
        )
        report = run_suite(args.suite, cfg)
        _emit_json(report.to_json()) if args.json else _emit(report.to_text())
        return 0 if report.ok else 1
    else:  # pragma: no cover - argparse enforces the command set
        raise ZetaForestError(f"unknown command {cmd!r}")
    return 0


def _check_m(m: int) -> int:
    if m < 0:
        raise BadIndex("M must be >= 0")
    return m


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ZetaForestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
