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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import BadIndex, ZetaForestError
from .indices import Tuple_
from .symmetrize import phi, phi_hat
from .trees import (
    Tree,
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


def default_t_order() -> int:
    """Default truncation order (`RunConfig.t_order`), overridable through ZF_T_ORDER."""
    raw = os.environ.get("ZF_T_ORDER", "").strip()
    if not raw:
        return RunConfig.t_order
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
        if not part.isdecimal():
            raise BadIndex(f"bad index entry {part!r}")
        try:
            value = int(part)
        except ValueError:  # more digits than int() converts
            raise BadIndex(f"index entry of {len(part)} digits is too long") from None
        if value < 1:
            raise BadIndex(f"index entries must be positive, got {value}")
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class _Command:
    """A value command: `call(input, [M], [t_order])` on the parsed input."""

    help: str
    input: str  # a key of _INPUTS
    call: Callable
    m: bool = False
    t_order: bool = False


_INPUTS = {
    "index": ("comma-separated index, empty for the empty index", parse_index),
    "tree": ("tree DSL, e.g. b(2:b(1:b()))", parse_tree),
}

_COMMANDS = {
    "phi": _Command("constant-term symmetrization of the z-word of an index", "index",
                    lambda k: phi(HElem.from_index(k))),
    "phi-hat": _Command("t-adic symmetrization of the z-word of an index", "index",
                        lambda k, order: phi_hat(HElem.from_index(k), order), t_order=True),
    "w": _Command("word of a harvestable pair", "tree", w_word),
    "harvest": _Command("harvestable form of an essentially positive pair", "tree", harvestable_form),
    "cap-phi": _Command("constant-term tree symmetrization", "tree", cap_phi),
    "cap-phi-hat": _Command("t-adic tree symmetrization", "tree", cap_phi_hat, t_order=True),
    "zeta": _Command("truncated multiple harmonic sum", "index", zeta_index, m=True),
    "zeta-tree": _Command("truncated tree sum", "tree", zeta_tree, m=True),
    "zeta-shat": _Command("shifted truncated tree sum as a t-series", "tree", zeta_shat_tree,
                          m=True, t_order=True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaforest",
        description="Symmetrization maps on words and 2-colored rooted trees, "
        "with exact truncated-sum oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument(f"--{cmd.input}", required=True, help=_INPUTS[cmd.input][0])
        if cmd.m:
            p.add_argument("-M", "--modulus-bound", dest="m", type=int, required=True, help="upper summation bound M")
        if cmd.t_order:
            p.add_argument("--t-order", dest="t_order", type=int, default=None, help=f"truncation order (default {RunConfig.t_order}, env ZF_T_ORDER)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, help=" | ".join(SUITE_NAMES))
    v.add_argument("--t-order", dest="t_order", type=int, default=None)
    v.add_argument("-M", "--modulus-bound", dest="m", type=int, default=RunConfig.m_max)
    v.add_argument("--weight-max", dest="weight_max", type=int, default=RunConfig.weight_max)
    v.add_argument("--seed", type=int, default=RunConfig.seed)
    v.add_argument("--count", type=int, default=RunConfig.count)
    v.add_argument("--json", action="store_true")
    return parser


def _render(out, as_json: bool) -> str:
    """`str(out)`, or its JSON: `out.to_json()`, but `{"dsl", "tree"}` for a
    tree and `{"value"}` for an exact rational."""
    if not as_json:
        return str(out)
    if isinstance(out, Tree):
        obj = {"dsl": out.key, "tree": tree_to_json(out)}
    elif hasattr(out, "to_json"):
        obj = out.to_json()
    else:
        obj = {"value": str(out)}
    return json.dumps(obj, sort_keys=True)


def _dispatch(args: argparse.Namespace) -> int:
    order = None
    if "t_order" in args:  # only the commands that take --t-order read ZF_T_ORDER
        order = args.t_order
        if order is None:
            order = default_t_order()
        elif order < 1:
            raise BadIndex("--t-order must be >= 1")

    if args.command == "verify":
        cfg = RunConfig(t_order=order, m_max=args.m, weight_max=args.weight_max,
                        seed=args.seed, count=args.count)
        report = run_suite(args.suite, cfg)
        sys.stdout.write((_render(report, True) if args.json else report.to_text()) + "\n")
        return 0 if report.ok else 1

    cmd = _COMMANDS[args.command]
    value = _INPUTS[cmd.input][1](getattr(args, cmd.input))
    if cmd.m and args.m < 0:
        raise BadIndex("M must be >= 0")
    extra = ([args.m] if cmd.m else []) + ([order] if cmd.t_order else [])
    sys.stdout.write(_render(cmd.call(value, *extra), args.json) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ZetaForestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
