"""Command-line front end.

Exit codes: 0 on success (verification passed), 1 when a verification suite
finds a counterexample, 2 on input errors.  All output is UTF-8 and
newline-terminated; identical invocations produce identical bytes.

A run loads only what its command calls: this module imports the standard
library and the light `errors` and `indices` at load time, each command's
library call imports its layer when it runs, and a subcommand's arguments
are declared only when that subcommand is parsed, so `zetaforest.verify`
(which loads every layer) loads only for `verify`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import BadIndex, ZetaForestError
from .indices import Tuple_

_lib = sys.modules[__package__]  # the package: each name loads its layer on first use


def default_t_order() -> int:
    """Default truncation order (`series.DEFAULT_ORDER`), overridable through ZF_T_ORDER."""
    raw = os.environ.get("ZF_T_ORDER", "").strip()
    if not raw:
        from .series import DEFAULT_ORDER

        return DEFAULT_ORDER
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


class _Command(NamedTuple):
    """A value command: `call(input, [M], [t_order])` on the parsed input."""

    help: str
    input: str  # a key of _INPUTS
    call: Callable
    m: bool = False
    t_order: bool = False


_INPUTS = {
    "index": ("comma-separated index, empty for the empty index", parse_index),
    "tree": ("tree DSL, e.g. b(2:b(1:b()))", lambda s: _lib.parse_tree(s)),
}

_COMMANDS = {
    "phi": _Command("constant-term symmetrization of the z-word of an index", "index",
                    lambda k: _lib.phi(_lib.HElem.from_index(k))),
    "phi-hat": _Command("t-adic symmetrization of the z-word of an index", "index",
                        lambda k, order: _lib.phi_hat(_lib.HElem.from_index(k), order), t_order=True),
    "w": _Command("word of a harvestable pair", "tree", lambda t: _lib.w_word(t)),
    "harvest": _Command("harvestable form of an essentially positive pair", "tree",
                        lambda t: _lib.harvestable_form(t)),
    "cap-phi": _Command("constant-term tree symmetrization", "tree", lambda t: _lib.cap_phi(t)),
    "cap-phi-hat": _Command("t-adic tree symmetrization", "tree",
                            lambda t, order: _lib.cap_phi_hat(t, order), t_order=True),
    "zeta": _Command("truncated multiple harmonic sum", "index",
                     lambda k, m: _lib.zeta_index(k, m), m=True),
    "zeta-tree": _Command("truncated tree sum", "tree", lambda t, m: _lib.zeta_tree(t, m), m=True),
    "zeta-shat": _Command("shifted truncated tree sum as a t-series", "tree",
                          lambda t, m, order: _lib.zeta_shat_tree(t, m, order), m=True, t_order=True),
}


class _Subparser(argparse.ArgumentParser):
    """A subcommand's parser that declares its arguments, through `declare`,
    when it first parses (its `--help` included), not when it is built."""

    def __init__(self, *args, declare: Callable[[argparse.ArgumentParser], None], **kwargs):
        super().__init__(*args, **kwargs)
        self._declare = declare

    def parse_known_args(self, args=None, namespace=None):
        if self._declare is not None:
            self._declare(self)
            self._declare = None
        return super().parse_known_args(args, namespace)


def _value_arguments(cmd: _Command, p: argparse.ArgumentParser) -> None:
    p.add_argument(f"--{cmd.input}", required=True, help=_INPUTS[cmd.input][0])
    if cmd.m:
        p.add_argument("-M", "--modulus-bound", dest="m", type=int, required=True, help="upper summation bound M")
    if cmd.t_order:
        from .series import DEFAULT_ORDER

        p.add_argument("--t-order", dest="t_order", type=int, default=None, help=f"truncation order (default {DEFAULT_ORDER}, env ZF_T_ORDER)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .verify import SUITE_NAMES, RunConfig

    p.add_argument("--suite", required=True, help=" | ".join(SUITE_NAMES))
    p.add_argument("--t-order", dest="t_order", type=int, default=None)
    p.add_argument("-M", "--modulus-bound", dest="m", type=int, default=RunConfig.m_max)
    p.add_argument("--weight-max", dest="weight_max", type=int, default=RunConfig.weight_max)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--count", type=int, default=RunConfig.count)
    p.add_argument("--json", action="store_true")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaforest",
        description="Symmetrization maps on words and 2-colored rooted trees, "
        "with exact truncated-sum oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)
    for name, cmd in _COMMANDS.items():
        sub.add_parser(name, help=cmd.help, declare=lambda p, cmd=cmd: _value_arguments(cmd, p))
    sub.add_parser("verify", help="run a verification suite", declare=_verify_arguments)
    return parser


def _render(out, as_json: bool) -> str:
    """`str(out)`, or its JSON: `out.to_json()`, but `{"value"}` for an exact
    rational."""
    if not as_json:
        return str(out)
    import json

    obj = out.to_json() if hasattr(out, "to_json") else {"value": str(out)}
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
        from .verify import RunConfig, run_suite

        cfg = RunConfig(t_order=order, m_max=args.m, weight_max=args.weight_max,
                        seed=args.seed, count=args.count)
        report = run_suite(args.suite, cfg)
        sys.stdout.write((_render(report, True) if args.json else report.to_text()) + "\n")
        return 0 if report.ok else 1

    cmd = _COMMANDS[args.command]
    value = _INPUTS[cmd.input][1](getattr(args, cmd.input))
    if cmd.m and args.m < 0:
        raise BadIndex("M must be >= 0")
    if cmd.m and args.m > sys.maxsize:  # past what range() and lcm() take
        raise BadIndex(f"M must be <= {sys.maxsize}")
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
