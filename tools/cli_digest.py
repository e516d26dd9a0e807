"""Digests of the command-line output over a fixed list of invocations.

    python3 tools/cli_digest.py

Run from the root of a checkout, it imports `zetaforest` from that
checkout's ``src`` and calls `zetaforest.cli.main` in-process, with
``ZF_T_ORDER`` unset, on every invocation of `invocations()`: each
`verify` suite at ``--t-order 3 -M 10``; each value command on the DSL of
every builtin and harvestable catalog tree and of three white-rooted trees,
or on every index of weight at most 4, at t-orders 1-4 and 8 and ``-M 6``
where the command takes them; and a few invalid inputs, among them one tree per
syntax error of the tree parser.  Each runs as text and with ``--json``.
It prints one sha256 per command over the (argv, exit code, stdout,
stderr) of its runs, then one over all runs, so two checkouts with the
same total gave the same bytes and exit codes everywhere.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

VERIFY_ARGS = ["--t-order", "3", "-M", "10"]
M_ARGS = ["-M", "6"]
T_ORDERS = (1, 2, 3, 4, 8)  # 8 is the CLI default
# no catalog tree has a white root; `w`, `harvest` and the tree maps reject them
WHITE_ROOTS = ["w(1:b(),2:b())", "w(0:b(),1:b(),1:b())", "w(1:w(1:b(),1:b()),2:b())"]
INVALID = [
    ["zeta", "--index", "1,0", "-M", "3"],
    ["phi-hat", "--index", "2", "--t-order", "0"],
    ["zeta-tree", "--tree", "b(1:b()", "-M", "3"],
    ["zeta-shat", "--tree", "b()", "-M", "-1", "--t-order", "2"],
    ["harvest", "--tree", "b(1:w())"],
    ["w", "--tree", "b(1:b(),1:b())"],
    ["cap-phi-hat", "--tree", "w(1:b(),1:b())", "--t-order", "2"],
    ["cap-phi"],
    ["verify", "--suite", "nope"],
    # the tree parser: each syntax error, whitespace, and the first white terminal
    ["harvest", "--tree", "b(1:)"],
    ["harvest", "--tree", "b 1:b()"],
    ["harvest", "--tree", "b(:b())"],
    ["harvest", "--tree", "b(1b())"],
    ["harvest", "--tree", "b(1:b();"],
    ["harvest", "--tree", "b()b()"],
    ["harvest", "--tree", "b(" + "1" * 5000 + ":b())"],
    ["w", "--tree", " b ( 2 : b ( 1 : b ( ) ) ) \t"],
    ["zeta-tree", "--tree", "b(1:w(),1:w())", "-M", "3"],
    ["cap-phi", "--tree", "b(0:b())"],
]


def invocations() -> list:
    """Every argv the digest runs, in order, each as text and with --json."""
    from zetaforest.catalog import builtin_catalog, harvestable_catalog
    from zetaforest.cli import _COMMANDS
    from zetaforest.indices import all_indices
    from zetaforest.verify import SUITE_NAMES

    inputs = {
        "tree": [t.key for t in builtin_catalog() + harvestable_catalog()] + WHITE_ROOTS,
        "index": [",".join(map(str, k)) for k in all_indices(4)],
    }
    out = [["verify", "--suite", name, *VERIFY_ARGS] for name in SUITE_NAMES]
    for name, cmd in _COMMANDS.items():
        m = M_ARGS if cmd.m else []
        orders = [["--t-order", str(n)] for n in T_ORDERS] if cmd.t_order else [[]]
        for value in inputs[cmd.input]:
            out += [[name, f"--{cmd.input}", value, *m, *o] for o in orders]
    out += INVALID
    return [argv + form for argv in out for form in ([], ["--json"])]


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of `cli.main(argv)` in this process."""
    from zetaforest.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    os.environ.pop("ZF_T_ORDER", None)
    per_command: dict = {}
    total = hashlib.sha256()
    for argv in invocations():
        record = json.dumps([argv, *run(argv)]).encode() + b"\n"
        per_command.setdefault(argv[0], hashlib.sha256()).update(record)
        total.update(record)
    for name, digest in per_command.items():
        print(f"{name} {digest.hexdigest()}")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
