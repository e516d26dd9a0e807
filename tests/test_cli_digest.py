import importlib.util
from pathlib import Path

from zetaforest.cli import _COMMANDS
from zetaforest.errors import TerminalNotBlack, TreeSyntaxError
from zetaforest.trees import parse_tree
from zetaforest.verify import SUITE_NAMES

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
_spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_invocations_cover_every_command_and_suite():
    argvs = cli_digest.invocations()
    assert {argv[0] for argv in argvs} == set(_COMMANDS) | {"verify"}
    suites = {argv[2] for argv in argvs if argv[:2] == ["verify", "--suite"]}
    assert suites >= set(SUITE_NAMES)
    for name in list(_COMMANDS) + ["verify"]:
        runs = [argv for argv in argvs if argv[0] == name]
        assert any("--json" in argv for argv in runs) and any("--json" not in argv for argv in runs)


def test_invocations_cover_white_roots():
    argvs = cli_digest.invocations()
    for name in ("zeta-tree", "zeta-shat"):
        assert [name, "--tree", "w(1:b(),2:b())"] in [argv[:3] for argv in argvs]


def test_invalid_inputs_reach_every_parser_error():
    faults = set()
    for argv in cli_digest.INVALID:
        if "--tree" in argv:
            try:
                parse_tree(argv[argv.index("--tree") + 1])
            except (TreeSyntaxError, TerminalNotBlack) as err:
                faults.add(str(err).partition(" at position")[0])
    assert faults == {
        "expected color 'b' or 'w'", "expected '('", "expected an edge index", "expected ':'",
        "expected ')'", "unexpected trailing input", "edge index of 5000 digits is too long",
        "terminal vertex 1 is white",
    }
