import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetaforest
from zetaforest.catalog import builtin_catalog
from zetaforest.cli import main, parse_index
from zetaforest.errors import BadIndex, TerminalNotBlack, TreeSyntaxError, ZetaForestError
from zetaforest.trees import Tree, parse_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- parsing ------------------------------------------------------------------


def test_parse_index():
    assert parse_index("2,1,3") == (2, 1, 3)
    assert parse_index("") == ()
    assert parse_index(" 4 , 5 ") == (4, 5)
    with pytest.raises(BadIndex):
        parse_index("0,1")
    with pytest.raises(BadIndex):
        parse_index("2,x")


def test_parse_tree_examples():
    t = parse_tree("b(2:b(1:b()))")
    assert t.key == "b(2:b(1:b()))"
    assert parse_tree("b()").key == "b()"
    assert parse_tree(" b( 1:b() , 0:w( 1:b(),2:b() ) ) ").key == "b(0:w(1:b(),2:b()),1:b())"


def test_parse_tree_errors():
    with pytest.raises(TerminalNotBlack):
        parse_tree("b(1:w())")
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree("b(1:q())")
    assert "position" in str(err.value)
    with pytest.raises(TreeSyntaxError):
        parse_tree("b(1:b()")
    with pytest.raises(TreeSyntaxError):
        parse_tree("b()b()")


# every branch of the scan: input, then the message and position it reports
PARSE_ERRORS = [
    ("", "expected color 'b' or 'w'", 0),
    ("b(1:)", "expected color 'b' or 'w'", 4),
    ("b(1:x())", "expected color 'b' or 'w'", 4),
    ("b", "expected '('", 1),
    ("b 1:b()", "expected '('", 2),
    ("b(:b())", "expected an edge index", 2),
    ("b(1:b(),", "expected an edge index", 8),
    ("b(²:b())", "expected an edge index", 2),
    ("b(1b())", "expected ':'", 3),
    ("b(1 b())", "expected ':'", 4),
    ("b(1:b()", "expected ')'", 7),
    ("b(1:b();", "expected ')'", 7),
    ("b()b()", "unexpected trailing input", 3),
    ("b(1:b()) )", "unexpected trailing input", 9),
    ("b(1:w())x", "unexpected trailing input", 8),  # a syntax error beats a white terminal
    ("b(" + "1" * 5000 + ":b())", "edge index of 5000 digits is too long", 2),
]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS)
def test_parse_tree_error_table(text, message, position):
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree(text)
    assert (str(err.value), err.value.position) == (f"{message} at position {position}", position)


def test_parse_tree_whitespace_and_digits():
    key = "b(1:b(),2:w(1:b(),1:b()))"
    assert parse_tree(" b ( 1 : b ( ) , 2 : w ( 1 : b ( ) , 1 : b ( ) ) ) ").key == key
    assert parse_tree(key + " \t\n").key == key
    # Unicode whitespace is whitespace, and a Unicode decimal digit is a digit
    assert parse_tree("\u3000b(\u00a01\u2003:b()\u2029,2:w(1:b(),1:b()))\u3000").key == key
    assert parse_tree("b(\u0661:b(),\u0662:w(1:b(),1:b()))").key == key


def test_parse_tree_reports_the_first_white_terminal():
    for text, vertex in (("b(1:w(),1:w())", 1), ("w()", 0), ("b(1:w(1:b()),2:w())", 3)):
        with pytest.raises(TerminalNotBlack) as err:
            parse_tree(text)
        assert str(err.value) == f"terminal vertex {vertex} is white"


def _check_parse(s: str) -> bool:
    """Whether `s` parses; if it does, to a valid tree whose key parses back
    to itself, and if not, with a ZetaForestError."""
    try:
        t = parse_tree(s)
    except ZetaForestError:
        return False
    assert Tree.build(t.root, t.black, t.white, t.edges) == t
    assert parse_tree(t.key).key == t.key
    return True


def test_parse_tree_on_seeded_mutations():
    # up to three edits of a catalog key; the grammar alone must make a tree
    rng = random.Random(21)
    keys = [t.key for t in builtin_catalog()]
    alphabet = "bw():, 0129²١\t\u3000"
    parsed = 0
    for _ in range(3000):
        s = rng.choice(keys)
        for _ in range(rng.randint(1, 3)):
            pos, ch = rng.randint(0, len(s)), rng.choice(alphabet)
            s = rng.choice([s[:pos] + ch + s[pos:], s[:pos] + ch + s[pos + 1:], s[:pos] + s[pos + 1:]])
        parsed += _check_parse(s)
    assert parsed > 100


def test_round_trip_catalog():
    for t in builtin_catalog():
        assert parse_tree(t.key).key == t.key


# --- subcommands ----------------------------------------------------------------


def test_w_command(capsys):
    code, out, _ = run_cli(capsys, "w", "--tree", "b(2:b(1:b()))")
    assert code == 0
    assert out == "yyx\n"


def test_zeta_command(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--index", "1", "-M", "3")
    assert code == 0
    assert out == "3/2\n"


def test_zeta_json(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--index", "2", "-M", "4", "--json")
    assert json.loads(out) == {"value": "49/36"}


def test_phi_command(capsys):
    code, out, _ = run_cli(capsys, "phi", "--index", "2")
    assert code == 0
    assert out == "2*yx\n"


def test_phi_hat_command(capsys):
    code, out, _ = run_cli(capsys, "phi-hat", "--index", "1", "--t-order", "3")
    assert out == "0 + -yx*t + -yxx*t^2 + O(t^3)\n"


def test_phi_hat_json_schema(capsys):
    code, out, _ = run_cli(capsys, "phi-hat", "--index", "1", "--t-order", "2", "--json")
    obj = json.loads(out)
    assert obj["t_order"] == 2
    assert obj["coeffs"][0] == {"terms": []}
    assert obj["coeffs"][1] == {"terms": [{"coeff": "-1", "word": "yx"}]}


def test_harvest_command(capsys):
    code, out, _ = run_cli(capsys, "harvest", "--tree", "b(1:b(1:b(),1:b()))")
    assert code == 0
    assert out == "b(1:b(0:w(1:b(),1:b())))\n"


def test_cap_phi_command(capsys):
    # odd edge index: the two re-rootings cancel on the same canonical key
    code, out, _ = run_cli(capsys, "cap-phi", "--tree", "b(1:b())")
    assert code == 0
    assert out == "0\n"
    code, out, _ = run_cli(capsys, "cap-phi", "--tree", "b(2:b())")
    assert out == "2*b(2:b())\n"


def test_cap_phi_hat_json(capsys):
    code, out, _ = run_cli(capsys, "cap-phi-hat", "--tree", "b()", "--t-order", "2", "--json")
    obj = json.loads(out)
    assert obj["t_order"] == 2
    assert obj["coeffs"][0]["terms"][0]["coeff"] == "1"
    assert obj["coeffs"][0]["terms"][0]["tree"] == {"color": "b", "edges": []}


def test_cap_phi_hat_deep_path(capsys):
    # 1100 edges from the root to the far black leaf: the bump vectors on that
    # path once came from a recursive enumerator that exceeded the recursion
    # limit.  The inner 0-edges take no bumps, so there are 3 + 1 terms, not
    # 1101 trees of 1101 vertices to key.
    path = "b(1:" + "w(0:" * 1098 + "w(1:b()" + ")" * 1099 + ")"
    code, out, _ = run_cli(capsys, "cap-phi-hat", "--t-order", "2", "--tree", path)
    assert code == 0
    assert out.endswith("*t + O(t^2)\n")


def test_zeta_shat_command(capsys):
    code, out, _ = run_cli(
        capsys, "zeta-shat", "--tree", "b(1:b())", "-M", "3", "--t-order", "3"
    )
    assert out == "0 + -5/4*t + -9/8*t^2 + O(t^3)\n"


def test_zeta_tree_command(capsys):
    code, out, _ = run_cli(capsys, "zeta-tree", "--tree", "b(0:w(1:b(),1:b()))", "-M", "3")
    assert out == "1\n"


def test_input_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "zeta", "--index", "0,1", "-M", "3")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "w", "--tree", "b(1:w())")
    assert code == 2
    code, _, err = run_cli(capsys, "w", "--tree", "b(1:b(),1:b())")
    assert code == 2  # not harvestable


@pytest.mark.parametrize("argv", [
    ["zeta", "--index", "1"],
    ["zeta-tree", "--tree", "b(1:b())"],
    ["zeta-shat", "--tree", "b(1:b())", "--t-order", "2"],
], ids=lambda argv: argv[0])
def test_m_past_maxsize_is_an_input_error(capsys, argv):
    # M past sys.maxsize is rejected before any oracle runs
    message = f"error: M must be <= {sys.maxsize}\n"
    for m in (sys.maxsize + 1, 10**20):
        assert run_cli(capsys, *argv, "-M", str(m)) == (2, "", message)


@pytest.mark.parametrize("argv", [
    ["phi", "--index", "99999999999999999999"],
    ["phi-hat", "--index", "99999999999999999999"],
    ["w", "--tree", "b(99999999999999999999:b())"],
], ids=lambda argv: argv[0])
def test_index_entry_past_maxsize_is_an_input_error(capsys, argv):
    # an entry past sys.maxsize is rejected before a word of that length is built
    message = f"error: index entries must be <= {sys.maxsize}: (99999999999999999999,)\n"
    assert run_cli(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("command", ["zeta-tree", "zeta-shat"])
def test_edge_index_past_maxsize_is_an_input_error(capsys, command):
    # an edge index past sys.maxsize is rejected before its powers are taken
    message = f"error: edge indices must be <= {sys.maxsize}: 99999999999999999999\n"
    argv = [command, "--tree", "b(99999999999999999999:b())", "-M", "3"]
    assert run_cli(capsys, *argv) == (2, "", message)


def test_tree_errors_say_what_is_wrong(capsys):
    # the key, then the reason; stdout stays empty and the exit code is 2
    for argv, message in (
        (["w", "--tree", "b(1:b(),1:b())"], "b(1:b(),1:b()): the root is not terminal"),
        (["cap-phi", "--tree", "b(0:b())"], "b(0:b()): two black vertices are joined by 0-edges"),
    ):
        for form in ([], ["--json"]):
            assert run_cli(capsys, *argv, *form) == (2, "", f"error: {message}\n")


def test_unknown_suite_exit_code(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_bad_run_config_exit_code(capsys):
    for flag, value, message in (("-M", "0", "m_max must be >= 1"),
                                 ("--weight-max", "0", "weight_max must be >= 1"),
                                 ("--seed", "-1", "seed must be >= 0"),
                                 ("--count", "0", "count must be >= 1")):
        code, out, err = run_cli(capsys, "verify", "--suite", "vanish", flag, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_library_value_error_is_not_an_input_error(capsys, monkeypatch):
    # only a ZetaForestError is an input error; any other exception is a bug
    from zetaforest import cli as cli_mod

    def broken(k, m):
        raise ValueError("bug")

    monkeypatch.setitem(cli_mod._COMMANDS, "zeta", cli_mod._COMMANDS["zeta"]._replace(call=broken))
    with pytest.raises(ValueError, match="bug"):
        main(["zeta", "--index", "1", "-M", "3"])
    assert capsys.readouterr().err == ""


def test_verify_failure_exit_code(capsys, monkeypatch):
    from zetaforest import verify
    from zetaforest.verify import Failure, Report

    def fake_run_suite(name, cfg):
        return Report(
            suite=name,
            config={"t_order": cfg.t_order},
            cases=1,
            failures=[Failure("index=9", "lhs=0 rhs=1")],
        )

    monkeypatch.setattr(verify, "run_suite", fake_run_suite)  # read when verify runs
    code, out, _ = run_cli(capsys, "verify", "--suite", "btt")
    assert code == 1
    assert "FAIL index=9 :: lhs=0 rhs=1" in out
    assert out.endswith("status: fail\n")


def test_verify_vanish(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "vanish", "--t-order", "3")
    assert code == 0
    assert "failures: 0" in out
    assert out.endswith("status: ok\n")


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "t-btt", "--t-order", "3", "--weight-max", "3", "--json"
    )
    obj = json.loads(out)
    assert code == 0
    assert obj["ok"] is True
    assert obj["failures"] == []
    assert obj["suite"] == "t-btt"
    assert obj["cases"] > 0


def test_determinism(capsys):
    args = ("verify", "--suite", "algebra", "--weight-max", "3", "-M", "5",
            "--count", "20", "--seed", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_env_var_t_order(capsys, monkeypatch):
    monkeypatch.setenv("ZF_T_ORDER", "2")
    code, out, _ = run_cli(capsys, "phi-hat", "--index", "1")
    assert out.endswith("O(t^2)\n")
    monkeypatch.setenv("ZF_T_ORDER", "zzz")
    code, _, err = run_cli(capsys, "phi-hat", "--index", "1")
    assert code == 2
    # commands without --t-order do not read the variable
    code, out, _ = run_cli(capsys, "zeta", "--index", "1", "-M", "3")
    assert (code, out) == (0, "3/2\n")


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports the same package
    as this process, installed or not."""
    home = str(Path(zetaforest.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point():
    proc = _fresh_python("-m", "zetaforest", "zeta", "--index", "1,2", "-M", "5")
    assert proc.returncode == 0
    assert proc.stdout.endswith("\n")


LOADS = """
import sys
before = set(sys.modules)
{run}
print(" ".join(sorted(set(sys.modules) - before)))
"""

RUN_MAIN = """
import contextlib, io
from zetaforest.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""


def _loaded_by(code: str) -> set:
    """The modules that running `code` in a fresh interpreter loads."""
    proc = _fresh_python("-c", LOADS.format(run=code))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


WORDS_ONLY = {"zetaforest.trees", "zetaforest.zeta", "zetaforest.verify", "zetaforest.catalog"}
NO_SUITES = {"zetaforest.verify", "zetaforest.catalog"}


@pytest.mark.parametrize("argv, absent", [
    (["phi", "--index", "3,1"], WORDS_ONLY),
    (["phi-hat", "--index", "2", "--t-order", "3", "--json"], WORDS_ONLY),
    (["zeta", "--index", "2,1", "-M", "5"], NO_SUITES | {"zetaforest.trees", "zetaforest.symmetrize"}),
    (["cap-phi", "--tree", "b(2:b(1:b()))", "--json"], NO_SUITES),
    (["zeta-tree", "--tree", "b(2:b(1:b()))", "-M", "4"], NO_SUITES),
    (["harvest", "--tree", "b(1:b(1:b(),1:b()))"], NO_SUITES),
])
def test_value_command_imports(argv, absent):
    # a cold run loads only the layers its command calls, and no dataclasses
    # (which loads inspect) on the way
    loaded = _loaded_by(RUN_MAIN.format(argv=argv))
    assert "zetaforest.cli" in loaded
    assert loaded & (absent | {"dataclasses", "inspect"}) == set()


@pytest.mark.parametrize("suite", ["btt", "t-btt", "kaneko"])
def test_word_suites_load_no_tree_layer(suite):
    # the word suites check phi, phi_hat and shuffles only, so a cold run
    # loads neither the catalog, nor the trees, nor the oracles
    loaded = _loaded_by(RUN_MAIN.format(argv=["verify", "--suite", suite, "--t-order", "2"]))
    assert "zetaforest.verify" in loaded
    assert loaded & {"zetaforest.catalog", "zetaforest.trees", "zetaforest.zeta"} == set()


def test_package_import_loads_no_submodule():
    loaded = _loaded_by("import zetaforest")
    assert {m for m in loaded if m.startswith("zetaforest")} == {"zetaforest"}


def _help(capsys, *argv) -> str:
    """The `--help` text of a subcommand, every run of white space one blank."""
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--help"])
    assert stop.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_help_comes_from_the_library_definitions(capsys, monkeypatch):
    from zetaforest.cli import _build_parser, default_t_order
    from zetaforest.verify import SUITE_NAMES, RunConfig

    monkeypatch.delenv("ZF_T_ORDER", raising=False)
    monkeypatch.setenv("COLUMNS", "200")  # no option's help is wrapped
    assert f"--suite SUITE {' | '.join(SUITE_NAMES)} " in _help(capsys, "verify")
    expected = f"--t-order T_ORDER truncation order (default {RunConfig.t_order}, env ZF_T_ORDER) "
    for command in ("phi-hat", "cap-phi-hat", "zeta-shat"):
        assert expected in _help(capsys, command)
    args = _build_parser().parse_args(["verify", "--suite", "btt"])
    cfg = RunConfig(t_order=default_t_order(), m_max=args.m, weight_max=args.weight_max,
                    seed=args.seed, count=args.count)
    assert args.t_order is None and cfg == RunConfig()


# --- golden output and malformed input ------------------------------------------

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "cli_golden.json"


def test_golden_cli_output(capsys, monkeypatch):
    # every recorded invocation, in-process: same stdout bytes and exit code
    mismatches = []
    for spec in json.loads(GOLDEN.read_text(encoding="utf-8")):
        with monkeypatch.context() as m:
            m.delenv("ZF_T_ORDER", raising=False)
            for name, value in spec["env"].items():
                m.setenv(name, value)
            try:
                code = main(spec["argv"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        got = (code, capsys.readouterr().out)
        if got != (spec["exit"], spec["stdout"]):
            mismatches.append((spec["argv"], got))
    assert mismatches == []


def test_non_ascii_digits_are_syntax_errors():
    # "²".isdigit() holds but int("²") fails: the parsers take decimal digits only
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree("b(²:b())")
    assert err.value.position == 2
    with pytest.raises(BadIndex):
        parse_index("²")
    assert parse_tree("b(١:b())").key == "b(1:b())"  # a decimal digit, as int() reads it
    assert parse_index("١,2") == (1, 2)


def test_overlong_digit_runs_are_input_errors(capsys):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by default)
    digits = "1" * 5000
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree("b(" + digits + ":b())")
    assert err.value.position == 2
    assert "too long" in str(err.value)
    with pytest.raises(BadIndex) as bad:
        parse_index(digits)
    assert "too long" in str(bad.value)
    code, out, err_text = run_cli(capsys, "harvest", "--tree", "b(" + digits + ":b())")
    assert (code, out) == (2, "")
    assert err_text == "error: edge index of 5000 digits is too long at position 2\n"
    code, out, err_text = run_cli(capsys, "zeta", "--index", digits, "-M", "3")
    assert (code, out) == (2, "")
    assert err_text == "error: index entry of 5000 digits is too long\n"


DSL_TEXT = st.text(alphabet="bw():, 0123456789²١\t\n", max_size=16)


def _mutations():
    keys = [t.key for t in builtin_catalog()]

    def mutate(key, pos, ch, op):
        pos %= len(key) + 1
        if op == "insert":
            return key[:pos] + ch + key[pos:]
        return key[:pos] + (ch if op == "replace" else "") + key[pos + 1:]

    return st.builds(mutate, st.sampled_from(keys), st.integers(0, 40),
                     st.sampled_from("bw():, 0129²١"), st.sampled_from(["insert", "replace", "delete"]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(DSL_TEXT, _mutations()))
def test_malformed_dsl_fuzz(s):
    _check_parse(s)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["harvest", "--tree", s]) in (0, 2)
