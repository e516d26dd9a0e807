import re

_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_(a\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion, with its call time."""
    rows = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            m = _ACCEPTANCE.search(getattr(rep, "nodeid", ""))
            if m:
                name = f"{m.group(1).upper()} {m.group(2).replace('_', ' ')}"
                rows[name] = f"{label} ({rep.duration:.2f} s)"
    if rows:
        terminalreporter.section("acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line(f"{name}: {rows[name]}")
