"""cli-cold: one fresh ``python -m zetaforest`` process per case, run one at
a time.  The cases cover every subcommand in text and --json form, cheap
verify suites and exit-2 error paths; stdout bytes and exit codes must match
the golden outputs in data/cli_golden.json.  Interpreter start-up and the
import of zetaforest.cli dominate, so work moved into import, or work that
only pays off with warm caches, shows here.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys

from common import ROOT, load_data, stratify

# peak_rss_mb is that of the largest CLI child, not of the benchmark process
RSS_WHO = resource.RUSAGE_CHILDREN
TIMEOUT_S = 60


def run_cli(argv, env):
    return subprocess.run(
        [sys.executable, "-m", "zetaforest", *argv], env=env, cwd=ROOT, capture_output=True, timeout=TIMEOUT_S
    )


def invocation(spec, base_env):
    env = {**base_env, **spec["env"]}
    expected = spec["stdout"].encode("utf-8")

    def check(T):
        proc = T.call("cli.main", run_cli, spec["argv"], env)
        if proc.returncode != spec["exit"]:
            return f"exit code {proc.returncode}, expected {spec['exit']}"
        if proc.stdout != expected:
            return "stdout differs from the golden output"
        return None

    return " ".join(spec["argv"]), check, spec["recorded_ms"]


def setup(seed: int) -> list:
    import zetaforest.cli  # noqa: F401  (import cost belongs to set-up, as for the other workloads)

    rng = random.Random(seed)
    base_env = {k: v for k, v in os.environ.items() if k != "ZF_T_ORDER"}
    base_env["PYTHONPATH"] = os.path.join(ROOT, "src")
    strata: dict = {"command": [], "verify": [], "error": []}
    for spec in load_data("cli_golden.json"):
        kind = "error" if spec["exit"] else "verify" if spec["argv"][0] == "verify" else "command"
        strata[kind].append(invocation(spec, base_env))
    return stratify(strata, rng)
