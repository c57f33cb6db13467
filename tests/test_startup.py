"""Start-up cost: what importing the command line loads, and what it leaves.

Each test runs a fresh interpreter, since this one has imported far more
than the command line needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import besselrules

SRC = str(Path(besselrules.__file__).resolve().parents[1])


def run_fresh(code: str, cwd) -> str:
    """Standard output of ``python -c code`` with this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy(tmp_path):
    # nor numpy.polynomial: the oracle's Gauss-Legendre rule is its own
    out = run_fresh(
        "import sys, json, besselrules.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))))",
        tmp_path,
    )
    assert json.loads(out) == []


def test_commands_import_nothing_after_the_cli(tmp_path):
    # import work done inside a command would be paid on every pass of a
    # process that runs many commands, and counted as command time
    commands = [
        ["lineshape", "--method", "ode", "--Omega", "0.03", "--M", "0.5",
         "--delta-steps", "1", "--output", "ode.csv"],
        ["sidebands", "--M", "1.7", "--output", "sidebands.csv"],
        ["coeffs", "--k-max", "6", "--output", "coeffs.json"],
    ]
    out = run_fresh(
        "import sys, json, besselrules.cli\n"
        "before = set(sys.modules)\n"
        f"codes = [besselrules.cli.main(argv) for argv in {commands!r}]\n"
        "print(json.dumps([codes, sorted(set(sys.modules) - before)]))",
        tmp_path,
    )
    codes, added = json.loads(out)
    assert codes == [0, 0, 0]
    assert added == []


def test_usage_error_leaves_the_shared_parser_as_built(tmp_path):
    # main() parses every call with the parser built at import; a call that
    # sets a-sum's options and then fails must leave nothing behind for the
    # next call, which takes the defaults of those options
    valid = ["a-sum", "--s", "1", "--M", "0.5", "--Omega", "0.05",
             "--method", "direct,geometric", "--output", "a.json"]
    failed = ["a-sum", "--s", "2", "--M", "3", "--Omega", "0.5", "--order", "7",
              "--expand", "--format", "csv", "--tolerance", "1", "--bogus",
              "--output", "a.json"]
    (tmp_path / "alone").mkdir()
    (tmp_path / "after").mkdir()
    run_fresh(f"import besselrules.cli\nassert besselrules.cli.main({valid!r}) == 0",
              tmp_path / "alone")
    run_fresh(
        "import besselrules.cli\n"
        "try:\n"
        f"    besselrules.cli.main({failed!r})\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 2\n"
        "else:\n"
        "    raise AssertionError('no usage error')\n"
        f"assert besselrules.cli.main({valid!r}) == 0",
        tmp_path / "after",
    )
    alone = (tmp_path / "alone" / "a.json").read_bytes()
    assert (tmp_path / "after" / "a.json").read_bytes() == alone
