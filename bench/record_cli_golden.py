"""Record exit code and stdout SHA-256 of every cli-session invocation.

The stored values define byte-identical CLI output for the benchmark's
oracle gate.  Regenerate only when the CLI contract changes on purpose:

    python3 bench/record_cli_golden.py
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ctx = workloads.CliContext(
        python=sys.executable, cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), golden={},
    )
    golden = {}
    for argv in inputs.CLI_INVOCATIONS:
        code, digest = workloads.run_cli({"argv": list(argv)}, ctx)
        golden[workloads.cli_key(argv)] = {"exit_code": code, "stdout_sha256": digest}
    with open(HERE / "cli_golden.json", "w", encoding="utf-8") as out:
        json.dump(golden, out, indent=2)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
