"""The record that each ``scripts/bench_*.py`` writes with ``--json``: the git
sha, Python version and CPU count of the run, then the script's own inputs
and results."""

import json
import os
import platform
import subprocess


def git_sha():
    """HEAD's sha, suffixed ``-dirty`` when the work tree has uncommitted changes."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def write_record(path: str, inputs: dict, results) -> None:
    record = {"git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
              "inputs": inputs, "results": results}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
