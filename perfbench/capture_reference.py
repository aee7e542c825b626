"""Capture the reference outputs that the benchmark checks every run against.

usage: python3 perfbench/capture_reference.py   (from the repository root)

Runs fig1, fig4 and fig5 --optimize-mu at their defaults and every entry of
the queries-cold pool once, through the same launcher the benchmark uses,
and writes the datasets and the stdout of each query to perfbench/reference.
Manifests are not kept: they carry timing.  Run it only on a commit whose
outputs are trusted; the files in reference/ came from the seed commit.
"""

import json
import os
import shutil
import sys
import tempfile

from check import QUERIES_FILE, REFERENCE_DIR
from runner import Runner, now
from workloads import FIG1, FIG4, FIG5_OPTIMIZE, QUERY_POOL


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pspsim", "cli.py")):
        sys.stderr.write("capture_reference.py: run from the repository root\n")
        return 2
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    queries = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        runner = Runner(root, workdir, now() + 600.0, checker=None)
        commands = [FIG1, FIG4, FIG5_OPTIMIZE] + [c for stratum in QUERY_POOL for c in stratum]
        for command in {c.key: c for c in commands}.values():
            process = runner.spawn(command)
            if process.returncode != 0:
                sys.stderr.write("%s exited %d\n" % (" ".join(command.argv), process.returncode))
                return 1
            if command.dataset:
                shutil.copyfile(os.path.join(process.directory, command.dataset),
                                os.path.join(REFERENCE_DIR, command.key + ".csv"))
            else:
                with open(os.path.join(process.directory, "stdout")) as fh:
                    queries[command.key] = {"argv": list(command.argv), "stdout": fh.read()}
            print("captured %s" % command.key)
    with open(os.path.join(REFERENCE_DIR, QUERIES_FILE), "w") as fh:
        json.dump(queries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
