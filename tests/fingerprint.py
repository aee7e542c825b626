"""Hash the output of every benchmark command, run in-process through pspsim.cli.main.

    python tests/fingerprint.py > fingerprints.txt

prints one "key sha256" line per command: fig1, fig4, fig5, fig5 --optimize-mu
and every single-point query of perfbench/workloads.py's QUERY_POOL.  The hash
is of the data file for a figure command and of stdout for a query.  The
package is imported from this checkout's src/, so running the script in two
checkouts and diffing the two listings shows whether a change kept every byte.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def commands():
    """The workloads.Command of every benchmark command, in a fixed order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import FIG1, FIG4, FIG5_OPTIMIZE, QUERY_POOL, Command
    finally:
        sys.path.pop(0)
    figures = [FIG1, FIG4, Command("fig5", ("fig5",), dataset="fig5.csv"), FIG5_OPTIMIZE]
    return figures + [c for stratum in QUERY_POOL for c in stratum if c.dataset is None]


def fingerprints():
    """The "key sha256" line of every command in commands(), in order."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from pspsim import cli
    finally:
        sys.path.pop(0)
    lines = []
    for command in commands():
        with tempfile.TemporaryDirectory() as out_dir, \
                mock.patch.dict(os.environ, {cli.OUT_DIR_ENV: out_dir}):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(command.argv))
            if code != cli.EXIT_OK:
                raise RuntimeError("%s exited %d" % (" ".join(command.argv), code))
            if command.dataset is None:
                data = stdout.getvalue().encode()
            else:
                with open(os.path.join(out_dir, command.dataset), "rb") as fh:
                    data = fh.read()
        lines.append("%s %s" % (command.key, hashlib.sha256(data).hexdigest()))
    return lines


if __name__ == "__main__":
    print("\n".join(fingerprints()))
