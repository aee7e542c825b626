"""Hash, save or compare the output of every benchmark command, run in-process
through pspsim.cli.main.

    python tests/fingerprint.py > fingerprints.txt
    python tests/fingerprint.py --save DIR
    python tests/fingerprint.py --compare DIR

The commands are fig1, fig4, fig5, fig5 --optimize-mu and every single-point
query of perfbench/workloads.py's QUERY_POOL; a command's output is its data
file for a figure command and its stdout for a query.  The package is
imported from this checkout's src/.

With no option the script prints one "key sha256" line per command, so
diffing the listings of two checkouts shows whether a change kept every byte.
--save writes each command's output to DIR/<key>.  --compare runs this
checkout's commands against such a directory, saved from another checkout,
and prints one "key moved/cells largest" line per command: how many numeric
cells differ, of how many, and the largest relative move |new - old| / |old|
among them.  A command whose text around the numbers differs prints "key
text-changed", and one with nothing saved prints "key missing".  --compare
exits with status 1 when any command moved a cell, changed text or is
missing, so "every byte kept" is its exit status 0.
"""

import argparse
import contextlib
import hashlib
import io
import math
import os
import re
import sys
import tempfile
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A numeric cell: a number not glued to a word, so the 1 of a name like e_b1 is text.
NUMBER = re.compile(r"(?<![\w.])(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


def commands():
    """The workloads.Command of every benchmark command, in a fixed order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import FIG1, FIG4, FIG5_OPTIMIZE, QUERY_POOL, Command
    finally:
        sys.path.pop(0)
    figures = [FIG1, FIG4, Command("fig5", ("fig5",), dataset="fig5.csv"), FIG5_OPTIMIZE]
    return figures + [c for stratum in QUERY_POOL for c in stratum if c.dataset is None]


def outputs():
    """(key, output bytes) of every command in commands(), in order."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from pspsim import cli
    finally:
        sys.path.pop(0)
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
        yield command.key, data


def fingerprints():
    """The "key sha256" line of every command in commands(), in order."""
    return ["%s %s" % (key, hashlib.sha256(data).hexdigest()) for key, data in outputs()]


def save(directory):
    """Write each command's output to directory/<key>."""
    os.makedirs(directory, exist_ok=True)
    for key, data in outputs():
        with open(os.path.join(directory, key), "wb") as fh:
            fh.write(data)


def moved_cells(new, old):
    """(moved, cells, largest relative move) of the numeric cells of the text new
    against old; None when the text around the numbers differs."""
    new_parts, old_parts = NUMBER.split(new), NUMBER.split(old)
    if new_parts[::2] != old_parts[::2]:
        return None
    pairs = [(float(a), float(b)) for a, b in zip(new_parts[1::2], old_parts[1::2])]
    moves = [abs(a - b) / abs(b) if b else math.inf for a, b in pairs if a != b]
    return len(moves), len(pairs), max(moves, default=0.0)


def kept(lines):
    """Whether every line of compare() reports no moved cell."""
    return all(re.fullmatch(r"\S+ 0/\d+ 0", line) for line in lines)


def compare(directory):
    """The "key ..." line of each command against the output saved in directory."""
    lines = []
    for key, data in outputs():
        path = os.path.join(directory, key)
        if not os.path.exists(path):
            lines.append("%s missing" % key)
            continue
        with open(path, "rb") as fh:
            moved = moved_cells(data.decode(), fh.read().decode())
        lines.append("%s text-changed" % key if moved is None
                     else "%s %d/%d %.2g" % ((key,) + moved))
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", metavar="DIR", help="write each command's output to DIR/<key>")
    mode.add_argument("--compare", metavar="DIR",
                      help="count the numeric cells that moved against the outputs in DIR")
    args = parser.parse_args()
    if args.save:
        save(args.save)
    elif args.compare:
        lines = compare(args.compare)
        print("\n".join(lines))
        sys.exit(0 if kept(lines) else 1)
    else:
        print("\n".join(fingerprints()))
