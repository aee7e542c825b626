"""Compare pspsim outputs with the reference data captured at the seed commit.

A number matches when |got - ref| <= ATOL + RTOL * |ref|; text must match
exactly.  Byte identity is not required, because reordering a sum moves
the last digits.  Manifests are never compared: they carry timing.
"""

import csv
import json
import os

RTOL = 1e-12
ATOL = 1e-15
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
QUERIES_FILE = "queries.json"


class Mismatch(Exception):
    """An output differs from its reference."""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def parse_stdout(text):
    """A keyrate report is one JSON document; compute prints one value per line."""
    try:
        return json.loads(text)
    except ValueError:
        return [_parse_line(line) for line in text.splitlines() if line.strip()]


def _parse_line(line):
    try:
        return json.loads(line)
    except ValueError:
        try:
            return float(line)
        except ValueError:
            return line


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


class Checker:
    """Checks outputs against the references and tracks the worst deviation.

    max_rel_dev is the largest |got - ref| / |ref| over the nonzero
    reference numbers compared so far; a zero reference is checked against
    ATOL alone.
    """

    def __init__(self):
        self.max_rel_dev = 0.0
        self._tables = {}
        with open(os.path.join(REFERENCE_DIR, QUERIES_FILE)) as fh:
            self.queries = json.load(fh)

    def table(self, key):
        """Reference rows of a dataset, header first; cached and mutable."""
        if key not in self._tables:
            self._tables[key] = read_csv(os.path.join(REFERENCE_DIR, key + ".csv"))
        return self._tables[key]

    def check(self, command, out_dir, stdout):
        """Raise Mismatch unless the command's output matches its reference."""
        if command.dataset is None:
            if command.key not in self.queries:
                raise Mismatch("no reference for %s" % command.key)
            ref = parse_stdout(self.queries[command.key]["stdout"])
            self._compare(parse_stdout(stdout), ref, command.key)
            return
        path = os.path.join(out_dir, command.dataset)
        if not os.path.isfile(path):
            raise Mismatch("%s was not written" % command.dataset)
        self._compare_table(read_csv(path), self.table(command.key), command)

    def _compare_table(self, got, ref, command):
        header, ref_rows = ref[0], ref[1:]
        if command.rows is not None:
            ref_rows = [row for row in ref_rows if command.rows(dict(zip(header, row)))]
        if not got or got[0] != header:
            raise Mismatch("%s: header differs from the reference" % command.dataset)
        if len(got) - 1 != len(ref_rows):
            raise Mismatch("%s: %d rows, reference has %d"
                           % (command.dataset, len(got) - 1, len(ref_rows)))
        for i, (row, ref_row) in enumerate(zip(got[1:], ref_rows)):
            if len(row) != len(header):
                raise Mismatch("%s row %d is ragged" % (command.dataset, i + 1))
            for column, cell, ref_cell in zip(header, row, ref_row):
                ref_value = _number(ref_cell)
                if ref_value is None:
                    if cell != ref_cell:
                        raise Mismatch("%s row %d %s: %r != %r"
                                       % (command.dataset, i + 1, column, cell, ref_cell))
                    continue
                value = _number(cell)
                if value is None:
                    raise Mismatch("%s row %d %s: %r is not a number"
                                   % (command.dataset, i + 1, column, cell))
                self._compare_numbers(value, ref_value,
                                      "%s row %d %s" % (command.dataset, i + 1, column))

    def _compare(self, got, ref, where):
        if isinstance(ref, dict):
            if not isinstance(got, dict) or set(got) != set(ref):
                raise Mismatch("%s: keys differ from the reference" % where)
            for key in ref:
                self._compare(got[key], ref[key], "%s.%s" % (where, key))
        elif isinstance(ref, list):
            if not isinstance(got, list) or len(got) != len(ref):
                raise Mismatch("%s: length differs from the reference" % where)
            for i, (g, r) in enumerate(zip(got, ref)):
                self._compare(g, r, "%s[%d]" % (where, i))
        elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
            if not isinstance(got, (int, float)) or isinstance(got, bool):
                raise Mismatch("%s: %r is not a number" % (where, got))
            self._compare_numbers(float(got), float(ref), where)
        elif got != ref:
            raise Mismatch("%s: %r != %r" % (where, got, ref))

    def _compare_numbers(self, got, ref, where):
        if got == ref or (got != got and ref != ref):
            return
        diff = abs(got - ref)
        if ref != 0.0:
            self.max_rel_dev = max(self.max_rel_dev, diff / abs(ref))
        if not diff <= ATOL + RTOL * abs(ref):
            raise Mismatch("%s: %.17g differs from reference %.17g" % (where, got, ref))
