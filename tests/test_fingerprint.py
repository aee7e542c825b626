"""The benchmark-command fingerprint: one stable line per command, and the moved-cell
listing of a saved output against this checkout's."""

import subprocess
import sys

import fingerprint


def test_fingerprint_has_one_stable_line_per_command():
    commands = fingerprint.commands()
    # fig1, fig4, fig5, fig5 --optimize-mu and the 42 single-point queries
    assert len(commands) == 46
    first = fingerprint.fingerprints()
    keys = [line.split()[0] for line in first]
    assert keys == [c.key for c in commands] and len(set(keys)) == len(keys)
    assert all(len(line.split()[1]) == 64 for line in first)
    assert fingerprint.fingerprints() == first


def test_a_tree_compared_with_itself_moves_no_cell(tmp_path):
    fingerprint.save(tmp_path)
    lines = fingerprint.compare(tmp_path)
    assert [line.split()[0] for line in lines] == [c.key for c in fingerprint.commands()]
    for line in lines:
        _, counts, largest = line.split()
        moved, cells = map(int, counts.split("/"))
        assert moved == 0 and cells > 0 and float(largest) == 0.0, line


def test_moved_cells_counts_numbers_and_keeps_names_as_text():
    old = '{"e_b1": 0.25, "rate": 1e-05, "d": 8}\n'
    assert fingerprint.moved_cells(old, old) == (0, 3, 0.0)
    assert fingerprint.moved_cells(old.replace("0.25", "0.5"), old) == (1, 3, 1.0)
    assert fingerprint.moved_cells(old.replace("e_b1", "e_b2"), old) is None
    assert fingerprint.moved_cells("fidelity,4,0.5,0\n", "fidelity,4,0.5,1\n") == (1, 3, 1.0)
    assert fingerprint.moved_cells("x,1\n", "x,0\n")[2] == float("inf")


def test_compare_exits_1_unless_every_byte_is_kept(tmp_path):
    # "every byte kept" is one exit status: a moved cell, changed text or a missing
    # output each make it 1
    fingerprint.save(tmp_path)
    script = [sys.executable, fingerprint.__file__, "--compare", str(tmp_path)]
    assert subprocess.run(script, capture_output=True, timeout=120).returncode == 0
    fig1 = tmp_path / "fig1"
    fig1.write_text(fig1.read_text().replace(",0.99999999991666666\n", ",0.5\n", 1))
    assert subprocess.run(script, capture_output=True, timeout=120).returncode == 1
    lines = fingerprint.compare(tmp_path)
    assert fingerprint.kept(lines[1:]) and not fingerprint.kept(lines)
    assert not fingerprint.kept(lines[1:] + ["fig4 text-changed"])
    assert not fingerprint.kept(lines[1:] + ["fig4 missing"])
