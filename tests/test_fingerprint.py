"""The benchmark-command fingerprint: one stable line per command."""

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
