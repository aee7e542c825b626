"""Run one pspsim CLI command in a fresh interpreter, for the benchmark.

usage: python launch.py --stamp FILE [--trace FILE] (--setup-only | -- ARGS...)

Right after ``import pspsim`` returns, writes the CLOCK_MONOTONIC time to
the stamp FILE, so that the parent can time set-up from the moment it
spawned this process.  Then runs ``pspsim.cli.main(ARGS)`` and exits with
its code.  With --trace, the public functions of pspsim are wrapped by
tracer.Tracer after the import, and their counts and times are written to
the trace FILE when the command ends.
"""

import sys
import time

HERE = sys.path.pop(0)  # keep the benchmark's own modules from shadowing any import


def _parse(argv):
    opts = {"--stamp": None, "--trace": None, "--setup-only": False}
    i = 0
    while i < len(argv) and argv[i] != "--":
        flag = argv[i]
        if flag == "--setup-only":
            opts[flag] = True
            i += 1
        elif flag in opts and i + 1 < len(argv):
            opts[flag] = argv[i + 1]
            i += 2
        else:
            raise SystemExit("launch.py: bad argument %r" % flag)
    if opts["--stamp"] is None:
        raise SystemExit("launch.py: --stamp is required")
    return opts, argv[i + 1:]


def main(argv):
    opts, cli_args = _parse(argv)
    modules_before = len(sys.modules)
    start = time.perf_counter()
    import pspsim  # noqa: F401
    import_s = time.perf_counter() - start
    stamp = time.clock_gettime(time.CLOCK_MONOTONIC)
    modules_loaded = len(sys.modules) - modules_before
    with open(opts["--stamp"], "w") as fh:
        fh.write(repr(stamp))
    if opts["--setup-only"]:
        return 0
    from pspsim.cli import main as cli_main

    if opts["--trace"] is None:
        return cli_main(cli_args)
    sys.path.insert(0, HERE)
    import tracer

    del sys.path[0]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(opts["--trace"], import_s=import_s, modules_loaded=modules_loaded)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
