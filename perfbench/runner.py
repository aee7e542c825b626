"""Launch pspsim CLI processes one at a time and record what each one cost."""

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from check import Mismatch

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")


def now():
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Process:
    command: object
    spawned: float
    exited: float
    imported: float   # when `import pspsim` returned in the child; None if it never did
    returncode: int
    maxrss_mb: float
    directory: str
    error: str = None

    @property
    def setup_s(self):
        """Spawn until `import pspsim` returned; the whole lifetime if it never did."""
        return (self.exited if self.imported is None else self.imported) - self.spawned


@dataclass
class Iteration:
    processes: list = field(default_factory=list)

    @property
    def wall_s(self):
        """From the first spawn until the last exit."""
        return self.processes[-1].exited - self.processes[0].spawned


class Runner:
    """Runs commands under ``root`` with all output kept inside ``workdir``.

    Every child is killed at ``deadline`` (a now() value), so a hung
    command cannot keep the benchmark from exiting.
    """

    def __init__(self, root, workdir, deadline, checker):
        self.workdir = workdir
        self.deadline = deadline
        self.checker = checker
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
        self.env["TMPDIR"] = workdir
        # Let the warm-up leave __pycache__ behind, as an installed package has it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._count = 0

    def spawn(self, command=None, trace=False):
        """Run one command, or with command None a process that only imports pspsim."""
        launcher_args = ["--setup-only"] if command is None else ["--"] + list(command.argv)
        self._count += 1
        directory = os.path.join(self.workdir, "p%05d" % self._count)
        os.mkdir(directory)
        stamp = os.path.join(directory, "stamp")
        args = [sys.executable, LAUNCHER, "--stamp", stamp]
        if trace:
            args += ["--trace", os.path.join(directory, "trace.json")]
        env = dict(self.env, PSPSIM_OUT_DIR=directory)
        with open(os.path.join(directory, "stdout"), "wb") as out, \
                open(os.path.join(directory, "stderr"), "wb") as err:
            spawned = now()
            proc = subprocess.Popen(args + launcher_args, stdout=out, stderr=err,
                                    cwd=directory, env=env)
        lock = threading.Lock()
        reaped = []

        def kill():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(max(self.deadline - now(), 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = now()
            with lock:
                reaped.append(True)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(stamp) as fh:
                imported = float(fh.read())
        except (OSError, ValueError):
            imported = None
        return Process(command, spawned, exited, imported, proc.returncode,
                       usage.ru_maxrss / 1024.0, directory)

    def iteration(self, commands, trace=False):
        """Run the commands in order, then check every output."""
        result = Iteration()
        for command in commands:
            result.processes.append(self.spawn(command, trace))
        for process in result.processes:
            process.error = self.verify(process)
        return result

    def verify(self, process):
        """None if the process exited 0 with output matching its reference, else why not."""
        if process.returncode != 0:
            with open(os.path.join(process.directory, "stderr"), errors="replace") as fh:
                tail = fh.read()[-300:].strip()
            return "exit %d: %s" % (process.returncode, tail)
        with open(os.path.join(process.directory, "stdout")) as fh:
            stdout = fh.read()
        try:
            self.checker.check(process.command, process.directory, stdout)
        except Mismatch as exc:
            return str(exc)
        return None
