"""Self-check of the benchmark itself; exits 0 when every check holds.

usage: python3 perfbench/selfcheck.py   (from the repository root)

1. The reduced grid of every workload runs and matches the reference.
2. A perturbed copy of a reference cell, dataset or query, makes the
   check fail, so error_rate rises above 0.
3. A traced reduced fig5 run sees calls that only the rebinding of
   ``from .pns import ...`` names can catch, in the expected numbers.
4. run.py reports exactly the metrics BENCHMARK.json declares.
5. run.py exits non-zero without a result in a directory that holds
   only BENCHMARK.json and the benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from check import Checker
from runner import Runner, now
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def _expect(ok, what, failures):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def _perturb(text):
    """The text of a number moved by a relative 1e-9, far outside tolerance."""
    return repr(float(text) * (1.0 + 1e-9) + 1e-9)


def main():
    root = os.getcwd()
    failures = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        runner = Runner(root, workdir, now() + 600.0, Checker())
        tiny = {}
        for name, workload in sorted(WORKLOADS.items()):
            tiny[name] = runner.iteration(workload.tiny)
            errors = [p.error for p in tiny[name].processes if p.error]
            _expect(not errors, "%s reduced grid matches the reference %s" % (name, errors or ""),
                    failures)

        fig1 = tiny["fig1-default"].processes[0]
        table = runner.checker.table("fig1")
        table[1][3] = _perturb(table[1][3])
        _expect(runner.verify(fig1) is not None, "perturbed fig1 cell raises error_rate", failures)
        query = next(p for p in tiny["queries-cold"].processes if p.command.key.startswith("g2@"))
        entry = runner.checker.queries[query.command.key]
        lines = entry["stdout"].splitlines()
        lines[0] = _perturb(lines[0])
        entry["stdout"] = "\n".join(lines) + "\n"
        _expect(runner.verify(query) is not None, "perturbed query value raises error_rate",
                failures)

        runner.checker = Checker()
        fig5 = WORKLOADS["fig5-optimize"].tiny[0]
        process = runner.iteration([fig5], trace=True).processes[0]
        with open(os.path.join(process.directory, "trace.json")) as fh:
            calls = {k: v["calls"] for k, v in json.load(fh)["functions"].items()}
        # 7 curves x 3 distances x 40 grid points.
        _expect(calls.get("qkd.channel_stats") == 840 and calls.get("qkd.keyrate_for_protocol")
                == 840, "traced fig5 grid counts 840 estimator calls: %s"
                % calls.get("qkd.channel_stats"), failures)
        _expect(calls.get("pns.modular_poisson_mass", 0) > calls.get("pns.normalization", 0) > 0,
                "calls through `from .pns import` names are traced", failures)

        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
        _expect([m["name"] for m in declared["end_to_end"]] == [n for n, _ in run.END_TO_END]
                and [m["name"] for m in declared["per_layer"]] == list(run.per_layer_units()),
                "BENCHMARK.json declares the metrics run.py reports", failures)

        bare = os.path.join(workdir, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(os.path.join(root, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig1-default",
                              "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                             capture_output=True, text=True, timeout=170)
        _expect(out.returncode != 0 and '"correct"' not in out.stdout,
                "run.py fails without a result where src/pspsim is absent", failures)
    print("self-check %s" % ("failed: %d" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
