"""pspsim benchmark: cold-CLI time to a checked dataset, and traced per-layer figures.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pspsim checkout; the package need not be installed.
Every command runs in a fresh interpreter through ``pspsim.cli.main`` with
``PYTHONPATH=src``, one at a time, and its output is checked against the
reference data in ``perfbench/reference``.  All output goes to a temporary
directory in the checkout, removed on exit.

--trace 0 first runs one untimed reduced grid so that ``__pycache__``
exists, then times the workload's iterations for about S seconds (and at
least two processes) and reports the end-to-end metrics:

  wall_s       median over iterations of first spawn to last exit
  setup_s      median over processes of spawn to `import pspsim` returned
  peak_rss_mb  largest peak RSS of any workload process (from wait4)

--trace 1 runs one iteration untraced and the same iteration traced, and
reports the per-layer metrics: counts and self-time shares of the traced
public functions (wrapped by tracer.py from outside the package), the CLI
stages, import cost, derived counts, the worst deviation from the
reference and the tracing overhead (traced minus untraced wall time).
Self time is reported as a share of the traced wall time (``.self_pct``),
so that a function a workload never calls reads 0 % rather than a time
that is always zero; the printed table has it in seconds.

All three workloads, one after the other:

  for w in fig1-default fig5-optimize queries-cold; do
      python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done

The environment record and human-readable lines are printed first; the
last line of stdout is the JSON result.  ``error_rate`` (failed operations
over attempted ones; an operation is one process, and it fails on a
non-zero exit or an output outside tolerance) is printed on its own line
and carried by ``attempted`` and ``failed``; it is 0 whenever the program
is right, so it has no relative bound and is not an end-to-end metric.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata

from check import Checker
from runner import Runner, now
from tracer import CLI_STAGES
from workloads import WORKLOADS

# A run's children are killed after this long, so the run itself ends
# within three minutes even if a command hangs.
HARD_LIMIT_S = 165.0
# Set-up is sampled in every workload process, and in processes that only
# import pspsim: SETUP_PROBES before the timed iterations and, when the
# workload itself has few processes, more after them until there are
# SETUP_SAMPLES, so that the median spans the whole run.
SETUP_PROBES = 2
SETUP_SAMPLES = 4
# A run times at least this many workload processes, so that the wall_s of
# a workload made of one long process is never a single sample.
MIN_PROCESSES = 2

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Public functions whose call counts and self-time shares are reported.
TRACED_FUNCTIONS = (
    "pns.modular_poisson_mass", "pns.normalization", "pns.fidelity_to_number_state",
    "pns.pseudo_number_state",
    "states.fock_amplitude", "states.vacuum_probability", "states.auto_cutoff",
    "states.tensor", "states.beam_splitter",
    "metrics.hom", "metrics.g2_zero_closed",
    "generation.trigger_probability", "generation.herald_probabilities",
    "qkd.channel_stats", "qkd.pseudo_state_yield", "qkd.basis_fidelity_bound",
    "qkd.measure_bb84", "qkd.keyrate_nondecoy", "qkd.keyrate_wcs_decoy",
    "qkd.keyrate_psp_passive", "qkd.keyrate_psp_triggered", "qkd.optimize_mu",
)
LAYER_METRICS = (
    ("import.pspsim_s", "s"), ("import.modules_loaded", "count"),
    ("states.gram_entries", "count"), ("pns.modular_poisson_mass.repeat_share", "ratio"),
    ("qkd.evals_per_point", "count"), ("qkd.vacuous_share", "ratio"),
    ("cli.compute_s", "s"), ("cli.serialize_s", "s"), ("cli.validate_s", "s"),
    ("cli.manifest_s", "s"), ("cli.rows", "count"),
    ("check.max_rel_dev", "ratio"), ("trace.overhead_s", "s"),
)


def per_layer_units():
    """Name -> unit of every per-layer metric, in the order they are reported."""
    units = {}
    for name in TRACED_FUNCTIONS:
        units[name + ".calls"] = "count"
        units[name + ".self_pct"] = "%"
    units.update(LAYER_METRICS)
    return units


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed(runner, workload, rng, seconds):
    """End-to-end metrics over as many iterations as fit in `seconds`.

    At least one iteration and MIN_PROCESSES processes are timed even when
    that takes longer.
    """
    setup = [runner.spawn().setup_s for _ in range(SETUP_PROBES)]
    iterations = []
    start = now()
    while True:
        began = now()
        iterations.append(runner.iteration(workload.plan(rng)))
        last = now() - began
        processes = [p for it in iterations for p in it.processes]
        if now() + last > runner.deadline:
            break
        if len(processes) >= MIN_PROCESSES and now() - start + last > seconds:
            break
    setup += [p.setup_s for p in processes]
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.spawn().setup_s)
    walls = [it.wall_s for it in iterations]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p.maxrss_mb for p in processes),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    lines = [
        "wall_s = %.4f s (median of %d iterations: %s)"
        % (metrics["wall_s"]["value"], len(walls), ", ".join("%.3f" % w for w in walls)),
        "setup_s = %.4f s (median of %d processes)" % (metrics["setup_s"]["value"], len(setup)),
        "peak_rss_mb = %.1f MB (largest of %d processes)"
        % (metrics["peak_rss_mb"]["value"], len(processes)),
    ]
    return processes, metrics, lines


def traced(runner, workload, rng):
    """Per-layer metrics from one traced iteration, next to the same one untraced."""
    plan = workload.plan(rng)
    plain = runner.iteration(plan)
    traced_it = runner.iteration(plan, trace=True)
    records = []
    for process in traced_it.processes:
        path = os.path.join(process.directory, "trace.json")
        if os.path.isfile(path):
            with open(path) as fh:
                records.append(json.load(fh))
    functions = {}
    counters = {}
    for record in records:
        for name, stats in record["functions"].items():
            total = functions.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                total[key] += value
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def stat(name, key):
        return functions.get(name, {}).get(key, 0)

    def share(part, whole):
        return part / whole if whole else 0.0

    wall = traced_it.wall_s
    values = {}
    for name in TRACED_FUNCTIONS:
        values[name + ".calls"] = stat(name, "calls")
        values[name + ".self_pct"] = 100.0 * stat(name, "self_s") / wall
    stages = {"cli.%s_s" % stage: stat("cli." + name, "inclusive_s")
              for name, stage in CLI_STAGES.items()}
    commands = sum(s["inclusive_s"] for n, s in functions.items() if n.startswith("cli.cmd_"))
    values.update(stages)
    values.update({
        "import.pspsim_s": statistics.median(r["import_s"] for r in records) if records else 0.0,
        "import.modules_loaded": max((r["modules_loaded"] for r in records), default=0),
        "states.gram_entries": counters.get("gram_entries", 0),
        "pns.modular_poisson_mass.repeat_share":
            share(counters.get("mass_repeats", 0), stat("pns.modular_poisson_mass", "calls")),
        "qkd.evals_per_point":
            share(counters.get("optimize_evals", 0), stat("qkd.optimize_mu", "calls")),
        "qkd.vacuous_share":
            share(counters.get("vacuous_results", 0), counters.get("estimator_results", 0)),
        "cli.compute_s": commands - sum(stages.values()),
        "cli.rows": counters.get("rows", 0),
        "check.max_rel_dev": runner.checker.max_rel_dev,
        "trace.overhead_s": wall - plain.wall_s,
    })
    metrics = {name: _metric(values[name], unit) for name, unit in per_layer_units().items()}
    lines = ["untraced wall %.4f s, traced wall %.4f s" % (plain.wall_s, wall),
             "%-42s %9s %12s %12s" % ("function", "calls", "inclusive_s", "self_s")]
    for name, stats in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"]):
        if stats["calls"]:
            lines.append("%-42s %9d %12.6f %12.6f"
                         % (name, stats["calls"], stats["inclusive_s"], stats["self_s"]))
    lines += ["%s = %r %s" % (name, m["value"], m["unit"]) for name, m in metrics.items()]
    return plain.processes + traced_it.processes, metrics, lines


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root, seed):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "pspsim", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "commit": _commit(root),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "PYTHONDONTWRITEBYTECODE"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pspsim", "cli.py")):
        sys.stderr.write("run.py: %s holds no src/pspsim; run from the root of a pspsim "
                         "checkout\n" % root)
        return 2
    started = now()
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    checker = Checker()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        runner = Runner(root, workdir, started + HARD_LIMIT_S, checker)
        runner.iteration(workload.tiny[:1])  # warm-up, untimed: users compile bytecode once
        if args.trace:
            processes, metrics, lines = traced(runner, workload, rng)
        else:
            processes, metrics, lines = timed(runner, workload, rng, args.seconds)
    failed = [p for p in processes if p.error is not None]
    for process in failed:
        sys.stderr.write("FAILED %s: %s\n" % (" ".join(process.command.argv), process.error))
    print(json.dumps({"environment": environment(root, args.seed), "workload": workload.name,
                      "why": workload.why,
                      "commands": [" ".join(p.command.argv) for p in processes]}))
    for line in lines:
        print(line)
    print("error_rate = %r (%d failed of %d attempted)"
          % (len(failed) / len(processes), len(failed), len(processes)))
    print(json.dumps({"correct": not failed, "attempted": len(processes), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
