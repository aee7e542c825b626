"""Command-line front end: figure datasets, single-point queries, key-rate reports.

Subcommands
-----------
fig1     fidelity / g2 / p11 / f2002 sweeps over mu for several d
fig4     basis-indistinguishability bound sweeps over mu
fig5     key rate versus distance for the configured source curves
compute  evaluate one library quantity and print value plus diagnostics
keyrate  one key-rate evaluation (optionally mu-optimized) as JSON

Output files are long-format CSV (one row per grid point) or an equivalent
JSON array; every float is serialized with 17 significant digits so reruns
are byte-identical.  A manifest JSON with the resolved configuration and
timing is written next to each data file.  Exit codes: 0 success, 2 invalid
parameters, 3 I/O failure, 4 numerical-diagnostic failure.
"""

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import NumericalDiagnosticError, TruncationError
from .pns import (PSPParams, _nonzero_mass, _support_probability, _validate_dj,
                  fidelity_to_number_state, normalization)
from .metrics import _equal_input_p11, _noon_overlap, f2002, g2_zero_closed, p11
from .generation import GenerationParams, herald_probabilities, trigger_probability
from .qkd import (PARAMETERS, PROTOCOLS, PSP_PASSIVE_DECOY, PSP_TRIGGERED, WCS_DECOY,
                  ChannelParams, basis_fidelity_bound, keyrate_curve, measure_bb84, phase_set)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

OUT_DIR_ENV = "PSPSIM_OUT_DIR"
FORMATS = ("csv", "json")


def _fmt(value):
    """Serialize one cell; floats get 17 significant digits."""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _resolve_out(path, default_name):
    path = default_name if path is None else path
    base = os.environ.get(OUT_DIR_ENV, "")
    if base and not os.path.isabs(path) and os.sep not in path:
        path = os.path.join(base, path)
    return path


def _write_rows(path, fmt, header, rows):
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
            return
        fh.write("[\n")
        for i, row in enumerate(rows):
            cells = ", ".join('"%s": %s' % (k, json.dumps(v) if isinstance(v, str) else _fmt(v))
                              for k, v in zip(header, row))
            fh.write("  {%s}%s\n" % (cells, "," if i + 1 < len(rows) else ""))
        fh.write("]\n")


def _self_validate(path, fmt, header, n_rows):
    """Re-parse the emitted file and check the schema before declaring success."""
    with open(path, newline="") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            header_ok = next(reader, None) == list(header)
            rows_ok = [len(row) == len(header) for row in reader]
        else:
            header_ok = True
            rows_ok = [set(entry) == set(header) for entry in json.load(fh)]
    if not (header_ok and all(rows_ok)):
        raise OSError("self-validation failed: rows do not match the header in %s" % path)
    if len(rows_ok) != n_rows:
        raise OSError("self-validation failed: row count %d != %d" % (len(rows_ok), n_rows))


def _write_manifest(path, command, resolved, duration, summary):
    manifest = {
        "tool": "pspsim",
        "version": __version__,
        "command": command,
        "resolved_config": resolved,
        "duration_seconds": duration,
        "diagnostics": summary,
    }
    with open(path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Config:
    """Layered option lookup: CLI flag, then config-file section, then default."""

    def __init__(self, args, section):
        self.args = args
        self.section = section
        self.parser = configparser.ConfigParser()
        if getattr(args, "config", None) and not self.parser.read(args.config):
            raise OSError("config file not found: %s" % args.config)
        # a key in the subcommand's own section must name one of its flags; [common]
        # spans subcommands, so a key there that this one does not read is ignored
        flags = {dest.replace("_", "-") for dest in vars(args)} - {"command", "func", "config"}
        for key in self.parser[section] if self.parser.has_section(section) else ():
            if key not in flags and key not in self.parser.defaults():
                raise ValueError("unknown key %r in [%s] of %s" % (key, section, args.config))

    def get(self, key, default, cast=str):
        """A list default makes the file value a comma- or space-separated list."""
        cli = getattr(self.args, key.replace("-", "_"), None)
        if cli is not None:
            return cli
        raw = self.parser.get(self.section, key,
                              fallback=self.parser.get("common", key, fallback=None))
        if raw is None:
            return default
        if isinstance(default, list):
            return [cast(tok) for tok in raw.replace(",", " ").split()]
        if cast is bool:
            if raw.lower() not in self.parser.BOOLEAN_STATES:  # configparser's words only
                words = "/".join(self.parser.BOOLEAN_STATES)
                raise ValueError("%s must be one of %s, not %r" % (key, words, raw))
            return self.parser.BOOLEAN_STATES[raw.lower()]
        return cast(raw)


# The most points one grid flag may ask for.  fig5 --optimize-mu over this many
# distances is a 40 x 10,000 (mu, distance) surface, which peaks near 150 MB.
GRID_MAX_POINTS = 10**4


def _grid(what, lo, hi, step=None, points=None):
    """lo, lo + step, ... up to hi (within step / 2), or points log-spaced values from lo to hi.

    A grid of more than GRID_MAX_POINTS points (or of a count that is not a
    number) is a ValueError, raised before anything is allocated.
    """
    if points is None:
        points = (hi + step / 2 - lo) / step  # the length np.arange rounds up
    if not points <= GRID_MAX_POINTS:
        raise ValueError("%s must hold at most GRID_MAX_POINTS = %d points, not %.6g"
                         % (what, GRID_MAX_POINTS, points))
    if step is None:
        return np.logspace(math.log10(lo), math.log10(hi), points)
    return np.arange(lo, hi + step / 2, step)


def _mu_grid(cfg, default_min, default_max):
    """Log-spaced mu grid and its manifest entries."""
    lo = cfg.get("mu-min", default_min, float)
    hi = cfg.get("mu-max", default_max, float)
    n = cfg.get("mu-points", 200, int)
    if not (0 < lo < hi) or n < 2:
        raise ValueError("mu grid requires 0 < mu-min < mu-max and >= 2 points")
    mus = _grid("mu grid", lo, hi, points=n)
    return mus, {"mu_min": float(mus[0]), "mu_max": float(mus[-1]), "mu_points": n}


def _fig1_rows(cfg):
    mus, resolved = _mu_grid(cfg, 0.01, 20.0)
    d_list = resolved["d_list"] = cfg.get("d-list", [4, 8, 12], int)
    rows = []
    for d in d_list:
        g2s = g2_zero_closed(mus, d).tolist()
        # j = 1 % d, the state on n = 1 (mod d), which is the coherent state at
        # d = 1; one M_j table serves every point's fidelity, p11 and f2002
        masses = _nonzero_mass(mus, d, 1 % d)
        homs = _equal_input_p11(mus, masses, d, 1 % d, 0.0)
        for mu, mass, g2, hom in zip(mus.tolist(), masses.tolist(), g2s, homs):
            one = _support_probability(mu, mass, 1)  # photon_number_probability(p, 1)
            rows += [("fidelity", d, mu, one), ("g2", d, mu, g2), ("p11", d, mu, hom),
                     ("f2002", d, mu, _noon_overlap(one, one))]
    return ("quantity", "d", "mu", "value"), rows, resolved


def _fig4_rows(cfg):
    mus, resolved = _mu_grid(cfg, 0.001, 1.0)
    d_list = resolved["d_list"] = cfg.get("d-list", [4, 8], int)
    j_list = resolved["j_list"] = cfg.get("j-list", [0, 1], int)
    rows = [("basis_fidelity", d, j, float(mu), value)
            for d in d_list for j in j_list
            for mu, value in zip(mus, basis_fidelity_bound(mus, d, j).tolist())]
    return ("quantity", "d", "j", "mu", "value"), rows, resolved


# Reference curves for the distance sweep: (d, source mu) with mu near the
# optimum for each d; the decoy baseline is always mu-optimized per point.
FIG5_PSP_CURVES = ((4, 0.08), (8, 0.45), (36, 1.0))
# The mu search grid (min, max, step) of fig5 and keyrate --optimize-mu: 40 points.
MU_SEARCH = (0.05, 2.0, 0.05)


def _fig5_rows(cfg):
    l_min = cfg.get("l-min", 0.0, float)
    l_max = cfg.get("l-max", 100.0, float)
    l_step = cfg.get("l-step", 1.0, float)
    if not (l_step > 0 and l_max >= l_min):
        raise ValueError("distance grid requires l-step > 0 and l-max >= l-min")
    optimize = cfg.get("optimize-mu", False, bool)
    convention = cfg.get("trigger-convention", "paper")
    eta_trig = cfg.get("eta-trigger-det", 0.12, float)
    distances = _grid("distance grid", l_min, l_max, l_step)
    mu_grid = _grid("mu grid", *MU_SEARCH)

    trigger = {"eta_trigger_det": eta_trig, "convention": convention}
    specs = [(WCS_DECOY, None, None, {})]
    specs += [(PSP_PASSIVE_DECOY, d, mu, {}) for d, mu in FIG5_PSP_CURVES]
    specs += [(PSP_TRIGGERED, d, mu, dict(trigger, nu=4.0 * d * d)) for d, mu in FIG5_PSP_CURVES]
    c = ChannelParams()  # every channel parameter but the distance
    rows = []
    for protocol, d, mu, kwargs in specs:
        curve = keyrate_curve(protocol, c, mu_grid if optimize or mu is None else mu, distances,
                              d, **kwargs)
        rows += [(protocol, 0 if d is None else d, float(mu_star), kwargs.get("nu", 0.0),
                  float(L), float(rate))
                 for mu_star, L, rate in zip(curve.mu, curve.distance_km, curve.rate)]
    resolved = {"l_min": l_min, "l_max": l_max, "l_step": l_step, "optimize_mu": optimize,
                "trigger_convention": convention, "eta_trigger_det": eta_trig}
    return ("protocol", "d", "mu", "nu", "distance_km", "rate"), rows, resolved


# Figure datasets: each row function maps the layered config to (header, rows,
# resolved config); the last column of every row is the plotted value.
DATASETS = {"fig1": _fig1_rows, "fig4": _fig4_rows, "fig5": _fig5_rows}


def cmd_dataset(args):
    """Build one figure dataset, write it, re-read it and write its manifest."""
    cfg = _Config(args, args.command)
    fmt = cfg.get("format", "csv")
    if fmt not in FORMATS:  # the flag is checked by argparse, an INI value is not
        raise ValueError("format must be one of %s, not %r" % ("|".join(FORMATS), fmt))
    out = _resolve_out(cfg.get("out", None), "%s.%s" % (args.command, fmt))
    start = time.time()
    header, rows, resolved = DATASETS[args.command](cfg)
    _write_rows(out, fmt, header, rows)
    _self_validate(out, fmt, header, len(rows))
    values = [row[-1] for row in rows]
    summary = {
        "points": len(rows),
        "value_min": min(values),
        "value_max": max(values),
        "positive_values": sum(1 for v in values if v > 0),
    }
    resolved.update(format=fmt, out=out)
    _write_manifest(out, args.command, resolved, time.time() - start, summary)
    print("wrote %s (%d rows)" % (out, len(rows)))
    return EXIT_OK


def _hom_inputs(args):
    # one-photon states: j = 1 % d, which is 0 at d = 1; PSPParams refuses a d below 1
    return tuple(PSPParams(mu=mu, d=d, j=1 % d if d > 0 else 1, delta=delta)
                 for mu, d, delta in ((args.mu, args.d, args.delta),
                                      (args.mu2, args.d2, args.delta2)))


def _generation(args):
    g = GenerationParams(mu=args.mu, nu=args.nu, d=args.d, eta_det=args.eta_det)
    _validate_dj(g.d, args.j)  # herald indexes by j: -1 would read residue d - 1
    return g


def _encoding_error(args):
    # Worst-case conditional wrong-port probability over the four signal
    # states when each is read in its own basis.  The intended ports in
    # list order are (0, 1, 1, 0); the set choice only moves the fourth.
    worst = 0.0
    for i, k in enumerate(phase_set(args.d, args.phase_set)):
        p0, p1, _, _ = measure_bb84(args.mu, args.d, args.j, k, "X" if i % 2 == 0 else "Y")
        wrong = p1 if i in (0, 3) else p0
        if p0 + p1 > 0.0:
            worst = max(worst, wrong / (p0 + p1))
    return worst


# compute quantities: (evaluate(args), names of the args echoed as params).
# The lambdas look library functions up at call time, so a patched module
# attribute is what gets called.
_MDJ = ("mu", "d", "j")
_HOM_PARAMS = ("mu", "d", "mu2", "d2", "delta", "delta2")
QUANTITIES = {
    "fidelity": (lambda a: fidelity_to_number_state(PSPParams(mu=a.mu, d=a.d, j=a.j)), _MDJ),
    "g2": (lambda a: g2_zero_closed(a.mu, a.d), ("mu", "d")),
    "p11": (lambda a: p11(*_hom_inputs(a)), _HOM_PARAMS),
    "f2002": (lambda a: f2002(*_hom_inputs(a)), _HOM_PARAMS),
    "basis-fidelity": (lambda a: basis_fidelity_bound(a.mu, a.d, a.j), _MDJ),
    "normalization": (lambda a: normalization(a.mu, a.d, a.j), _MDJ),
    "herald": (lambda a: herald_probabilities(_generation(a))[a.j], ("mu", "nu", "d", "j")),
    "trigger": (lambda a: trigger_probability(_generation(a), a.j, convention=a.convention),
                ("nu", "d", "j", "convention")),
    "encoding-error": (_encoding_error, _MDJ + ("phase_set",)),
}

# Optional compute and keyrate flags, set after parsing; one given that nothing reads is refused.
COMPUTE_DEFAULTS = {"mu": 0.1, "j": 1, "mu2": lambda a: a.mu, "d2": lambda a: a.d, "delta": 0.0,
                    "delta2": 0.0, "nu": 100.0, "eta_det": 0.12, "phase_set": "standard",
                    "convention": "paper"}
MU_SEARCH_FLAGS = ("mu_grid_min", "mu_grid_max", "mu_grid_step")
KEYRATE_DEFAULTS = {"mu": None, "d": None, **dict(zip(MU_SEARCH_FLAGS, MU_SEARCH)),
                    "basis_mu": "half", "yield_model": "exact",
                    "eta_trigger_det": 0.12, "convention": "paper",
                    "nu": lambda a: None if a.d is None else 4.0 * a.d * a.d}  # the meter's 4 d^2


def _fill_defaults(args, defaults, reads, target, causes=None):
    """Set each flag not given from defaults (calling a callable on args); refuse one not read.

    The refusal names target as what does not read the flag, or causes[name] where given.
    """
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default(args) if callable(default) else default)
        elif name not in reads:
            flag = "trigger-convention" if name == "convention" else name.replace("_", "-")
            raise ValueError("--%s does not apply to %s" % (flag, (causes or {}).get(name, target)))


def cmd_compute(args):
    evaluate, names = QUANTITIES[args.quantity]
    reads = names + (("eta_det",) if args.quantity == "trigger" else ())  # read, not echoed
    _fill_defaults(args, COMPUTE_DEFAULTS, reads, args.quantity)
    value = float(evaluate(args))
    print(_fmt(value))
    print(json.dumps({"quantity": args.quantity, "value": value,
                      "params": {name: getattr(args, name) for name in names}},
                     sort_keys=True))
    return EXIT_OK


def cmd_keyrate(args):
    reads = set(PARAMETERS[args.protocol])
    reads |= set(MU_SEARCH_FLAGS) if args.optimize_mu else {"mu"}
    # every protocol reads --mu or the --mu-grid-* flags, and --optimize-mu picks which
    cause = ("--optimize-mu, which searches the --mu-grid-* grid" if args.optimize_mu
             else "a single-mu run; give --optimize-mu to search a mu grid")
    _fill_defaults(args, KEYRATE_DEFAULTS, reads, "protocol " + args.protocol,
                   dict.fromkeys(("mu",) + MU_SEARCH_FLAGS, cause))
    c = ChannelParams(distance_km=args.L, f=args.f, eta_bob=args.eta_bob,
                      y0=args.y0, e_det=args.e_det)
    kwargs = {name: getattr(args, name) for name in PARAMETERS[args.protocol]}
    if args.optimize_mu:
        if not args.mu_grid_step > 0:
            raise ValueError("mu grid requires mu-grid-step > 0")
        mu = _grid("mu grid", args.mu_grid_min, args.mu_grid_max, args.mu_grid_step)
    elif args.mu is None:
        raise ValueError("--mu is required unless --optimize-mu is given")
    else:
        mu = args.mu
    res = keyrate_curve(args.protocol, c, mu, **kwargs).result(0)
    report = dict(vars(res), protocol=args.protocol, distance_km=args.L, d=args.d)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(_resolve_out(args.out, "keyrate.json"), "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pspsim",
        description="Pseudo-single-photon state laboratory: figure datasets, "
                    "single-point queries, and BB84 key-rate reports.")
    parser.add_argument("--version", action="version", version="pspsim %s" % __version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sweeps = {}
    for name, text in (("fig1", "fidelity/g2/p11/f2002 vs mu dataset"),
                       ("fig4", "basis-indistinguishability bound dataset"),
                       ("fig5", "key rate vs distance dataset")):
        sub = sweeps[name] = subs.add_parser(name, help=text)
        sub.add_argument("--config", help="INI config file; section matches the subcommand")
        sub.add_argument("--out", help="output path (default: <cmd>.<format> in $%s or cwd)"
                         % OUT_DIR_ENV)
        sub.add_argument("--format", choices=FORMATS)
        sub.set_defaults(func=cmd_dataset)
    for name in ("fig1", "fig4"):
        for flag, kind in (("--mu-min", float), ("--mu-max", float), ("--mu-points", int)):
            sweeps[name].add_argument(flag, type=kind)
        sweeps[name].add_argument("--d-list", type=int, nargs="+")
    sweeps["fig4"].add_argument("--j-list", type=int, nargs="+")
    p5 = sweeps["fig5"]
    for flag in ("--l-min", "--l-max", "--l-step"):
        p5.add_argument(flag, type=float)
    p5.add_argument("--optimize-mu", action="store_true", default=None)
    p5.add_argument("--trigger-convention", choices=("paper", "recomputed"))
    p5.add_argument("--eta-trigger-det", type=float)

    pc = subs.add_parser("compute", help="evaluate one quantity")
    pc.add_argument("quantity", choices=tuple(QUANTITIES))
    pc.add_argument("--d", type=int, required=True)
    for flag, kind in (("--mu", float), ("--j", int), ("--mu2", float), ("--d2", int),
                       ("--delta", float), ("--delta2", float), ("--nu", float),
                       ("--eta-det", float)):
        pc.add_argument(flag, type=kind)
    pc.add_argument("--phase-set", choices=("standard", "paper-literal"))
    pc.set_defaults(func=cmd_compute)

    pk = subs.add_parser("keyrate", help="single key-rate report (JSON)")
    pk.add_argument("--protocol", choices=PROTOCOLS, required=True)
    pk.add_argument("--L", type=float, default=40.0)
    pk.add_argument("--d", type=int)
    pk.add_argument("--optimize-mu", action="store_true")
    for flag in ("--mu", "--nu", "--mu-grid-min", "--mu-grid-max", "--mu-grid-step",
                 "--eta-trigger-det"):
        pk.add_argument(flag, type=float)
    pk.add_argument("--basis-mu", choices=("half", "full"))
    pk.add_argument("--yield-model", choices=("exact", "dominant"))
    for field in ("f", "eta_bob", "y0", "e_det"):  # defaults: the ChannelParams ones
        pk.add_argument("--" + field.replace("_", "-"), type=float,
                        default=getattr(ChannelParams, field))
    pk.add_argument("--out")
    pk.set_defaults(func=cmd_keyrate)
    for sub in (pc, pk):
        sub.add_argument("--trigger-convention", choices=("paper", "recomputed"),
                         dest="convention")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # DegenerateStateError is a ValueError
        error, message, code = "invalid-parameter", str(exc), EXIT_INVALID
    except OSError as exc:
        error, message, code = "io-failure", str(exc), EXIT_IO
    except (NumericalDiagnosticError, TruncationError) as exc:
        error, message, code = "numerical-diagnostic", str(exc), EXIT_NUMERICAL
    sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
