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
from .pns import PSPParams, fidelity_to_number_state, normalization
from .metrics import g2_zero_closed, hom
from .generation import GenerationParams, herald_probabilities, trigger_probability
from .qkd import (
    PROTOCOLS,
    PSP_PASSIVE_DECOY,
    PSP_TRIGGERED,
    WCS_DECOY,
    ChannelParams,
    basis_fidelity_bound,
    encoded_state,
    keyrate_curve,
    keyrate_for_protocol,
    measure_bb84,
    optimize_mu,
    phase_set,
)

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
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)


def _mu_grid(cfg, default_min, default_max):
    """Log-spaced mu grid and its manifest entries."""
    lo = cfg.get("mu-min", default_min, float)
    hi = cfg.get("mu-max", default_max, float)
    n = cfg.get("mu-points", 200, int)
    if not (0 < lo < hi) or n < 2:
        raise ValueError("mu grid requires 0 < mu-min < mu-max and >= 2 points")
    mus = np.logspace(math.log10(lo), math.log10(hi), n)
    return mus, {"mu_min": float(mus[0]), "mu_max": float(mus[-1]), "mu_points": n}


def _fig1_rows(cfg):
    mus, resolved = _mu_grid(cfg, 0.01, 20.0)
    d_list = resolved["d_list"] = cfg.get("d-list", [4, 8, 12], int)
    rows = []
    for d in d_list:
        for mu in map(float, mus):
            p = PSPParams(mu=mu, d=d, j=1)
            r = hom(p, p)
            rows += [("fidelity", d, mu, fidelity_to_number_state(p)),
                     ("g2", d, mu, g2_zero_closed(mu, d)),
                     ("p11", d, mu, r.p11),
                     ("f2002", d, mu, r.f2002)]
    return ("quantity", "d", "mu", "value"), rows, resolved


def _fig4_rows(cfg):
    mus, resolved = _mu_grid(cfg, 0.001, 1.0)
    d_list = resolved["d_list"] = cfg.get("d-list", [4, 8], int)
    j_list = resolved["j_list"] = cfg.get("j-list", [0, 1], int)
    rows = [("basis_fidelity", d, j, float(mu), basis_fidelity_bound(float(mu), d, j))
            for d in d_list for j in j_list for mu in mus]
    return ("quantity", "d", "j", "mu", "value"), rows, resolved


# Reference curves for the distance sweep: (d, source mu) with mu near the
# optimum for each d; the decoy baseline is always mu-optimized per point.
FIG5_PSP_CURVES = ((4, 0.08), (8, 0.45), (36, 1.0))


def _fig5_rows(cfg):
    l_min = cfg.get("l-min", 0.0, float)
    l_max = cfg.get("l-max", 100.0, float)
    l_step = cfg.get("l-step", 1.0, float)
    if l_step <= 0 or l_max < l_min:
        raise ValueError("distance grid requires l-step > 0 and l-max >= l-min")
    optimize = cfg.get("optimize-mu", False, bool)
    convention = cfg.get("trigger-convention", "paper")
    eta_trig = cfg.get("eta-trigger-det", 0.12, float)
    distances = np.arange(l_min, l_max + l_step / 2, l_step)
    opt_grid = np.arange(0.05, 2.0001, 0.05)

    trigger = {"eta_trigger_det": eta_trig, "convention": convention}
    specs = [(WCS_DECOY, None, None, {})]
    specs += [(PSP_PASSIVE_DECOY, d, mu, {}) for d, mu in FIG5_PSP_CURVES]
    specs += [(PSP_TRIGGERED, d, mu, dict(trigger, nu=4.0 * d * d)) for d, mu in FIG5_PSP_CURVES]
    c = ChannelParams()  # every channel parameter but the distance
    rows = []
    for protocol, d, mu, kwargs in specs:
        if optimize or mu is None:
            _, curve = optimize_mu(c, d, protocol, opt_grid, distances, **kwargs)
        else:
            curve = keyrate_curve(protocol, c, mu, distances, d, **kwargs)
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


def _hom(args):
    return hom(PSPParams(mu=args.mu, d=args.d, j=1, delta=args.delta),
               PSPParams(mu=args.mu2, d=args.d2, j=1, delta=args.delta2))


def _generation(args):
    g = GenerationParams(mu=args.mu, nu=args.nu, d=args.d, eta_det=args.eta_det)
    if not 0 <= args.j < args.d:  # herald indexes by j: -1 would read residue d - 1
        raise ValueError("j must be an integer in [0, d)")
    return g


def _encoding_error(args):
    # Worst-case conditional wrong-port probability over the four signal
    # states when each is read in its own basis.  The intended ports in
    # list order are (0, 1, 1, 0); the set choice only moves the fourth.
    worst = 0.0
    for i, k in enumerate(phase_set(args.d, args.phase_set)):
        p0, p1, _, _ = measure_bb84(encoded_state(args.mu, args.d, args.j, k),
                                    "X" if i % 2 == 0 else "Y")
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
    "p11": (lambda a: _hom(a).p11, _HOM_PARAMS),
    "f2002": (lambda a: _hom(a).f2002, _HOM_PARAMS),
    "basis-fidelity": (lambda a: basis_fidelity_bound(a.mu, a.d, a.j), _MDJ),
    "normalization": (lambda a: normalization(a.mu, a.d, a.j), _MDJ),
    "herald": (lambda a: herald_probabilities(_generation(a))[a.j], ("mu", "nu", "d", "j")),
    "trigger": (lambda a: trigger_probability(_generation(a), a.j, convention=a.convention),
                ("nu", "d", "j", "convention")),
    "encoding-error": (_encoding_error, _MDJ + ("phase_set",)),
}


def cmd_compute(args):
    # the second HOM input defaults to the first
    args.mu2 = args.mu if args.mu2 is None else args.mu2
    args.d2 = args.d if args.d2 is None else args.d2
    evaluate, names = QUANTITIES[args.quantity]
    value = float(evaluate(args))
    print(_fmt(value))
    print(json.dumps({"quantity": args.quantity, "value": value,
                      "params": {name: getattr(args, name) for name in names}},
                     sort_keys=True))
    return EXIT_OK


def cmd_keyrate(args):
    c = ChannelParams(distance_km=args.L, f=args.f, eta_bob=args.eta_bob,
                      y0=args.y0, e_det=args.e_det)
    kwargs = {}
    if args.protocol in (PSP_PASSIVE_DECOY, PSP_TRIGGERED):
        kwargs = {"basis_mu": args.basis_mu, "yield_model": args.yield_model}
    if args.protocol == PSP_TRIGGERED:
        nu = args.nu
        if nu is None and args.d is not None:  # keyrate_for_protocol reports a missing d
            nu = 4.0 * args.d * args.d
        kwargs.update(nu=nu, eta_trigger_det=args.eta_trigger_det, convention=args.convention)
    if args.optimize_mu:
        grid = np.arange(args.mu_grid_min, args.mu_grid_max + args.mu_grid_step / 2,
                         args.mu_grid_step)
        mu_star, res = optimize_mu(c, args.d, args.protocol, grid, **kwargs)
    elif args.mu is None:
        raise ValueError("--mu is required unless --optimize-mu is given")
    else:
        mu_star = args.mu
        res = keyrate_for_protocol(args.protocol, c, args.mu, args.d, **kwargs)
    report = {
        "protocol": args.protocol,
        "distance_km": args.L,
        "mu": float(mu_star),
        "d": args.d,
        "rate": res.rate,
        "gain": res.gain,
        "qber": res.qber,
        "diagnostics": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                        for k, v in res.diagnostics.items()},
    }
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
    pc.add_argument("--mu", type=float, default=0.1)
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--j", type=int, default=1)
    pc.add_argument("--mu2", type=float)
    pc.add_argument("--d2", type=int)
    pc.add_argument("--delta", type=float, default=0.0)
    pc.add_argument("--delta2", type=float, default=0.0)
    pc.add_argument("--nu", type=float, default=100.0)
    pc.add_argument("--eta-det", type=float, default=0.12)
    pc.add_argument("--phase-set", choices=("standard", "paper-literal"),
                    default="standard")
    pc.set_defaults(func=cmd_compute)

    pk = subs.add_parser("keyrate", help="single key-rate report (JSON)")
    pk.add_argument("--protocol", choices=PROTOCOLS, required=True)
    pk.add_argument("--L", type=float, default=40.0)
    pk.add_argument("--mu", type=float)
    pk.add_argument("--d", type=int)
    pk.add_argument("--nu", type=float)
    pk.add_argument("--optimize-mu", action="store_true")
    pk.add_argument("--mu-grid-min", type=float, default=0.05)
    pk.add_argument("--mu-grid-max", type=float, default=2.0)
    pk.add_argument("--mu-grid-step", type=float, default=0.05)
    pk.add_argument("--basis-mu", choices=("half", "full"), default="half")
    pk.add_argument("--yield-model", choices=("exact", "dominant"), default="exact")
    pk.add_argument("--eta-trigger-det", type=float, default=0.12)
    for field in ("f", "eta_bob", "y0", "e_det"):  # defaults: the ChannelParams ones
        pk.add_argument("--" + field.replace("_", "-"), type=float,
                        default=getattr(ChannelParams, field))
    pk.add_argument("--out")
    pk.set_defaults(func=cmd_keyrate)
    for sub in (pc, pk):
        sub.add_argument("--trigger-convention", choices=("paper", "recomputed"),
                         default="paper", dest="convention")
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
