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
from .errors import DegenerateStateError, NumericalDiagnosticError, TruncationError
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
WORKERS_HELP = "accepted for config compatibility; currently has no effect"


def _fmt(value):
    """Serialize one cell; floats get 17 significant digits."""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _resolve_out(path, default_name):
    if path is None:
        path = default_name
    if not os.path.isabs(path) and os.sep not in path:
        base = os.environ.get(OUT_DIR_ENV, "")
        if base:
            path = os.path.join(base, path)
    return path


def _write_rows(path, fmt, header, rows):
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    else:
        with open(path, "w") as fh:
            fh.write("[\n")
            for i, row in enumerate(rows):
                cells = []
                for key, value in zip(header, row):
                    if isinstance(value, float):
                        cells.append('"%s": %s' % (key, _fmt(value)))
                    elif isinstance(value, (int, np.integer)):
                        cells.append('"%s": %d' % (key, value))
                    else:
                        cells.append('"%s": %s' % (key, json.dumps(value)))
                fh.write("  {%s}%s\n" % (", ".join(cells), "," if i + 1 < len(rows) else ""))
            fh.write("]\n")


def _self_validate(path, fmt, header, n_rows):
    """Re-parse the emitted file and check the schema before declaring success."""
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            got_header = next(reader)
            if got_header != list(header):
                raise OSError("self-validation failed: header mismatch in %s" % path)
            count = 0
            for row in reader:
                if len(row) != len(header):
                    raise OSError("self-validation failed: ragged row in %s" % path)
                count += 1
        if count != n_rows:
            raise OSError("self-validation failed: row count %d != %d" % (count, n_rows))
    else:
        with open(path) as fh:
            data = json.load(fh)
        if len(data) != n_rows:
            raise OSError("self-validation failed: %d entries != %d" % (len(data), n_rows))
        for entry in data:
            if set(entry) != set(header):
                raise OSError("self-validation failed: key mismatch in %s" % path)


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
        self.parser = configparser.ConfigParser()
        if getattr(args, "config", None):
            read = self.parser.read(args.config)
            if not read:
                raise OSError("config file not found: %s" % args.config)
        self.section = section

    def _file_get(self, key):
        if self.parser.has_option(self.section, key):
            return self.parser.get(self.section, key)
        if self.parser.has_option("common", key):
            return self.parser.get("common", key)
        return None

    def get(self, key, default, cast=str):
        cli = getattr(self.args, key.replace("-", "_"), None)
        if cli is not None:
            return cli
        raw = self._file_get(key)
        if raw is None:
            return default
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)

    def get_list(self, key, default, cast=float):
        cli = getattr(self.args, key.replace("-", "_"), None)
        if cli is not None:
            return cli
        raw = self._file_get(key)
        if raw is None:
            return default
        return [cast(tok) for tok in raw.replace(",", " ").split()]


def _mu_grid(cfg, default_min, default_max, default_points, log=True):
    lo = cfg.get("mu-min", default_min, float)
    hi = cfg.get("mu-max", default_max, float)
    n = cfg.get("mu-points", default_points, int)
    if not (0 < lo < hi) or n < 2:
        raise ValueError("mu grid requires 0 < mu-min < mu-max and >= 2 points")
    if log:
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


def cmd_fig1(args):
    cfg = _Config(args, "fig1")
    mus = _mu_grid(cfg, 0.01, 20.0, 200)
    d_list = [int(v) for v in cfg.get_list("d-list", [4, 8, 12], int)]
    fmt = cfg.get("format", "csv")
    workers = cfg.get("workers", 1, int)
    out = _resolve_out(cfg.get("out", None), "fig1.%s" % fmt)

    def point(task):
        d, mu = task
        p = PSPParams(mu=mu, d=d, j=1)
        r = hom(p, p)
        return (
            ("fidelity", d, mu, fidelity_to_number_state(p)),
            ("g2", d, mu, g2_zero_closed(mu, d)),
            ("p11", d, mu, r.p11),
            ("f2002", d, mu, r.f2002),
        )

    tasks = [(d, float(mu)) for d in d_list for mu in mus]
    start = time.time()
    rows = [row for task in tasks for row in point(task)]
    header = ("quantity", "d", "mu", "value")
    _write_rows(out, fmt, header, rows)
    _self_validate(out, fmt, header, len(rows))
    summary = {
        "points": len(rows),
        "value_min": min(r[3] for r in rows),
        "value_max": max(r[3] for r in rows),
    }
    _write_manifest(out, "fig1", {
        "mu_min": float(mus[0]), "mu_max": float(mus[-1]), "mu_points": len(mus),
        "d_list": d_list, "format": fmt, "workers": workers, "out": out,
    }, time.time() - start, summary)
    print("wrote %s (%d rows)" % (out, len(rows)))
    return EXIT_OK


def cmd_fig4(args):
    cfg = _Config(args, "fig4")
    mus = _mu_grid(cfg, 0.001, 1.0, 200)
    d_list = [int(v) for v in cfg.get_list("d-list", [4, 8], int)]
    j_list = [int(v) for v in cfg.get_list("j-list", [0, 1], int)]
    fmt = cfg.get("format", "csv")
    workers = cfg.get("workers", 1, int)
    out = _resolve_out(cfg.get("out", None), "fig4.%s" % fmt)

    def point(task):
        d, j, mu = task
        return ("basis_fidelity", d, j, mu, basis_fidelity_bound(mu, d, j))

    tasks = [(d, j, float(mu)) for d in d_list for j in j_list for mu in mus]
    start = time.time()
    rows = [point(task) for task in tasks]
    header = ("quantity", "d", "j", "mu", "value")
    _write_rows(out, fmt, header, rows)
    _self_validate(out, fmt, header, len(rows))
    summary = {
        "points": len(rows),
        "value_min": min(r[4] for r in rows),
        "value_max": max(r[4] for r in rows),
    }
    _write_manifest(out, "fig4", {
        "mu_min": float(mus[0]), "mu_max": float(mus[-1]), "mu_points": len(mus),
        "d_list": d_list, "j_list": j_list, "format": fmt, "workers": workers, "out": out,
    }, time.time() - start, summary)
    print("wrote %s (%d rows)" % (out, len(rows)))
    return EXIT_OK


# Reference curves for the distance sweep: (d, source mu) with mu near the
# optimum for each d; the decoy baseline is always mu-optimized per point.
FIG5_PSP_CURVES = ((4, 0.08), (8, 0.45), (36, 1.0))


def cmd_fig5(args):
    cfg = _Config(args, "fig5")
    l_min = cfg.get("l-min", 0.0, float)
    l_max = cfg.get("l-max", 100.0, float)
    l_step = cfg.get("l-step", 1.0, float)
    if l_step <= 0 or l_max < l_min:
        raise ValueError("distance grid requires l-step > 0 and l-max >= l-min")
    fmt = cfg.get("format", "csv")
    workers = cfg.get("workers", 1, int)
    optimize = bool(cfg.get("optimize-mu", False, bool))
    convention = cfg.get("trigger-convention", "paper")
    eta_trig = cfg.get("eta-trigger-det", 0.12, float)
    out = _resolve_out(cfg.get("out", None), "fig5.%s" % fmt)
    distances = np.arange(l_min, l_max + l_step / 2, l_step)
    opt_grid = np.arange(0.05, 2.0001, 0.05)

    def curve_rows(spec):
        protocol, d, mu, nu = spec
        rows = []
        for L in distances:
            c = ChannelParams(distance_km=float(L))
            kwargs = {}
            if protocol == PSP_TRIGGERED:
                kwargs = {"nu": nu, "eta_trigger_det": eta_trig, "convention": convention}
            if optimize or (protocol == WCS_DECOY and mu is None):
                mu_star, res = optimize_mu(c, d, protocol, opt_grid, **kwargs)
            else:
                mu_star = mu
                res = keyrate_for_protocol(protocol, c, mu, d, **kwargs)
            rows.append((protocol, 0 if d is None else d, float(mu_star),
                         0.0 if nu is None else nu, float(L), res.rate))
        return rows

    specs = [(WCS_DECOY, None, None, None)]
    for d, mu in FIG5_PSP_CURVES:
        specs.append((PSP_PASSIVE_DECOY, d, mu, None))
    for d, mu in FIG5_PSP_CURVES:
        specs.append((PSP_TRIGGERED, d, mu, 4.0 * d * d))

    start = time.time()
    rows = [row for spec in specs for row in curve_rows(spec)]
    header = ("protocol", "d", "mu", "nu", "distance_km", "rate")
    _write_rows(out, fmt, header, rows)
    _self_validate(out, fmt, header, len(rows))
    summary = {
        "points": len(rows),
        "positive_rates": int(sum(1 for r in rows if r[5] > 0)),
        "rate_max": max(r[5] for r in rows),
    }
    _write_manifest(out, "fig5", {
        "l_min": float(l_min), "l_max": float(l_max), "l_step": float(l_step),
        "optimize_mu": optimize, "trigger_convention": convention,
        "eta_trigger_det": eta_trig, "format": fmt, "workers": workers, "out": out,
    }, time.time() - start, summary)
    print("wrote %s (%d rows)" % (out, len(rows)))
    return EXIT_OK


def _compute_value(args):
    q = args.quantity
    if q == "g2":
        return g2_zero_closed(args.mu, args.d), {"mu": args.mu, "d": args.d}
    if q == "fidelity":
        p = PSPParams(mu=args.mu, d=args.d, j=args.j)
        return fidelity_to_number_state(p), {"mu": args.mu, "d": args.d, "j": args.j}
    if q == "normalization":
        return normalization(args.mu, args.d, args.j), {"mu": args.mu, "d": args.d, "j": args.j}
    if q in ("p11", "f2002"):
        mu2 = args.mu if args.mu2 is None else args.mu2
        d2 = args.d if args.d2 is None else args.d2
        r = hom(PSPParams(mu=args.mu, d=args.d, j=1, delta=args.delta),
                PSPParams(mu=mu2, d=d2, j=1, delta=args.delta2))
        value = r.p11 if q == "p11" else r.f2002
        return value, {"mu": args.mu, "d": args.d, "mu2": mu2, "d2": d2,
                       "delta": args.delta, "delta2": args.delta2}
    if q == "basis-fidelity":
        return basis_fidelity_bound(args.mu, args.d, args.j), \
            {"mu": args.mu, "d": args.d, "j": args.j}
    if q == "herald":
        g = GenerationParams(mu=args.mu, nu=args.nu, d=args.d, eta_det=args.eta_det)
        probs = herald_probabilities(g)
        return probs[args.j], {"mu": args.mu, "nu": args.nu, "d": args.d, "j": args.j}
    if q == "trigger":
        g = GenerationParams(mu=args.mu, nu=args.nu, d=args.d, eta_det=args.eta_det)
        return trigger_probability(g, args.j, convention=args.trigger_convention), \
            {"nu": args.nu, "d": args.d, "j": args.j, "convention": args.trigger_convention}
    if q == "encoding-error":
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
        return worst, {"mu": args.mu, "d": args.d, "j": args.j,
                       "phase_set": args.phase_set}
    raise ValueError("unknown quantity: %s" % q)


def cmd_compute(args):
    value, params = _compute_value(args)
    print(_fmt(float(value)))
    print(json.dumps({"quantity": args.quantity, "value": float(value),
                      "params": params}, sort_keys=True))
    return EXIT_OK


def cmd_keyrate(args):
    c = ChannelParams(distance_km=args.L, f=args.f, eta_bob=args.eta_bob,
                      y0=args.y0, e_det=args.e_det)
    kwargs = {}
    if args.protocol == PSP_TRIGGERED:
        nu = args.nu if args.nu is not None else 4.0 * args.d * args.d
        kwargs = {"nu": nu, "eta_trigger_det": args.eta_trigger_det,
                  "convention": args.trigger_convention}
    if args.protocol in (PSP_PASSIVE_DECOY, PSP_TRIGGERED):
        kwargs["basis_mu"] = args.basis_mu
        kwargs["yield_model"] = args.yield_model
    if args.optimize_mu:
        grid = np.arange(args.mu_grid_min, args.mu_grid_max + args.mu_grid_step / 2,
                         args.mu_grid_step)
        mu_star, res = optimize_mu(c, args.d, args.protocol, grid, **kwargs)
    else:
        if args.mu is None:
            raise ValueError("--mu is required unless --optimize-mu is given")
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
        path = _resolve_out(args.out, "keyrate.json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def _add_sweep_flags(sub):
    sub.add_argument("--config", help="INI config file; section matches the subcommand")
    sub.add_argument("--out", help="output path (default: <cmd>.<format> in $%s or cwd)" % OUT_DIR_ENV)
    sub.add_argument("--format", choices=("csv", "json"), dest="format", default=None)
    sub.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    sub.add_argument("--mu-min", type=float, default=None)
    sub.add_argument("--mu-max", type=float, default=None)
    sub.add_argument("--mu-points", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pspsim",
        description="Pseudo-single-photon state laboratory: figure datasets, "
                    "single-point queries, and BB84 key-rate reports.")
    parser.add_argument("--version", action="version", version="pspsim %s" % __version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p1 = subs.add_parser("fig1", help="fidelity/g2/p11/f2002 vs mu dataset")
    _add_sweep_flags(p1)
    p1.add_argument("--d-list", type=int, nargs="+", default=None)
    p1.set_defaults(func=cmd_fig1)

    p4 = subs.add_parser("fig4", help="basis-indistinguishability bound dataset")
    _add_sweep_flags(p4)
    p4.add_argument("--d-list", type=int, nargs="+", default=None)
    p4.add_argument("--j-list", type=int, nargs="+", default=None)
    p4.set_defaults(func=cmd_fig4)

    p5 = subs.add_parser("fig5", help="key rate vs distance dataset")
    p5.add_argument("--config")
    p5.add_argument("--out")
    p5.add_argument("--format", choices=("csv", "json"), default=None)
    p5.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    p5.add_argument("--l-min", type=float, default=None)
    p5.add_argument("--l-max", type=float, default=None)
    p5.add_argument("--l-step", type=float, default=None)
    p5.add_argument("--optimize-mu", action="store_true", default=None)
    p5.add_argument("--trigger-convention", choices=("paper", "recomputed"), default=None)
    p5.add_argument("--eta-trigger-det", type=float, default=None)
    p5.set_defaults(func=cmd_fig5)

    pc = subs.add_parser("compute", help="evaluate one quantity")
    pc.add_argument("quantity", choices=("fidelity", "g2", "p11", "f2002",
                                         "basis-fidelity", "normalization",
                                         "herald", "trigger", "encoding-error"))
    pc.add_argument("--mu", type=float, default=0.1)
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--j", type=int, default=1)
    pc.add_argument("--mu2", type=float)
    pc.add_argument("--d2", type=int)
    pc.add_argument("--delta", type=float, default=0.0)
    pc.add_argument("--delta2", type=float, default=0.0)
    pc.add_argument("--nu", type=float, default=100.0)
    pc.add_argument("--eta-det", type=float, default=0.12)
    pc.add_argument("--trigger-convention", choices=("paper", "recomputed"),
                    default="paper")
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
    pk.add_argument("--trigger-convention", choices=("paper", "recomputed"),
                    default="paper")
    pk.add_argument("--f", type=float, default=1.16)
    pk.add_argument("--eta-bob", type=float, default=0.045)
    pk.add_argument("--y0", type=float, default=1.7e-6)
    pk.add_argument("--e-det", type=float, default=0.033)
    pk.add_argument("--out")
    pk.set_defaults(func=cmd_keyrate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DegenerateStateError) as exc:
        sys.stderr.write(json.dumps({"error": "invalid-parameter",
                                     "message": str(exc)}) + "\n")
        return EXIT_INVALID
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io-failure",
                                     "message": str(exc)}) + "\n")
        return EXIT_IO
    except (NumericalDiagnosticError, TruncationError) as exc:
        sys.stderr.write(json.dumps({"error": "numerical-diagnostic",
                                     "message": str(exc)}) + "\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
