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
from .pns import (PSPParams, fidelity_to_number_state, normalization, photon_number_probability,
                  residue_masses)
from .metrics import f2002, g2_zero_closed, p11
from .generation import GenerationParams, trigger_probability
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


def _resolve_out(path):
    """path, or, for a bare file name, that name in $PSPSIM_OUT_DIR when it is set."""
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
    manifest = {"tool": "pspsim", "version": __version__, "command": command,
                "resolved_config": resolved, "duration_seconds": duration, "diagnostics": summary}
    with open(path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _mu_grid(args):
    """The log-spaced mu grid of --mu-min, --mu-max and --mu-points."""
    if not (0 < args.mu_min < args.mu_max) or args.mu_points < 2:
        raise ValueError("mu grid requires 0 < mu-min < mu-max and >= 2 points")
    return _grid("mu grid", args.mu_min, args.mu_max, points=args.mu_points)


def _fig1_rows(args):
    mus = _mu_grid(args)
    rows = []
    for d in args.d_list:
        g2 = g2_zero_closed(mus, d)  # first: it refuses a d below 1, for which 1 % d is no j
        # j = 1 % d, the state on n = 1 (mod d), which is the coherent state at d = 1
        p = PSPParams(mus, d, 1 % d)
        table = np.stack([photon_number_probability(p, 1), g2, p11(p, p), f2002(p, p)],
                         axis=1).tolist()
        rows += [(name, d, mu, value) for mu, values in zip(mus.tolist(), table)
                 for name, value in zip(("fidelity", "g2", "p11", "f2002"), values)]
    return ("quantity", "d", "mu", "value"), rows


def _fig4_rows(args):
    mus = _mu_grid(args)
    rows = [("basis_fidelity", d, j, float(mu), value)
            for d in args.d_list for j in args.j_list
            for mu, value in zip(mus, basis_fidelity_bound(mus, d, j).tolist())]
    return ("quantity", "d", "j", "mu", "value"), rows


# Reference curves for the distance sweep: (d, source mu) with mu near the
# optimum for each d; the decoy baseline is always mu-optimized per point.
FIG5_PSP_CURVES = ((4, 0.08), (8, 0.45), (36, 1.0))
# The mu search grid (min, max, step) of fig5 and keyrate --optimize-mu: 40 points.
MU_SEARCH = (0.05, 2.0, 0.05)


def _fig5_rows(args):
    if not (args.l_step > 0 and args.l_max >= args.l_min):
        raise ValueError("distance grid requires l-step > 0 and l-max >= l-min")
    distances = _grid("distance grid", args.l_min, args.l_max, args.l_step)
    mu_grid = _grid("mu grid", *MU_SEARCH)

    trigger = {"eta_trigger_det": args.eta_trigger_det, "convention": args.trigger_convention}
    specs = [(WCS_DECOY, None, None, {})]
    specs += [(PSP_PASSIVE_DECOY, d, mu, {}) for d, mu in FIG5_PSP_CURVES]
    specs += [(PSP_TRIGGERED, d, mu, dict(trigger, nu=4.0 * d * d)) for d, mu in FIG5_PSP_CURVES]
    c = ChannelParams()
    rows = []
    for protocol, d, mu, kwargs in specs:
        searched = args.optimize_mu or mu is None
        curve = keyrate_curve(protocol, c, mu_grid if searched else mu, distances, d, **kwargs)
        rows += [(protocol, 0 if d is None else d, float(mu_star), kwargs.get("nu", 0.0),
                  float(L), float(rate))
                 for mu_star, L, rate in zip(curve.mu, curve.distance_km, curve.rate)]
    return ("protocol", "d", "mu", "nu", "distance_km", "rate"), rows


# Figure datasets: each row function maps the parsed flags to (header, rows);
# the last column of every row is the plotted value.
DATASETS = {"fig1": _fig1_rows, "fig4": _fig4_rows, "fig5": _fig5_rows}

# Each subcommand's optional flags, keyed by argparse dest: (kind, default).  kind is a
# type, a tuple of choices, bool (a switch) or [type] (one value or more).  A callable
# default is called on the parsed arguments once the flags above it are set.  A dest's flag
# is --dest with "-" for "_", except that dest "convention" is --trigger-convention (_flag).
_DATASET = {"format": (FORMATS, "csv"), "out": (str, lambda a: "%s.%s" % (a.command, a.format))}
_DETECTOR = (float, 0.12)  # the trigger (meter) detector's efficiency
_CONVENTION = (("paper", "recomputed"), "paper")
FLAGS = {
    "fig1": {**_DATASET, "mu_min": (float, 0.01), "mu_max": (float, 20.0),
             "mu_points": (int, 200), "d_list": ([int], [4, 8, 12])},
    "fig4": {**_DATASET, "mu_min": (float, 0.001), "mu_max": (float, 1.0),
             "mu_points": (int, 200), "d_list": ([int], [4, 8]), "j_list": ([int], [0, 1])},
    "fig5": {**_DATASET, "l_min": (float, 0.0), "l_max": (float, 100.0), "l_step": (float, 1.0),
             "optimize_mu": (bool, False), "trigger_convention": _CONVENTION,
             "eta_trigger_det": _DETECTOR},
    "compute": {"mu": (float, 0.1), "j": (int, 1), "mu2": (float, lambda a: a.mu),
                "d2": (int, lambda a: a.d), "delta": (float, 0.0), "delta2": (float, 0.0),
                "nu": (float, 100.0), "eta_det": _DETECTOR, "convention": _CONVENTION,
                "phase_set": (("standard", "paper-literal"), "standard")},
    "keyrate": {"L": (float, 40.0), "d": (int, None), "optimize_mu": (bool, False),
                "mu": (float, None), "mu_grid_min": (float, MU_SEARCH[0]),
                "mu_grid_max": (float, MU_SEARCH[1]), "mu_grid_step": (float, MU_SEARCH[2]),
                # --nu: the meter's 4 d^2
                "nu": (float, lambda a: None if a.d is None else 4.0 * a.d * a.d),
                "eta_trigger_det": _DETECTOR, "basis_mu": (("half", "full"), "half"),
                "yield_model": (("exact", "dominant"), "exact"), "convention": _CONVENTION,
                # the channel; defaults: the ChannelParams ones
                **{name: (float, getattr(ChannelParams, name))
                   for name in ("f", "eta_bob", "y0", "e_det")},
                "out": (str, None)},
}


def _flag(dest):
    """The flag of an argparse dest, without its leading "--"; also its INI key."""
    return "trigger-convention" if dest == "convention" else dest.replace("_", "-")


def _ini_value(key, kind, raw):
    """An INI value parsed with its flag's kind; a list takes commas or spaces between values.
    A value the kind cannot read is refused with its key and what it must be."""
    if kind is bool:
        words = configparser.ConfigParser.BOOLEAN_STATES  # configparser's words only
        if raw.lower() not in words:
            raise ValueError("%s must be one of %s, not %r" % (key, "/".join(words), raw))
        return words[raw.lower()]
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ValueError("%s must be one of %s, not %r" % (key, "|".join(kind), raw))
        return raw
    many = isinstance(kind, list)
    each = kind[0] if many else kind
    try:
        values = [each(token) for token in (raw.replace(",", " ").split() if many else [raw])]
    except ValueError:  # only int and float refuse a string
        what = {int: ("an integer", "integers"), float: ("a number", "numbers")}[each][many]
        raise ValueError("%s must be %s, not %r" % (key, what, raw)) from None
    if not values:  # as the flag, which takes one value or more
        raise ValueError("%s needs at least one value" % key)
    return values if many else values[0]


def _read_config(args):
    """Set each flag not given on the command line from the --config INI file, if one is given.

    A value comes from the subcommand's section, then [common], and is parsed as
    the flag's own would be, so a bad one is refused before anything is computed.
    """
    ini = configparser.ConfigParser()
    if args.config is not None and not ini.read(args.config):
        raise OSError("config file not found: %s" % args.config)
    flags = FLAGS[args.command]
    keys = {_flag(dest): dest for dest in flags}
    # a key in the subcommand's own section must name one of its flags; [common]
    # spans subcommands, so a key there that this one does not read is ignored
    for key in ini[args.command] if ini.has_section(args.command) else ():
        if key not in keys and key not in ini.defaults():
            raise ValueError("unknown key %r in [%s] of %s" % (key, args.command, args.config))
    for key, dest in keys.items():
        raw = ini.get(args.command, key, fallback=ini.get("common", key, fallback=None))
        if getattr(args, dest) is None and raw is not None:
            setattr(args, dest, _ini_value(key, flags[dest][0], raw))


def _fill_defaults(args, reads=None, causes=None):
    """Set each optional flag not given to its FLAGS default; refuse one given that is not
    in reads (None: the subcommand reads every flag it has).

    The refusal names causes[dest] where given, else the quantity or the protocol, as
    what does not read the flag.
    """
    for dest, (_, default) in FLAGS[args.command].items():
        if getattr(args, dest) is None:
            setattr(args, dest, default(args) if callable(default) else default)
        elif reads is not None and dest not in reads:
            target = getattr(args, "quantity", None) or "protocol " + args.protocol
            raise ValueError("--%s does not apply to %s"
                             % (_flag(dest), (causes or {}).get(dest, target)))


def cmd_dataset(args):
    """Build one figure dataset, write it, re-read it and write its manifest."""
    _read_config(args)
    _fill_defaults(args)
    args.out = _resolve_out(args.out)
    start = time.time()
    header, rows = DATASETS[args.command](args)
    _write_rows(args.out, args.format, header, rows)
    _self_validate(args.out, args.format, header, len(rows))
    values = [row[-1] for row in rows]
    summary = {"points": len(rows), "value_min": min(values), "value_max": max(values),
               "positive_values": sum(1 for v in values if v > 0)}
    resolved = {dest: getattr(args, dest) for dest in FLAGS[args.command]}
    _write_manifest(args.out, args.command, resolved, time.time() - start, summary)
    print("wrote %s (%d rows)" % (args.out, len(rows)))
    return EXIT_OK


def _hom_inputs(args):
    # one-photon states: j = 1 % d, which is 0 at d = 1; PSPParams refuses a d below 1
    return tuple(PSPParams(mu=mu, d=d, j=1 % d if d > 0 else 1, delta=delta)
                 for mu, d, delta in ((args.mu, args.d, args.delta),
                                      (args.mu2, args.d2, args.delta2)))


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
    # the herald weight of j is M_j, and residues=[j] refuses a j outside [0, d)
    "herald": (lambda a: residue_masses(GenerationParams(a.mu, a.nu, a.d).mu, a.d, [a.j])[0],
               ("mu", "nu", "d", "j")),
    "trigger": (lambda a: trigger_probability(a.nu, a.d, a.j, a.eta_det, a.convention),
                ("nu", "d", "j", "convention")),
    "encoding-error": (_encoding_error, _MDJ + ("phase_set",)),
}


def cmd_compute(args):
    evaluate, names = QUANTITIES[args.quantity]
    # trigger reads --eta-det, which it does not echo; f2002 = P1(1) P2(1) echoes the
    # deltas, which it does not read
    reads = {"trigger": names + ("eta_det",), "f2002": names[:4]}.get(args.quantity, names)
    _fill_defaults(args, reads)
    value = float(evaluate(args))
    print(_fmt(value))
    print(json.dumps({"quantity": args.quantity, "value": value,
                      "params": {name: getattr(args, name) for name in names}},
                     sort_keys=True))
    return EXIT_OK


def cmd_keyrate(args):
    # every protocol reads --mu or the --mu-grid-* flags, and --optimize-mu picks which
    search = ("mu_grid_min", "mu_grid_max", "mu_grid_step")
    unread = set().union(*PARAMETERS.values()) - set(PARAMETERS[args.protocol])
    unread |= {"mu"} if args.optimize_mu else set(search)
    cause = ("--optimize-mu, which searches the --mu-grid-* grid" if args.optimize_mu
             else "a single-mu run; give --optimize-mu to search a mu grid")
    _fill_defaults(args, set(FLAGS["keyrate"]) - unread, dict.fromkeys(("mu",) + search, cause))
    if not 0 <= args.L < math.inf:
        raise ValueError("--L must be a finite distance >= 0 km, not %r" % args.L)
    c = ChannelParams(f=args.f, eta_bob=args.eta_bob, y0=args.y0, e_det=args.e_det)
    kwargs = {name: getattr(args, name) for name in PARAMETERS[args.protocol]}
    mu = args.mu
    if args.optimize_mu:
        if not args.mu_grid_step > 0:
            raise ValueError("mu grid requires mu-grid-step > 0")
        mu = _grid("mu grid", args.mu_grid_min, args.mu_grid_max, args.mu_grid_step)
    elif mu is None:
        raise ValueError("--mu is required unless --optimize-mu is given")
    res = keyrate_curve(args.protocol, c, mu, [args.L], **kwargs).result(0)
    report = dict(vars(res), protocol=args.protocol, distance_km=args.L, d=args.d)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(_resolve_out(args.out), "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pspsim",
        description="Pseudo-single-photon state laboratory: figure datasets, "
                    "single-point queries, and BB84 key-rate reports.")
    parser.add_argument("--version", action="version", version="pspsim %s" % __version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text, func in (("fig1", "fidelity/g2/p11/f2002 vs mu dataset", cmd_dataset),
                             ("fig4", "basis-indistinguishability bound dataset", cmd_dataset),
                             ("fig5", "key rate vs distance dataset", cmd_dataset),
                             ("compute", "evaluate one quantity", cmd_compute),
                             ("keyrate", "single key-rate report (JSON)", cmd_keyrate)):
        sub = subs.add_parser(name, help=text)
        sub.set_defaults(func=func)
        if name in DATASETS:
            sub.add_argument("--config", help="INI config file; section matches the subcommand")
        elif name == "compute":
            sub.add_argument("quantity", choices=tuple(QUANTITIES))
            sub.add_argument("--d", type=int, required=True)
        else:
            sub.add_argument("--protocol", choices=PROTOCOLS, required=True)
        for dest, (kind, _) in FLAGS[name].items():
            how = ({"action": "store_true"} if kind is bool
                   else {"choices": kind} if isinstance(kind, tuple)
                   else {"type": kind[0], "nargs": "+"} if isinstance(kind, list)
                   else {"type": kind})
            if dest == "out" and name in DATASETS:
                how["help"] = "output path (default: <cmd>.<format> in $%s or cwd)" % OUT_DIR_ENV
            sub.add_argument("--" + _flag(dest), dest=dest, default=None, **how)
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
