"""The benchmark's workloads: the pspsim commands one iteration runs, and why.

Every workload runs its commands one process at a time with ``--workers``
left at its default of 1.  A command's output is checked against the
reference data in ``reference/``, captured from the seed commit by
``capture_reference.py``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One pspsim CLI invocation and the reference its output must match.

    key names the reference: ``reference/<key>.csv`` for a command that
    writes a dataset (named by ``dataset``), or the entry ``key`` of
    ``reference/queries.json`` for a command whose output is its stdout.
    rows selects the reference rows that a reduced grid must reproduce, as
    a predicate over a row dict; None means every row.
    """

    key: str
    argv: tuple
    dataset: str = None
    rows: object = None


@dataclass(frozen=True)
class Workload:
    """plan(rng) gives the commands of one iteration; tiny is a reduced grid
    of the same commands, used for the warm-up and the self-check."""

    name: str
    why: str
    plan: object
    tiny: tuple


FIG1 = Command("fig1", ("fig1",), dataset="fig1.csv")
FIG4 = Command("fig4", ("fig4",), dataset="fig4.csv")
FIG5_OPTIMIZE = Command("fig5_optimize", ("fig5", "--optimize-mu"), dataset="fig5.csv")


def _stratum(name, argv, flag, values):
    return tuple(Command("%s@%s" % (name, v), argv + (flag, v)) for v in values)


# Single-point commands for queries-cold, one stratum per quantity or
# protocol.  Variants of a stratum differ only in mu, nu or distance, never
# in d or protocol, so every selection makes the same calls per layer and
# costs about the same.
QUERY_POOL = (
    _stratum("fidelity", ("compute", "fidelity", "--d", "8"), "--mu", ("0.1", "0.5", "2")),
    _stratum("g2", ("compute", "g2", "--d", "8"), "--mu", ("0.05", "0.3", "1.5")),
    _stratum("normalization", ("compute", "normalization", "--d", "12"), "--mu",
             ("0.2", "1", "4")),
    _stratum("p11", ("compute", "p11", "--d", "8", "--mu2", "1"), "--mu", ("0.3", "0.6", "2")),
    # The d = 40 Gram has d^4 = 2.56M entries: the Gram-bound regime of states.
    _stratum("f2002-d40", ("compute", "f2002", "--d", "40"), "--mu", ("8", "9", "10")),
    _stratum("basis-fidelity", ("compute", "basis-fidelity", "--d", "8"), "--mu",
             ("0.1", "0.3", "0.6")),
    _stratum("herald", ("compute", "herald", "--d", "8", "--nu", "400"), "--mu",
             ("0.2", "0.5", "1")),
    _stratum("trigger", ("compute", "trigger", "--d", "8", "--j", "0"), "--nu",
             ("100", "256", "400")),
    _stratum("encoding-error",
             ("compute", "encoding-error", "--d", "8", "--phase-set", "paper-literal"), "--mu",
             ("0.1", "0.3", "0.6")),
    _stratum("keyrate-wcs-nondecoy", ("keyrate", "--protocol", "wcs-nondecoy", "--mu", "0.01"),
             "--L", ("0", "2", "5")),
    _stratum("keyrate-wcs-decoy", ("keyrate", "--protocol", "wcs-decoy", "--mu", "0.5"),
             "--L", ("20", "40", "60")),
    _stratum("keyrate-psp-nondecoy",
             ("keyrate", "--protocol", "psp-nondecoy", "--d", "8", "--mu", "0.03"),
             "--L", ("0", "2", "5")),
    _stratum("keyrate-psp-passive",
             ("keyrate", "--protocol", "psp-passive", "--d", "8", "--mu", "0.45"),
             "--L", ("20", "40", "60")),
    _stratum("keyrate-psp-triggered-opt",
             ("keyrate", "--protocol", "psp-triggered", "--d", "8", "--optimize-mu"),
             "--L", ("20", "40", "60")),
    (FIG4,),
)


def _query_plan(rng):
    """One variant from every stratum, in an order the seed chooses."""
    plan = [rng.choice(stratum) for stratum in QUERY_POOL]
    rng.shuffle(plan)
    return plan


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig1-default",
            "600 unique (d, mu) points with qkd idle: states and metrics do ~95% of the work in "
            "179,200 scalar fock_amplitude calls, so a residue-mass cache should show no gain",
            lambda rng: [FIG1],
            (Command("fig1", ("fig1", "--d-list", "4"), dataset="fig1.csv",
                     rows=lambda row: row["d"] == "4"),),
        ),
        Workload(
            "fig5-optimize",
            "28,280 estimator calls on a 40-point mu grid: pns, qkd and generation do the work, "
            "~70% of the 642k residue-mass calls repeat, and states is nearly idle",
            lambda rng: [FIG5_OPTIMIZE],
            (Command("fig5_optimize", ("fig5", "--optimize-mu", "--l-max", "2"),
                     dataset="fig5.csv", rows=lambda row: float(row["distance_km"]) <= 2.0),),
        ),
        Workload(
            "queries-cold",
            "15 single-point commands, each in a fresh interpreter: start-up dominates, caches "
            "never warm, and f2002 at d=40 puts states in its Gram-bound regime",
            _query_plan,
            (QUERY_POOL[1][0], QUERY_POOL[13][0],
             Command("fig4", ("fig4", "--d-list", "4", "--j-list", "0"), dataset="fig4.csv",
                     rows=lambda row: row["d"] == "4" and row["j"] == "0")),
        ),
    )
}
