"""An mpmath referee for pspsim's values, evaluated from their definitions.

Every value is worked out at 60 significant digits along a route that
shares no code with pspsim:

- residue masses M_r(mu) = sum over n = r (mod d) of e^-mu mu^n / n!, a
  direct Poisson sum, and the normalization N = d^2 M_j;
- the n-photon probability of the pseudo-number state |j_d>, Pois(mu; n)/M_j
  on its support n = j (mod d) and 0 off it, which gives the fidelity
  (n = j) and f2002 = P1(1) P2(1);
- g2(0) of |j_d>, <n(n-1)>/<n>^2 as a ratio of residue masses;
- the weights of the pure-loss output of |j_d>, products of three residue
  masses;
- the BB84 readout of the phase-encoded |j_d>, from the two-port photon
  distribution: independent Poisson counts at both splitter ports,
  conditioned on a total n + m = j (mod d);
- the basis-fidelity bound of fig4, from its defining phase sum over the
  d-th roots of unity and the normalization above.

Run as a script on a fig1 CSV, it prints each cell it covers (fidelity and
f2002) that misses RTOL against the referee, as cell, value, referee and
relative error, then a one-line count.  With --fig4 it does the same for
every cell of a fig4 CSV, and with --bb84 for pspsim.measure_bb84 over
BB84_GRID, each case at its BB84_RTOL:

    python tests/referee.py fig1.csv
    python tests/referee.py --fig4 fig4.csv
    python tests/referee.py --bb84
"""

import csv
import functools
import math
import sys

import mpmath

DPS = 60
RTOL = 1e-13
# The BB84 grid: mu per pulse, d, and every j, the k of both phase sets and
# both bases at each; and its tolerance, RTOL but at d = 40, where the
# residue-mass kernel's log-space terms carry up to about 1e-13 on their own.
BB84_GRID = {"mu": (1e-6, 1e-3, 0.05, 0.45, 2.0, 20.0), "d": (4, 8, 16, 40)}
BB84_RTOL = {40: 2.5e-13}


@functools.lru_cache(maxsize=None)
def residue_masses(mu, d, first=0):
    """(M_0, ..., M_{d-1}) at mu, a float or an mpf, as mpf, from the direct Poisson sum
    over the photon numbers n >= first.

    Past n = 2 mu each term is at most half the one before, so the tail of
    every residue lies below twice the current term.  The sum stops once that
    term is below 10^-DPS of the smallest residue as it stood when the tail
    test began (at n >= first + d, so that every residue holds a term); the
    sums only grow, so that floor is below every final mass.
    """
    with mpmath.workdps(DPS + 10):
        x = mpmath.mpf(mu)
        sums = [mpmath.mpf(0)] * d
        if x == 0:
            return (mpmath.mpf(first == 0),) + tuple(sums[1:])
        term, n, cut = mpmath.exp(-x), 0, None
        while cut is None or term >= cut:
            if n >= first:
                sums[n % d] += term
            n += 1
            term = term * x / n
            if cut is None and n >= first + d and n > 2 * x:
                cut = min(sums) * mpmath.mpf(10) ** -DPS
        return tuple(sums)


def normalization(mu, d, j):
    """N_{mu,j} = d^2 M_j(mu)."""
    with mpmath.workdps(DPS):
        return d * d * residue_masses(mu, d)[j]


def poisson(mu, n):
    """Pois(mu; n) = e^-mu mu^n / n! at the float mu."""
    with mpmath.workdps(DPS):
        x = mpmath.mpf(mu)
        return mpmath.exp(-x) * x**n / mpmath.factorial(n)


def photon_probability(mu, d, j, n):
    """|<n|j_d>|^2: Pois(mu; n) / M_j on the support n = j (mod d), else 0."""
    if n % d != j:
        return mpmath.mpf(0)
    with mpmath.workdps(DPS):
        return poisson(mu, n) / residue_masses(mu, d)[j]


def fidelity(mu, d, j):
    """|<j|j_d>|^2 = Pois(mu; j) / M_j."""
    return photon_probability(mu, d, j, j)


def g2_zero(mu, d, j):
    """g2(0) of |j_d> = M_{j-2} M_j / M_{j-1}^2, indices mod d: on the support
    n = j (mod d), <n(n-1)> = mu^2 M_{j-2} / M_j and <n> = mu M_{j-1} / M_j."""
    masses = residue_masses(mu, d)
    with mpmath.workdps(DPS):
        return masses[(j - 2) % d] * masses[j] / masses[(j - 1) % d] ** 2


def f2002(mu1, d1, j1, mu2, d2, j2):
    """P1(1) P2(1), the product of the inputs' one-photon probabilities."""
    with mpmath.workdps(DPS):
        return photon_probability(mu1, d1, j1, 1) * photon_probability(mu2, d2, j2, 1)


def loss_weights(mu, d, j, eta):
    """[w_0, ..., w_{d-1}], w_k = M_{(j-k) mod d}(mu (1 - eta)) M_k(mu eta) / M_j(mu):
    the weight of |k_d> at mu eta in the output of transmission-eta pure loss on
    |j_d>.  mu (1 - eta) and mu eta are formed exactly from the floats mu and eta."""
    with mpmath.workdps(DPS):
        x, e = mpmath.mpf(mu), mpmath.mpf(eta)
        lost, kept = residue_masses(x * (1 - e), d), residue_masses(x * e, d)
        mass = residue_masses(mu, d)[j]
        return [lost[(j - k) % d] * kept[k] / mass for k in range(d)]


def basis_fidelity(mu, d, j):
    """The fidelity bound between the X and Y basis mixtures of |j_d> on two pulses of
    mu each, from its defining phase sum over q = 0..d-1, w = e^{2 pi i / d}:

        d |sum_q w^{jq} e^{-2mu + mu w^{-q}} (e^{i mu w^{-q}} + i e^{-i mu w^{-q}})|
        / (sqrt(2) N_{2mu,j})

    Each term is at most 2 in modulus, so a sum of size S is good to DPS digits
    once it is worked at DPS + 10 + log10(2d / S).  The first pass takes S from
    N_{2mu,j} / d (a bound near 1 has S = sqrt(2) N / d), and a sum that comes
    out smaller is summed again at the digits it needs.  At j = 3 (mod 4) the
    sum is exactly 0: its z^n Taylor term, kept for n = j (mod d), carries
    (1 + i)^n + i (1 - i)^n = 2^(n/2 + 1) e^{i pi/4} cos(pi (n - 1) / 4).
    """
    if j % 4 == 3:
        return mpmath.mpf(0)

    def digits(size):
        return DPS + 10 + max(0, int(mpmath.ceil(mpmath.log10(2 * d / size))))

    norm = normalization(2.0 * mu, d, j)
    size, dps = norm / d, 0
    while dps < digits(size):
        dps = digits(size)
        with mpmath.workdps(dps):
            x = mpmath.mpf(mu)
            winv = [mpmath.expjpi(mpmath.mpf(-2 * q) / d) for q in range(d)]
            size = abs(mpmath.fsum(
                mpmath.expjpi(mpmath.mpf(2 * j * q) / d) * mpmath.exp(-2 * x + x * w)
                * (mpmath.exp(1j * x * w) + 1j * mpmath.exp(-1j * x * w))
                for q, w in enumerate(winv)))
    with mpmath.workdps(DPS):
        return d * size / (mpmath.sqrt(2) * norm)


def bb84(mu, d, j, k, basis):
    """(p_click_port0, p_click_port1, p_double, p_none) of |j_d> encoded on two pulses
    of mu each, relative phase 2 pi k / d, read in basis "X" or "Y".

    The splitter's output holds independent Poisson counts n and m, of means
    A = mu (1 + c) and B = mu (1 - c) with c = Re(phi w^k) (phi = 1 for X, i for
    Y; exact at quarter turns), conditioned on n + m = j (mod d).  Each event
    sums that two-port distribution over its pattern of clicks, from the
    masses of n >= 1 photons per residue, and all four share their sum as the
    normalization.
    """
    turn = 4 * k + (d if basis == "Y" else 0)  # phi w^k = exp(2 pi i turn / 4d)
    with mpmath.workdps(DPS + 10):
        if turn % d:
            c = mpmath.cos(mpmath.pi * turn / (2 * d))
        else:
            c = mpmath.mpf((1, 0, -1, 0)[turn // d % 4])
        x = mpmath.mpf(mu)
        a, b = x * (1 + c), x * (1 - c)
        clicks_a, clicks_b = residue_masses(a, d, 1), residue_masses(b, d, 1)
        parts = [mpmath.exp(-b) * clicks_a[j], mpmath.exp(-a) * clicks_b[j],
                 mpmath.fsum(clicks_a[r] * clicks_b[(j - r) % d] for r in range(d)),
                 mpmath.exp(-a - b) if j == 0 else mpmath.mpf(0)]
        total = mpmath.fsum(parts)
        return [p / total for p in parts]


def bb84_cases():
    """(mu, d, j, k, basis) of every BB84_GRID case: the k of both phase sets, the
    paper-literal one only where 8 divides d."""
    for d in BB84_GRID["d"]:
        ks = sorted({0, d // 4, d // 2, 3 * d // 4} | ({3 * d // 8} if d % 8 == 0 else set()))
        for mu in BB84_GRID["mu"]:
            for j in range(d):
                for k in ks:
                    for basis in "XY":
                        yield mu, d, j, k, basis


def relative_error(value, ref):
    """|value - ref| / |ref| in doubles, with ref rounded to the nearest double
    (a relative move of at most 2^-53); inf for a nonzero value where ref is 0."""
    r = float(ref)
    if r == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - r) / abs(r)


def fig1_cell(quantity, d, mu):
    """Referee of a covered fig1 cell, or None: the "fidelity" column holds the
    one-photon probability of j = 1 % d, and f2002 is its square."""
    if quantity == "fidelity":
        return photon_probability(mu, d, 1 % d, 1)
    if quantity == "f2002":
        return f2002(mu, d, 1 % d, mu, d, 1 % d)
    return None


def _check_cells(cells, out):
    """Print each (label, value, referee) of cells whose value misses RTOL; return their
    number."""
    checked = missed = 0
    for label, value, ref in cells:
        checked += 1
        err = relative_error(value, ref)
        if not err <= RTOL:
            missed += 1
            out.write("%s, %r, %s, %.3e\n" % (label, value, mpmath.nstr(ref, 20), err))
    out.write("%d of %d covered cells miss rtol %g\n" % (missed, checked, RTOL))
    return missed


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_fig1(path, out=sys.stdout):
    """Print each covered cell of the fig1 CSV at path that misses RTOL; return their number."""
    cells = ((row["quantity"], int(row["d"]), float(row["mu"]), float(row["value"]))
             for row in _csv_rows(path))
    return _check_cells((("%s d=%d mu=%r" % (quantity, d, mu), value, ref)
                         for quantity, d, mu, value in cells
                         for ref in [fig1_cell(quantity, d, mu)] if ref is not None), out)


def check_fig4(path, out=sys.stdout):
    """Print each cell of the fig4 CSV at path whose bound misses RTOL against
    basis_fidelity; return their number."""
    cells = ((int(row["d"]), int(row["j"]), float(row["mu"]), float(row["value"]))
             for row in _csv_rows(path))
    return _check_cells((("basis_fidelity d=%d j=%d mu=%r" % (d, j, mu), value,
                          basis_fidelity(mu, d, j)) for d, j, mu, value in cells), out)


BB84_NAMES = ("p_click_port0", "p_click_port1", "p_double", "p_none")


def check_bb84(cases=None, out=sys.stdout):
    """Print each case of cases (bb84_cases() by default) whose measure_bb84 value misses
    BB84_RTOL against the referee, one line per missed probability; return the
    number of cases that miss."""
    from pspsim import measure_bb84

    checked = missed = 0
    for mu, d, j, k, basis in bb84_cases() if cases is None else cases:
        checked += 1
        rtol = BB84_RTOL.get(d, RTOL)
        misses = [(name, value, ref, relative_error(value, ref)) for name, value, ref
                  in zip(BB84_NAMES, measure_bb84(mu, d, j, k, basis), bb84(mu, d, j, k, basis))]
        misses = [miss for miss in misses if not miss[3] <= rtol]
        missed += bool(misses)
        for name, value, ref, err in misses:
            out.write("%s mu=%r d=%d j=%d k=%d basis=%s, %r, %s, %.3e\n"
                      % (name, mu, d, j, k, basis, value, mpmath.nstr(ref, 20), err))
    out.write("%d of %d BB84 cases miss their tolerance\n" % (missed, checked))
    return missed


if __name__ == "__main__":
    if sys.argv[1:2] == ["--bb84"] and len(sys.argv) == 2:
        missed = check_bb84()
    elif sys.argv[1:2] == ["--fig4"] and len(sys.argv) == 3:
        missed = check_fig4(sys.argv[2])
    elif len(sys.argv) == 2 and not sys.argv[1].startswith("--"):
        missed = check_fig1(sys.argv[1])
    else:
        sys.exit("usage: python tests/referee.py fig1.csv | --fig4 fig4.csv | --bb84")
    sys.exit(1 if missed else 0)
