"""Independent references for the semidirect workloads, frozen in data/.

The benchmark checks the program's scan ratios and spectral norms against
values computed here by a second route that never imports heckepairs.

On `semidirect` (rank 2, swap action) G = Z^2 x| Z/2 and H = {e, flip}.
A right coset H(v, s) is named by one vector of Z^2, and the double coset
of (w, 0) is made of the right cosets w and swap(w). Its length is the
l1 norm of the vector. The regular representation of a Hecke element
sum_D c_D delta_D is therefore the translation operator

    lambda(f) e_v = sum_D c_D sum_{u in {w_D, swap(w_D)}} e_{v + u}

and every reference below is a count or a LAPACK SVD of that operator.

    python3 perfbench/oracles.py          # recompute and rewrite the data
    python3 perfbench/oracles.py --check  # recompute and compare, exit 1 on drift
"""

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "oracles.json")

PAIR = ("semidirect", {"rank": 2, "action": "swap"})

# Workload inputs. Each element is a list of (double-coset vector, coefficient).
# f_A and f_B are the elements named in the workload definitions; f_tiny is
# a short-support element for the smoke-size jolissaint run.
ELEMENTS = {
    "f_A": [((3, 1), 1), ((1, 0), 2)],
    "f_B": [((5, 2), 1), ((2, 2), 3)],
    "f_tiny": [((2, 1), 1), ((1, 0), 2)],
}
SCAN_RADII = {"full": (4, 8), "tiny": (4,)}
SCAN_SAMPLES = {"full": 200, "tiny": 10}
SCAN_K_FACTOR_CHAR = 5
NORMEST = {"full": ("f_A", (16, 20)), "tiny": ("f_A", (4, 6))}
JOLISSAINT = {"full": ("f_B", "1/2", 1), "tiny": ("f_tiny", "1/2", 1)}


def ball(radius):
    """Vectors of Z^2 with l1 norm <= radius."""
    return [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-(radius - abs(x)), radius - abs(x) + 1)
    ]


def translations(terms):
    """(shift, coefficient) pairs of lambda(f), one per right coset of each D."""
    out = []
    for (a, b), c in terms:
        out.append(((a, b), c))
        if (b, a) != (a, b):
            out.append(((b, a), c))
    return out


def support_length(terms):
    return max(abs(a) + abs(b) for (a, b), _ in terms)


def compression(terms, domain, codomain):
    """Dense matrix of lambda(f) from span(domain) to span(codomain)."""
    rows = {v: i for i, v in enumerate(codomain)}
    m = np.zeros((len(codomain), len(domain)))
    for j, (x, y) in enumerate(domain):
        for (a, b), c in translations(terms):
            i = rows.get((x + a, y + b))
            if i is not None:
                m[i, j] += c
    return m


def sigma1(m):
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def normest_sigma(terms, radius):
    """Top singular value of the column-exact truncation at one radius."""
    ell = support_length(terms)
    return sigma1(compression(terms, ball(radius), ball(radius + ell)))


def _le_n_minus_pow(value, n, alpha):
    # value <= n - n^alpha, decided in integers
    d = n - value
    return d >= 0 and d ** alpha.denominator >= n ** alpha.numerator


def jolissaint_levels(terms, alpha, q):
    """rho(f, N) for every level below the vanishing threshold.

    Block 1 maps the lengths (N - ell, N - N^alpha] into (N, N - N^alpha + ell];
    block 2 maps the second window back into the first.
    """
    alpha = Fraction(alpha)
    ell = support_length(terms)
    threshold = 1
    while ell ** alpha.denominator > threshold ** alpha.numerator:
        threshold += 1
    lens = [(v, abs(v[0]) + abs(v[1])) for v in ball(threshold - 1 + ell)]
    out = []
    for n in range(1, threshold):
        cols = [v for v, L in lens if n - ell < L and _le_n_minus_pow(L, n, alpha)]
        rows = [v for v, L in lens if n < L and _le_n_minus_pow(L - ell, n, alpha)]
        if not cols or not rows:
            out.append(0.0)
            continue
        b1 = sigma1(compression(terms, cols, rows))
        b2 = sigma1(compression(terms, rows, cols))
        out.append(float(n ** q) * (b1 + b2))
    return out


def char_ratio_sq(rho, k_factor_char=SCAN_K_FACTOR_CHAR):
    """Exact ||f * k||^2 / (||f||^2 ||k||^2) for the scan's characteristic pair.

    f is 1 on every double coset of length <= rho, so lambda(f) is the sum of
    the translations by the ball B_rho; k is the indicator of B_{k_factor*rho}.
    """
    kr = k_factor_char * rho
    side = 2 * (kr + rho) + 1
    grid = np.zeros((side, side), dtype=np.int64)
    kball = np.zeros((side, side), dtype=np.int64)
    off = kr + rho
    for x, y in ball(kr):
        kball[x + off, y + off] = 1
    fball = ball(rho)
    for a, b in fball:
        grid += np.roll(np.roll(kball, a, axis=0), b, axis=1)
    num = int((grid * grid).sum())
    return Fraction(num, len(fball) * len(ball(kr)))


def compute():
    scan = {}
    radii = sorted(set(r for rs in SCAN_RADII.values() for r in rs))
    for r in radii:
        scan[str(r)] = str(char_ratio_sq(r))
    normest = {}
    for name, rs in NORMEST.values():
        for r in rs:
            normest.setdefault(name, {})[str(r)] = normest_sigma(ELEMENTS[name], r)
    jol = {}
    for name, alpha, q in JOLISSAINT.values():
        jol[name] = {
            "alpha": alpha,
            "q": q,
            "rho": jolissaint_levels(ELEMENTS[name], alpha, q),
        }
    return {
        "pair": PAIR,
        "elements": {k: [[list(w), c] for w, c in v] for k, v in ELEMENTS.items()},
        "scan_char_ratio_sq": scan,
        "normest_sigma1": normest,
        "jolissaint": jol,
    }


def load():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the frozen file instead of rewriting it")
    args = ap.parse_args(argv)
    fresh = json.loads(json.dumps(compute()))
    if args.check:
        same = fresh == load()
        print("oracles: frozen data %s" % ("matches" if same else "DIFFERS"))
        return 0 if same else 1
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("oracles: wrote %s" % DATA)
    return 0


if __name__ == "__main__":
    sys.exit(main())
