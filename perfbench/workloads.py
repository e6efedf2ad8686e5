"""The benchmark's workloads: inputs from a seed, timed work, oracle checks.

Each workload has four steps, and run.py decides which are timed:

    build(it)          fresh pairs, so every iteration starts with cold caches
    inputs(state, it)  seeded inputs, generated before the clock starts
    run(state)         the timed work: calls into heckepairs only
    check(state, out)  compares the outputs with their oracles

`check` returns (attempted, failed, notes): attempted counts results checked,
failed those that raised or disagreed with their oracle. Calls go through
module attributes (`hp.convolve`, `cli.run`) so the runtime wrappers of
tracer.py see them.
"""

import contextlib
import csv
import io
import json
import os
import shutil
from fractions import Fraction

import numpy as np

import heckepairs as hp
from heckepairs import cli

import oracles

SEMIDIRECT = oracles.PAIR


def stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


class ConvolveExact:
    """Exact algebra laws on bost_connes and gl2q, as in acceptance criterion 1.

    Why: nearly all the time is exact QQi/Fraction accumulation, re-bucketing
    by double_rep and double-coset decomposition, with a small, heavily reused
    action cache and no floating-point solve.
    """

    name = "convolve-exact"
    setup_pairs = [("bost_connes", {}), ("gl2q", {})]
    ROUNDS = {"full": 40, "tiny": 2}
    # criterion 1's small-determinant shapes: gl2q decompositions grow with
    # the determinant, so triples are drawn from this pool
    gl2q_pool = (
        ((1, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 1), (0, 2)), ((1, 0), (0, 3)),
        ((2, 0), (0, 2)), ((1, 0), (0, 4)), ((Fraction(1, 2), 0), (0, 1)),
    )
    hecke_primes = (2, 3, 5, 7)

    def __init__(self, seed, size, out_dir):
        self.seed = seed
        self.rounds = self.ROUNDS[size]

    def build(self, it):
        return {name: hp.build_pair(name, params) for name, params in self.setup_pairs}

    def _gl2q_element(self, pair, rng):
        f = hp.HeckeElement.zero(pair)
        k = int(rng.integers(1, 4))
        for i in rng.choice(len(self.gl2q_pool), size=k, replace=False):
            c = hp.QQi(int(rng.integers(1, 6)) * (1 if rng.integers(2) else -1),
                       int(rng.integers(-3, 4)))
            g = hp.MatrixElement(self.gl2q_pool[int(i)])
            f = f + hp.HeckeElement.delta(pair, g, coeff=c)
        return f

    def inputs(self, pairs, it):
        triples = []
        for j, (name, pair) in enumerate(sorted(pairs.items())):
            rng = stream(self.seed, j, it)
            for _ in range(self.rounds):
                if name == "gl2q":
                    t = tuple(self._gl2q_element(pair, rng) for _ in range(3))
                else:
                    t = tuple(hp.random_hecke_element(pair, rng, radius=2, complex_part=True)
                              for _ in range(3))
                triples.append((pair, t))
        gl2q = pairs["gl2q"]

        def T(a, d):
            return hp.HeckeElement.delta(gl2q, hp.MatrixElement(((a, 0), (0, d))))

        hecke = [(p, T(1, p), T(1, p * p), T(p, p)) for p in self.hecke_primes]
        return {"pairs": pairs, "triples": triples, "hecke": hecke}

    def run(self, state):
        conv = hp.convolve
        rounds = []
        for pair, (f1, f2, f3) in state["triples"]:
            try:
                e = hp.HeckeElement.delta(pair, pair.identity)
                f12 = conv(pair, f1, f2)
                rounds.append((pair, f1, f2, {
                    "assoc": (conv(pair, f12, f3), conv(pair, f1, conv(pair, f2, f3))),
                    "left-id": (conv(pair, e, f1), f1),
                    "right-id": (conv(pair, f1, e), f1),
                    "anti-hom": (f12.involution(),
                                 conv(pair, f2.involution(), f1.involution())),
                    "positivity": conv(pair, f1, f1.involution()),
                }))
            except Exception as exc:  # a raised round is a failed result
                rounds.append((pair, f1, f2, exc))
        hecke = []
        for _p, tp, _tp2, _tpp in state["hecke"]:
            try:
                hecke.append(conv(tp.pair, tp, tp))
            except Exception as exc:
                hecke.append(exc)
        return {"rounds": rounds, "hecke": hecke}

    def check(self, state, out):
        attempted = failed = 0
        for pair, f1, _f2, res in out["rounds"]:
            attempted += 5
            if isinstance(res, Exception):
                failed += 5
                continue
            for law in ("assoc", "left-id", "right-id", "anti-hom"):
                got, want = res[law]
                failed += got != want
            c = res["positivity"].coefficient(hp.double_key(pair, pair.identity))
            failed += not (c.is_real_nonneg() and c.re == hp.l2_norm_sq(f1.involution()))
        # T(p)^2 = T(p^2) + (p+1) T(p,p) in the double-coset basis of gl2q
        for got, (p, _tp, tp2, tpp) in zip(out["hecke"], state["hecke"]):
            attempted += 1
            failed += isinstance(got, Exception) or got != tp2 + tpp.scale(p + 1)
        return attempted, failed, {}


class ScanSemidirect:
    """haagerup_scan_exact on semidirect (rank 2, swap), radii (4, 8), 200 samples.

    Why: nearly all the time goes to building the ActionTable (group products
    and canonicalisations), then int64 matvecs. It writes the same action
    cache convolve-exact reads, but a quarter million entries read back
    rarely, so a cache change that helps one shows its cost here.
    """

    name = "scan-semidirect"
    setup_pairs = [SEMIDIRECT]

    def __init__(self, seed, size, out_dir):
        self.seed = seed
        self.radii = oracles.SCAN_RADII[size]
        self.samples = oracles.SCAN_SAMPLES[size]
        frozen = oracles.load()["scan_char_ratio_sq"]
        # the running max at radius r is attained by a characteristic pair
        self.expected = {
            r: max(Fraction(frozen[str(rho)]) for rho in self.radii if rho <= r)
            for r in self.radii
        }

    def build(self, it):
        return hp.build_pair(*SEMIDIRECT)

    def inputs(self, pair, it):
        scan_seed = int(stream(self.seed, it).integers(2 ** 31))
        return {"pair": pair, "seed": scan_seed}

    def run(self, state):
        try:
            return hp.haagerup_scan_exact(state["pair"], radii=self.radii,
                                          samples=self.samples, seed=state["seed"])
        except Exception as exc:
            return exc

    def check(self, state, report):
        attempted = 2 * len(self.radii)
        if isinstance(report, Exception):
            return attempted, attempted, {}
        failed = 0
        rows = {row.radius: row for row in report.rows}
        for r in self.radii:
            row = rows.get(r)
            failed += row is None or row.max_ratio_sq != self.expected[r]
            # right cosets of length <= r are the vectors of an l1 ball
            failed += row is None or row.ball_right != 2 * r * r + 2 * r + 1
        return attempted, failed, {}


class SpectralSemidirect:
    """normest and jolissaint on semidirect through heckepairs.cli.run.

    Why: one large dense operator (normest at radius 20 runs the power
    iteration to its 20,000-step cap) and 48 levels of corner blocks, many
    over 64 columns and so solved by power iteration; convolution barely
    runs, and the cli layer (config resolution, artifacts) is on the path.
    """

    name = "spectral-semidirect"
    setup_pairs = [SEMIDIRECT]

    def __init__(self, seed, size, out_dir):
        self.out = os.path.join(out_dir, "cli")
        frozen = oracles.load()
        f_name, self.radii = oracles.NORMEST[size]
        self.sigma = {r: frozen["normest_sigma1"][f_name][str(r)] for r in self.radii}
        j_name, alpha, q = oracles.JOLISSAINT[size]
        self.rho = frozen["jolissaint"][j_name]["rho"]
        pair, params = SEMIDIRECT
        head = "pair = %s\n" % pair + "".join(
            "param.%s = %s\n" % kv for kv in sorted(params.items()))
        self.config = os.path.join(out_dir, "spectral.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("[normest]\n%sf = %s\nradii = %s\nseed = %d\n\n" % (
                head, self._spec(f_name), ",".join(map(str, self.radii)), seed))
            fh.write("[jolissaint]\n%sf = %s\nalpha = %s\nq = %d\n" % (
                head, self._spec(j_name), alpha, q))

    @staticmethod
    def _spec(name):
        terms = [{"key": [list(w), 0], "re": str(c)} for w, c in oracles.ELEMENTS[name]]
        return json.dumps({"terms": terms})

    def build(self, it):
        return None

    def inputs(self, _, it):
        shutil.rmtree(self.out, ignore_errors=True)
        return {}

    def run(self, state):
        # the one-line summaries go to a buffer, not the benchmark's stdout
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.run(cmd, config=self.config, out=self.out)
                    for cmd in ("normest", "jolissaint")]

    def check(self, state, codes):
        expected = 3 * len(self.radii) + 2 + len(self.rho)
        if codes != [0, 0]:
            return expected, expected, {}
        try:
            return self._check_artifacts()
        except (OSError, KeyError, ValueError):
            return expected, expected, {}

    def _check_artifacts(self):
        attempted = failed = 0

        def expect(ok):
            nonlocal attempted, failed
            attempted += 1
            failed += not ok

        with open(os.path.join(self.out, "normest.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        prev = 0.0
        unconverged = 0
        for row in rows:
            r, lower, upper = int(row["radius"]), float(row["lower"]), float(row["upper"])
            ref = self.sigma[r]
            expect(lower <= upper)
            expect(lower >= prev)
            prev = lower
            if row["converged"] == "True":
                expect(abs(lower - ref) <= 1e-9 * ref)
            else:
                unconverged += 1
                expect(lower <= ref * (1 + 1e-12))
        with open(os.path.join(self.out, "jolissaint.json"), encoding="utf-8") as fh:
            nu = json.load(fh)["nu"]
        expect(abs(nu - max(self.rho)) <= 1e-9 * max(self.rho))
        with open(os.path.join(self.out, "jolissaint.csv"), encoding="utf-8") as fh:
            levels = list(csv.DictReader(fh))
        expect(len(levels) == len(self.rho))
        for row in levels:
            ref = self.rho[int(row["N"]) - 1]
            expect(abs(float(row["rho"]) - ref) <= 1e-9 * max(ref, 1.0))
        artifact_bytes = sum(
            os.path.getsize(os.path.join(self.out, n)) for n in os.listdir(self.out))
        return attempted, failed, {
            "spectral_results": len(rows),
            "unconverged": unconverged,
            "cli.artifact.bytes": artifact_bytes,
        }


WORKLOADS = {w.name: w for w in (ConvolveExact, ScanSemidirect, SpectralSemidirect)}
