"""Experiment runner: INI config in, deterministic CSV/JSON artifacts out.

Every JSON artifact embeds the resolved configuration that produced it, and
exact-mode runs are byte-identical for identical (command, config, seed).
Exit codes: 0 success; 2 for a failed check, a bad configuration, a length
the pair lacks, an exhausted enumeration budget or a command that needs a
finite H (a machine-readable failure object is printed); 1 internal error.
"""

import argparse
import configparser
import csv
import json
import math
import os
import sys
import traceback
from fractions import Fraction

from .algebra import HeckeElement, L2Vector, convolve
from .cosets import degree, enumerate_ball
from .diagnostics import (
    _fmt,
    degree_growth_fit,
    haagerup_scan_exact,
    haagerup_scan_operator,
    random_hecke_element,
    random_l2_vector,
    scan_csv_rows,
    spawn_rng,
    transfer_check,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    InfiniteSubgroupError,
    UnsupportedLengthError,
)
from .jolissaint import jolissaint_seminorm
from .operators import norm_lower
from .pairs import build_pair, catalog_list


class CommandFailure(Exception):
    """A command that ran but whose verdict is negative (exit 2)."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class ExperimentConfig:
    """One command's settings: INI section values plus flag overrides.

    Typed getters record every value they resolve (defaults included) into
    `resolved`, which artifacts embed verbatim, so a JSON file always states
    the exact parameters that produced it.
    """

    def __init__(self, command, values, seed_flag=None, out_flag=None,
                 mode_flag=None):
        self.command = command
        self.values = dict(values)
        if seed_flag is not None:  # the flag overrides the config key
            self.values["seed"] = seed_flag
        self._out_flag = out_flag
        self._mode_flag = mode_flag
        self.resolved = {"command": command}

    @classmethod
    def load(cls, command, config_path=None, seed=None, out=None, mode=None):
        values = {}
        if config_path is not None:
            if not os.path.exists(config_path):
                raise ConfigError("config file not found: %s" % config_path)
            cp = configparser.ConfigParser()
            try:
                cp.read(config_path, encoding="utf-8")
            except configparser.Error as e:
                raise ConfigError("malformed config %s: %s" % (config_path, e))
            if cp.has_section(command):
                values = dict(cp[command])
        return cls(command, values, seed_flag=seed, out_flag=out, mode_flag=mode)

    def _record(self, key, value):
        self.resolved[key] = value if isinstance(value, (int, float, bool)) \
            else str(value)

    def get(self, key, default=None):
        val = self.values.get(key, default)
        if val is not None:
            self._record(key, val)
        return val

    def get_int(self, key, default=None, least=None):
        raw = self.values.get(key)
        if raw is None:
            val = default
        else:
            try:
                val = int(raw)
            except ValueError:
                raise ConfigError("key %r: expected integer, got %r" % (key, raw))
        if val is not None:
            if least is not None and val < least:
                raise ConfigError("key %r: need an integer >= %d, got %d"
                                  % (key, least, val))
            self._record(key, val)
        return val

    def get_fraction(self, key, default=None):
        raw = self.values.get(key, default)
        if raw is None:
            return None
        try:
            val = Fraction(str(raw))
        except (ValueError, ZeroDivisionError):
            raise ConfigError("key %r: expected rational, got %r" % (key, raw))
        self._record(key, val)
        return val

    def get_bool(self, key, default=False):
        raw = self.values.get(key)
        if raw is None:
            val = default
        elif raw.lower() in ("1", "true", "yes", "on"):
            val = True
        elif raw.lower() in ("0", "false", "no", "off"):
            val = False
        else:
            raise ConfigError("key %r: expected boolean, got %r" % (key, raw))
        self._record(key, val)
        return val

    def get_radii(self, key="radii", default=None):
        raw = self.values.get(key)
        if raw is None:
            radii = list(default) if default else None
        else:
            try:
                radii = [int(tok) for tok in raw.replace(",", " ").split()]
            except ValueError:
                raise ConfigError("key %r: expected integers, got %r" % (key, raw))
        if not radii:
            raise ConfigError("key %r: need at least one radius" % key)
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("radii must be strictly increasing: %r" % (radii,))
        if radii[0] < 0:  # the least, as the radii increase
            raise ConfigError("key %r: radii must be >= 0, got %r" % (key, radii))
        self._record(key, ",".join(str(r) for r in radii))
        return radii

    @property
    def seed(self):
        return self.get_int("seed", least=0)

    def require_seed(self):
        seed = self.seed
        if seed is None:
            raise ConfigError(
                "command %r samples randomly and needs a seed "
                "(config key `seed` or flag --seed)" % self.command
            )
        return seed

    @property
    def mode(self):
        val = self._mode_flag or self.values.get("mode", "exact")
        if val not in ("exact", "float"):
            raise ConfigError("mode must be 'exact' or 'float', got %r" % val)
        self._record("mode", val)
        return val

    @property
    def out_dir(self):
        val = self._out_flag or self.values.get("out", ".")
        self._record("out", val)
        return val

    def build_pair(self):
        name = self.get("pair")
        if name is None:
            raise ConfigError("command %r needs a `pair` key" % self.command)
        params = {}
        for key, raw in sorted(self.values.items()):
            if key.startswith("param."):
                try:
                    val = int(raw)
                except ValueError:
                    val = raw
                params[key[len("param."):]] = val
                self._record(key, raw)
        return build_pair(name, params)

    def resolve_length(self, pair):
        name = self.get("length")
        if name is None:
            return pair.length
        if pair.length is not None and pair.length.name == name:
            return pair.length
        if name in pair.candidate_lengths:
            return pair.candidate_lengths[name]
        raise ConfigError(
            "pair %r has no length named %r" % (pair.name, name)
        )


# ---------------------------------------------------------------------------
# element (de)serialization: {"pair", "params", "terms": [{"key", "re", "im"}]}


def _rep_from_components(pair, comps, flat=False):
    """Element of `pair`'s group from its JSON components, or from the flat
    list of a `delta:` shorthand."""
    like = pair.identity
    cls = type(like)
    try:
        if flat:
            comps = cls.split_flat(comps, like)
        want = len(like.components())
        if len(comps) != want:
            raise ValueError("need %d components" % want)
        return cls.from_components(comps, like)
    except (ValueError, TypeError, IndexError, ZeroDivisionError) as e:
        raise ConfigError("bad element key %r for pair %r: %s"
                          % (comps, pair.name, e))


def element_to_json(el):
    """Interchange form of an algebra element or coset vector."""
    pair = el.pair
    terms = []
    for key, c in el.sorted_terms():
        re, im = el.ring.dump_json(c)
        terms.append({"key": key.rep.components(), "re": re, "im": im})
    return {
        "pair": pair.name,
        "params": {k: str(v) for k, v in sorted(pair.params.items())},
        "kind": "double" if isinstance(el, HeckeElement) else "right",
        "mode": el.mode,
        "terms": terms,
    }


def element_from_json(pair, data, mode=None):
    """Rebuild an element; the JSON's pair name must match the config's."""
    if not isinstance(data, dict) or "terms" not in data:
        raise ConfigError("element JSON needs a 'terms' list")
    if data.get("pair") not in (None, pair.name):
        raise ConfigError(
            "element belongs to pair %r, command uses %r"
            % (data.get("pair"), pair.name)
        )
    mode = mode or data.get("mode", "exact")
    kind = data.get("kind", "double")
    cls = HeckeElement if kind == "double" else L2Vector
    out = cls.zero(pair, mode)
    for term in data["terms"]:
        if not isinstance(term, dict) or "key" not in term:
            raise ConfigError("element term %r has no 'key'" % (term,))
        rep = _rep_from_components(pair, term["key"])
        try:
            c = out.ring.parse_json(term.get("re", 0), term.get("im", 0))
        except (ValueError, TypeError, ArithmeticError) as e:
            raise ConfigError("bad coefficient in element term %r: %s" % (term, e))
        out = out + cls.delta(pair, rep, coeff=c, mode=mode)
    return out


def load_element(pair, spec, mode="exact", kind="double"):
    """Element from a config value: delta shorthand, inline JSON, or a path.

    `delta:1,1` builds the basis element at the given canonical-rep
    components; a value starting with '{' is parsed as inline JSON; anything
    else is read as a JSON file path.
    """
    spec = spec.strip()
    if spec.startswith("delta:"):
        parts = [tok.strip() for tok in spec[len("delta:"):].split(",")]
        rep = _rep_from_components(pair, parts, flat=True)
        cls = HeckeElement if kind == "double" else L2Vector
        return cls.delta(pair, rep, mode=mode)
    if spec.startswith("{"):
        try:
            data = json.loads(spec)
        except json.JSONDecodeError as e:
            raise ConfigError("inline element JSON: %s" % e)
        return element_from_json(pair, data, mode)
    if not os.path.exists(spec):
        raise ConfigError("element file not found: %s" % spec)
    with open(spec, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError("element file %s: %s" % (spec, e))
    return element_from_json(pair, data, mode)


# ---------------------------------------------------------------------------
# artifact writers


def _write_json(cfg, name, payload):
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    body = {"config": dict(cfg.resolved)}
    body.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(cfg, name, rows):
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(["" if cell is None else str(cell) for cell in row])
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_pairs(cfg):
    rows = catalog_list()
    for row in rows:
        print("%-14s %-10s L=%-12s %s" % (
            row["name"], row["rd_status"], row["length"], row["description"],
        ))
    _write_json(cfg, "pairs.json", {"pairs": rows})
    return "pairs: %d catalog entries; wrote pairs.json" % len(rows)


def cmd_enumerate(cfg):
    pair = cfg.build_pair()
    length = cfg.resolve_length(pair)
    radius = cfg.get_int("radius", 6)
    budget = cfg.get_int("budget", 10 ** 6)
    ball = enumerate_ball(pair, length, radius, budget=budget)
    rows = [["key", "length", "degree"]]
    doubles = []
    for dk in ball.double:
        deg = degree(pair, dk.rep)
        comps = dk.rep.components()
        rows.append([json.dumps(comps), dk.length, deg])
        doubles.append({"key": comps, "length": str(dk.length), "degree": deg})
    _write_csv(cfg, "enumerate.csv", rows)
    _write_json(cfg, "enumerate.json", {
        "counts": {"double": len(ball.double), "right": len(ball.right)},
        "doubles": doubles,
    })
    return "enumerate: %d double cosets, %d right cosets up to radius %d" % (
        len(ball.double), len(ball.right), radius,
    )


def cmd_degrees(cfg):
    pair = cfg.build_pair()
    length = cfg.resolve_length(pair)
    radius = cfg.get_int("radius", 8)
    budget = cfg.get_int("budget", 10 ** 6)
    elements = None
    if length is not None and not length.locally_finite:
        rng = spawn_rng(cfg.seed or 0, 3)
        count = cfg.get_int("samples", 50, least=0)
        elements = [pair.random_element(rng) for _ in range(count)]
    fit = degree_growth_fit(pair, length=length, radius=radius, budget=budget,
                            elements=elements)
    rows = [["key", "length", "degree"]]
    for key, L, deg in fit.table:
        rows.append([json.dumps(key.rep.components()), L, deg])
    _write_csv(cfg, "degrees.csv", rows)
    _write_json(cfg, "degrees.json", {
        "d": fit.d,
        "t": fit.t,
        "d_fit": fit.d_fit,
        "t_fit": fit.t_fit,
        "table": [
            [key.rep.components(), str(L), deg] for key, L, deg in fit.table
        ],
    })
    return "degrees: bound degree <= %.6g*(1+L)^%d over %d cosets" % (
        fit.d, fit.t, len(fit.table),
    )


def cmd_convolve(cfg):
    pair = cfg.build_pair()
    mode = cfg.mode
    left_spec = cfg.get("left")
    right_spec = cfg.get("right")
    if left_spec is None or right_spec is None:
        raise ConfigError("convolve needs `left` and `right` element specs")
    f1 = load_element(pair, left_spec, mode=mode, kind="double")
    f2 = load_element(pair, right_spec, mode=mode, kind="double")
    prod = convolve(pair, f1, f2)
    _write_json(cfg, "convolve.json", {
        "left": element_to_json(f1),
        "right": element_to_json(f2),
        "product": element_to_json(prod),
    })
    return "convolve: product supported on %d double cosets" % len(prod)


def cmd_normest(cfg):
    pair = cfg.build_pair()
    length = cfg.resolve_length(pair)
    mode = cfg.mode
    spec = cfg.get("f")
    if spec is None:
        raise ConfigError("normest needs an `f` element spec")
    f = load_element(pair, spec, mode=mode, kind="double")
    radii = cfg.get_radii(default=(2, 4, 6))
    seed = cfg.seed or 0
    raw_tol = cfg.get("tol", "1e-10")
    try:
        tol = float(raw_tol)
    except ValueError:
        raise ConfigError("key 'tol': expected a number, got %r" % raw_tol)
    if not 0 < tol < math.inf:
        raise ConfigError("key 'tol': need a finite tol > 0, got %r" % raw_tol)
    brackets = [norm_lower(pair, f, length=length, radius=r, tol=tol, seed=seed)
                for r in radii]
    rows = [["radius", "lower", "upper", "method", "iterations", "residual",
             "converged"]]
    for r, b in zip(radii, brackets):
        rows.append([r, _fmt(b.lower), _fmt(b.upper), b.method, b.iterations,
                     _fmt(b.residual), b.converged])
    last = brackets[-1]
    _write_csv(cfg, "normest.csv", rows)
    _write_json(cfg, "normest.json", {
        "f": element_to_json(f),
        "lower": last.lower,
        "upper": last.upper,
        "method": last.method,
        "radius": last.radius,
        "converged": last.converged,
    })
    return "normest: ||lambda(f)|| in [%.9g, %.9g] at radius %d%s" % (
        last.lower, last.upper, radii[-1],
        "" if all(b.converged for b in brackets) else "; NOT converged",
    )


def cmd_rd_scan(cfg):
    pair = cfg.build_pair()
    length = cfg.resolve_length(pair)
    radii = cfg.get_radii(default=(4, 8, 16, 32, 64))
    seed = cfg.require_seed()
    samples = cfg.get_int("samples", 200, least=0)
    budget = cfg.get_int("budget", 10 ** 6)
    exact = haagerup_scan_exact(pair, length=length, radii=radii, seed=seed,
                                samples=samples, budget=budget)
    op = None
    if cfg.get_bool("operator", False):
        op_radii = cfg.get_radii("operator_radii", default=(2, 4, 8))
        op_samples = cfg.get_int("operator_samples", 25, least=0)
        op = haagerup_scan_operator(pair, length=length, radii=op_radii,
                                    seed=seed, samples=op_samples,
                                    budget=budget)
    _write_csv(cfg, "rd-scan.csv", scan_csv_rows(exact, op))
    payload = {"exact": exact.to_json_dict(),
               "fitted": {"C": exact.fitted_c, "s": exact.fitted_s}}
    if op is not None:
        payload["operator"] = op.to_json_dict()
    _write_json(cfg, "rd-scan.json", payload)
    return "rd-scan: %d radii, fitted C=%.6g s=%.6g" % (
        len(radii), exact.fitted_c, exact.fitted_s,
    )


def cmd_transfer_check(cfg):
    pair = cfg.build_pair()
    count = cfg.get_int("samples", 25, least=0)
    seed = cfg.require_seed() if count > 0 else 0
    # a negative radius gives empty balls: every draw is zero and is skipped
    radius = cfg.get_int("radius", 3, least=0)
    failures = []
    item_names = None
    for i in range(count):
        rng = spawn_rng(seed, 11, i)
        f = random_hecke_element(pair, rng, radius=radius, nonneg=True)
        k = random_l2_vector(pair, rng, radius=radius, nonneg=True)
        if f.is_zero() or k.is_zero():
            continue
        report = transfer_check(pair, f, k, rng=rng)
        if item_names is None:
            item_names = [item.name for item in report.items]
        for item in report.items:
            if not item.ok:
                failures.append({
                    "sample": i, "item": item.name,
                    "lhs": str(item.lhs), "rhs": str(item.rhs),
                })
    payload = {
        "n": len(pair.h_elements) if pair.h_elements else None,
        "checks": count,
        "items": item_names or [],
        "all_ok": not failures,
        "failures": failures,
    }
    _write_json(cfg, "transfer-check.json", payload)
    if failures:
        raise CommandFailure(
            "transfer-check: %d identity failures" % len(failures),
            details={"failures": failures[:10]},
        )
    return "transfer-check: %d samples, all identities exact" % count


def cmd_jolissaint(cfg):
    pair = cfg.build_pair()
    length = cfg.resolve_length(pair)
    mode = cfg.mode
    spec = cfg.get("f")
    if spec is None:
        raise ConfigError("jolissaint needs an `f` element spec")
    f = load_element(pair, spec, mode=mode, kind="double")
    alpha = cfg.get_fraction("alpha", "1/2")
    q = cfg.get_int("q", 1)
    res = jolissaint_seminorm(pair, f, length=length, alpha=alpha, q=q)
    rows = [["N", "rho", "block_dims"]]
    for level in res.rows:
        dims = "%dx%d;%dx%d" % (level.block1_shape + level.block2_shape)
        rows.append([level.n, _fmt(level.value), dims])
    _write_csv(cfg, "jolissaint.csv", rows)
    _write_json(cfg, "jolissaint.json", {
        "f": element_to_json(f),
        "nu": res.value,
        "argmax_N": res.argmax_n,
        "vanishes_from": res.threshold,
    })
    return "jolissaint: nu=%.9g (argmax N=%r, levels 1..%d)" % (
        res.value, res.argmax_n, res.threshold - 1,
    )


def cmd_validate_length(cfg):
    pair = cfg.build_pair()
    length = cfg.resolve_length(pair)
    if length is None:
        raise ConfigError("pair %r has no length to validate" % pair.name)
    samples = cfg.get_int("samples", 30, least=0)
    rng = spawn_rng(cfg.seed or 0, 5)
    sample = [pair.random_element(rng) for _ in range(samples)]
    report = pair.validate_length(length=length, sample=sample)
    payload = {
        "length": report.length_name,
        "checks": report.checks,
        "ok": report.ok,
        "failures": [
            {"rule": rule, "witness": repr(witness), "data": repr(data)}
            for rule, witness, data in report.failures
        ],
    }
    _write_json(cfg, "validate-length.json", payload)
    if not report.ok:
        raise CommandFailure(
            "validate-length: %d axiom failures on %r"
            % (len(report.failures), report.length_name),
            details={"failures": payload["failures"][:10]},
        )
    return "validate-length: %r passed %d checks" % (
        report.length_name, report.checks,
    )


COMMANDS = {
    "pairs": cmd_pairs,
    "enumerate": cmd_enumerate,
    "degrees": cmd_degrees,
    "convolve": cmd_convolve,
    "normest": cmd_normest,
    "rd-scan": cmd_rd_scan,
    "transfer-check": cmd_transfer_check,
    "jolissaint": cmd_jolissaint,
    "validate-length": cmd_validate_length,
}


def run(command, config=None, seed=None, out=None, mode=None):
    """Programmatic entry point; returns the process exit code."""
    argv = [command]
    if config is not None:
        argv += ["--config", str(config)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if out is not None:
        argv += ["--out", str(out)]
    if mode is not None:
        argv += ["--mode", str(mode)]
    return main(argv)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="heckepairs",
        description="Exact Hecke-pair computations: coset enumeration, "
                    "convolution, norm estimates, decay diagnostics.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI file with one section per command")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--out", help="artifact directory (default: config or .)")
    parser.add_argument("--mode", choices=("exact", "float"))
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(
            args.command, config_path=args.config, seed=args.seed,
            out=args.out, mode=args.mode,
        )
        summary = COMMANDS[args.command](cfg)
        print(summary)
        return 0
    except (CommandFailure, ConfigError, UnsupportedLengthError,
            BudgetExceededError, InfiniteSubgroupError) as e:
        print(json.dumps({
            "status": "failure", "command": args.command, "message": str(e),
            "details": e.details if isinstance(e, CommandFailure) else {},
        }, sort_keys=True))
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
