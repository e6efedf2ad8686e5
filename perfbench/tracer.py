"""Per-layer tracing of heckepairs from outside the package.

`Tracer.install()` swaps public functions and methods of heckepairs for
timing wrappers at runtime and `uninstall()` puts the originals back; no
file of the package is edited. Coarse calls become spans (name, start, end,
parent span, run id) kept in memory; hot leaf calls (canonicalisers,
decompositions, integer matvecs) are only counted and timed, so a scan's
half a million `coset_rep` calls do not turn into half a million records.
Every wrapped call still subtracts its time from its caller, so self time
is a span's duration minus the time of the wrapped calls inside it.

Counts are derived from call arguments and results (probe counts from
operand sizes, cache growth from `len(pair.*_cache)`), never from private
state of the functions being measured.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from heckepairs import algebra, cli, cosets, diagnostics, groups, jolissaint, operators, pairs

_perf = time.perf_counter


def _namespaces():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "heckepairs" or n.startswith("heckepairs."))]


class _Patches:
    """Replace functions in every heckepairs namespace that binds them."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make):
        old = getattr(module, name)
        new = make(old)
        for ns in _namespaces():
            for key, val in list(vars(ns).items()):
                if val is old:
                    setattr(ns, key, new)
                    self._undo.append((ns, key, old))

    def attribute(self, owner, name, make):
        old = owner.__dict__[name]
        setattr(owner, name, make(old))
        self._undo.append((owner, name, old))

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class LatencyProbe:
    """Wall time of each outermost call to one function, nothing else."""

    def __init__(self):
        self.samples = []
        self._patches = _Patches()

    def _wrap(self, fn):
        samples = self.samples

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(_perf() - t0)

        return wrapper

    def install(self, module, name):
        self._patches.function(module, name, self._wrap)

    def uninstall(self):
        self._patches.restore()


class Tracer:
    """Spans and counters for one traced iteration of a workload."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.active = False
        self.spans = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.pairs = []
        self._stack = []  # open frames: [child seconds, span id to parent on, name]
        self._patches = _Patches()

    def inside(self, name):
        return any(frame[2] == name for frame in self._stack)

    def wrap(self, fn, name, span=True, before=None, after=None):
        """Time `fn` under `name`; before(args, kwargs) returns a token for after."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            stack = tr._stack
            parent = stack[-1][1] if stack else None
            sid = None
            if span:
                sid = len(tr.spans)
                tr.spans.append(None)
            frame = [0.0, sid if span else parent, name]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dt = t1 - t0
                tr.calls[name] += 1
                tr.total[name] += dt
                tr.self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    tr.spans[sid] = (name, t0, t1, parent, tr.run_id)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        p = self._patches
        tr = self

        def mul(fn):
            @functools.wraps(fn)
            def wrapper(a, b):
                if tr.active:
                    tr.counts["groups.mul"] += 1
                return fn(a, b)
            return wrapper

        p.attribute(groups.GroupElement, "__mul__", mul)

        def pair_init(fn):
            @functools.wraps(fn)
            def wrapper(pair, *args, **kwargs):
                fn(pair, *args, **kwargs)
                if tr.active:
                    pair.coset_rep = tr.wrap(pair.coset_rep, "pairs.coset_rep", span=False)
                    pair.double_rep = tr.wrap(pair.double_rep, "pairs.double_rep", span=False)
                    tr.pairs.append(pair)
            return wrapper

        p.attribute(pairs.HeckePair, "__init__", pair_init)
        p.function(pairs, "build_pair", lambda fn: tr.wrap(fn, "pairs.build_pair"))

        def decompose_before(args, kwargs):
            uses_cache = kwargs.get("h_generators") is None and len(args) < 4
            return len(args[0].decompose_cache) if uses_cache else None

        def decompose_after(size_before, args, kwargs, result):
            if size_before is not None:
                tr.counts["cosets.decompose.cached_calls"] += 1
                if len(args[0].decompose_cache) == size_before:
                    tr.counts["cosets.decompose.hits"] += 1

        p.function(cosets, "decompose_double_coset", lambda fn: tr.wrap(
            fn, "cosets.decompose", span=False,
            before=decompose_before, after=decompose_after))

        def ball_after(_, args, kwargs, ball):
            key = "cosets.ball.right_size"
            tr.counts[key] = max(tr.counts[key], len(ball.right))

        p.function(cosets, "enumerate_ball", lambda fn: tr.wrap(
            fn, "cosets.enumerate_ball", after=ball_after))

        p.function(algebra, "convolve", lambda fn: tr.wrap(fn, "algebra.convolve"))

        def apply_before(args, kwargs):
            f, xi = args[1], args[2]
            tr.counts["algebra.action_cache.probes"] += len(f.terms) * len(xi.terms)

        p.function(algebra, "apply_regular_rep", lambda fn: tr.wrap(
            fn, "algebra.apply_regular_rep", before=apply_before))

        def table_before(args, kwargs):
            doubles, domain = args[2], args[3]
            tr.counts["algebra.action_cache.probes"] += len(doubles) * len(domain)

        def table_after(_, args, kwargs, result):
            table = args[0]
            tr.counts["operators.action_table.entries"] += sum(
                len(rows) for rows, _cols in table.tables.values())

        p.attribute(operators.ActionTable, "__init__", lambda fn: tr.wrap(
            fn, "operators.action_table", before=table_before, after=table_after))

        def matrix_after(_, args, kwargs, m):
            tr.counts["operators.matrix.bytes"] += m.shape[0] * m.shape[1] * m.itemsize

        p.attribute(operators.ActionTable, "matrix_for", lambda fn: tr.wrap(
            fn, "operators.matrix_for", after=matrix_after))

        def matvec_before(args, kwargs):
            if tr.inside("diagnostics.scan"):
                tr.counts["diagnostics.scan.ratios"] += 1

        p.attribute(operators.ActionTable, "matvec_int", lambda fn: tr.wrap(
            fn, "operators.matvec_int", span=False, before=matvec_before))

        def tsv_after(_, args, kwargs, result):
            tr.counts["operators.spectral.iterations"] += result[1]
            if not result[3]:
                tr.counts["operators.spectral.unconverged"] += 1

        p.function(operators, "top_singular_value", lambda fn: tr.wrap(
            fn, "operators.top_singular_value", after=tsv_after))

        def block_before(args, kwargs):
            shape = np.shape(args[0])
            if 0 in shape:
                return
            tr.counts["jolissaint.blocks.svd" if max(shape) <= 64
                      else "jolissaint.blocks.power"] += 1

        p.function(operators, "block_operator_norm", lambda fn: tr.wrap(
            fn, "operators.block_operator_norm", before=block_before))

        p.function(diagnostics, "haagerup_scan_exact",
                   lambda fn: tr.wrap(fn, "diagnostics.scan"))
        p.function(jolissaint, "corner_seminorm",
                   lambda fn: tr.wrap(fn, "jolissaint.corner"))
        p.function(cli, "main", lambda fn: tr.wrap(fn, "cli.command"))

    def uninstall(self):
        self._patches.restore()

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer values of this iteration, keyed like BENCHMARK.json."""
        c, tot, slf, k = self.calls, self.total, self.self_s, self.counts
        dec_size = sum(len(pr.decompose_cache) for pr in self.pairs)
        act_size = sum(len(pr.action_cache) for pr in self.pairs)
        probes = k["algebra.action_cache.probes"]
        cached = k["cosets.decompose.cached_calls"]
        power = k["jolissaint.blocks.power"]
        return {
            "groups.mul.calls": k["groups.mul"],
            "pairs.coset_rep.calls": c["pairs.coset_rep"],
            "pairs.coset_rep.s": tot["pairs.coset_rep"],
            "pairs.double_rep.calls": c["pairs.double_rep"],
            "pairs.double_rep.s": tot["pairs.double_rep"],
            "pairs.build_pair.s": tot["pairs.build_pair"],
            "cosets.decompose.calls": c["cosets.decompose"],
            "cosets.decompose.s": tot["cosets.decompose"],
            "cosets.decompose_cache.hit_ratio":
                k["cosets.decompose.hits"] / cached if cached else 0.0,
            "cosets.decompose_cache.size": dec_size,
            "cosets.enumerate_ball.s": tot["cosets.enumerate_ball"],
            "cosets.ball.right_size": k["cosets.ball.right_size"],
            "algebra.convolve.calls": c["algebra.convolve"],
            "algebra.convolve.self_s": slf["algebra.convolve"],
            "algebra.apply_regular_rep.self_s": slf["algebra.apply_regular_rep"],
            "algebra.action_cache.probes": probes,
            # pairs are built fresh each iteration, so every entry is one miss
            "algebra.action_cache.hit_ratio": 1.0 - act_size / probes if probes else 0.0,
            "algebra.action_cache.size": act_size,
            "operators.action_table.s": tot["operators.action_table"],
            "operators.action_table.entries": k["operators.action_table.entries"],
            "operators.matvec_int.calls": c["operators.matvec_int"],
            "operators.matvec_int.s": tot["operators.matvec_int"],
            "operators.matrix_for.s": tot["operators.matrix_for"],
            "operators.matrix.bytes": k["operators.matrix.bytes"],
            # a power-iteration block calls top_singular_value inside
            # block_operator_norm; count and time each solve once
            "operators.spectral.calls":
                c["operators.block_operator_norm"] + c["operators.top_singular_value"] - power,
            "operators.spectral.s":
                slf["operators.block_operator_norm"] + tot["operators.top_singular_value"],
            "operators.spectral.iterations": k["operators.spectral.iterations"],
            "operators.spectral.unconverged": k["operators.spectral.unconverged"],
            "diagnostics.scan.ratios": k["diagnostics.scan.ratios"],
            "diagnostics.scan.self_s": slf["diagnostics.scan"],
            "jolissaint.corner.calls": c["jolissaint.corner"],
            "jolissaint.corner.self_s": slf["jolissaint.corner"],
            "jolissaint.blocks.svd": k["jolissaint.blocks.svd"],
            "jolissaint.blocks.power": power,
            "cli.command.self_s": slf["cli.command"],
        }
