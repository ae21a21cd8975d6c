"""The three seeded workloads and the check of every output they produce.

A workload is a list of requests, generated before timing starts.  A request
is one timed call into ttolab together with an independent check of its
output (``oracle``), and, for the inputs that hit a kept fault, the fault's
name.  The timed loop runs the same list of requests round after round.

battery      the ``ttolab`` CLI (``cli.main``, in-process) running
             ``verify_all`` on z^4 and on random-zero spaces of degree 8, 16
             and 32.  One request is one space's report; one operation is one
             of the battery's checks.
queries      a seeded stream of single library calls on prebuilt spaces of
             degree 16 and 64: cheap decisions, constructions and a few
             spectral calls.
hard-spaces  ModelSpace construction, solve_equals, clark_data, crofoot and
             classify_type on repeated, clustered, near-circle and high-degree
             zero families.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

import ttolab
from ttolab import classification, cli, crofoot_clark, model_space, sampling, tto

# Latency percentile reported as op_tail_ms: the highest one that keeps at
# least ten samples beyond it in every run (see README for the counts).
TAIL_PERCENTILE = {"battery": 75.0, "queries": 99.5, "hard-spaces": 99.0}

BATTERY_TRIALS = 4


@dataclass
class Outcome:
    """Judgement of one request's output."""

    passed: int
    failed: int
    margins: list = field(default_factory=list)
    wrong: list = field(default_factory=list)


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    fault: str | None = None
    ops: int = 1
    judge: Callable[[object], Outcome] | None = None

    def outcome(self, out, err) -> Outcome:
        """Score a result: raised, wrong on a kept fault, wrong, or passed."""
        if err is not None:
            return Outcome(0, self.ops)
        if self.judge is not None:
            return self.judge(out)
        items = self.check(out)
        bad = [label for label, value, bound in items
               if (not value if bound is None else not value <= bound)]
        if not bad:
            margins = [oracle.margin_digits(value, bound)
                       for _label, value, bound in items if bound is not None]
            return Outcome(1, 0, margins)
        if self.fault is not None:
            return Outcome(0, 1)
        return Outcome(0, 1, wrong=[f"{self.kind}: {', '.join(bad)}"])


# -- inputs -------------------------------------------------------------------


def random_zeros(rng, degree, radius=0.75):
    """Area-uniform zeros in |z| < radius, then a unimodular rotation.

    Draws in the same order as ``sampling.sample_blaschke``, so
    ``random_zeros(default_rng(64), 64)`` is the degree-64 product the
    ROADMAP measures.
    """
    zeros = []
    for _ in range(degree):
        r = np.sqrt(rng.uniform(0.0, radius ** 2))
        zeros.append(complex(r * np.exp(2j * np.pi * rng.uniform())))
    rotation = complex(np.exp(2j * np.pi * rng.uniform()))
    return tuple(zeros), rotation


def make_u(zeros, rotation=1.0 + 0j):
    return ttolab.BlaschkeProduct(tuple(zeros), rotation)


def circle_point(rng):
    return complex(np.exp(2j * np.pi * rng.uniform()))


def disc_point(rng, radius):
    return complex(np.sqrt(rng.uniform(0.0, radius ** 2)) * np.exp(2j * np.pi * rng.uniform()))


def typed_alpha(rng, k):
    """Rotates through type 0, unimodular, generic finite and infinite types."""
    return (0.0 + 0j, circle_point(rng), disc_point(rng, 2.0), None)[k % 4]


# -- fingerprints for comparing rounds ------------------------------------------


def fingerprint(obj):
    """Plain values standing for an output, for comparing repeated rounds."""
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, (float, complex, np.number, np.ndarray)):
        return np.asarray(obj)
    if isinstance(obj, (tuple, list)):
        return tuple(fingerprint(x) for x in obj)
    if isinstance(obj, ttolab.ModelSpace):
        return (obj.quad_points, obj.basis_values, obj.conj_matrix)
    if isinstance(obj, ttolab.ModelVector):
        return obj.coords
    if hasattr(obj, "mat"):
        return obj.mat
    if dataclasses.is_dataclass(obj):
        return tuple(fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                     if f.name not in ("space", "source", "target"))
    raise TypeError(f"no fingerprint for {type(obj).__name__}")


def same(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        if not isinstance(b, np.ndarray) or a.shape != b.shape:
            return False
        scale = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
        return bool(np.all(np.abs(a - b) <= 1e-12 * scale))
    return a == b


# -- checks -------------------------------------------------------------------


def zeros_of(space_or_u):
    u = getattr(space_or_u, "u", space_or_u)
    return np.asarray(u.zeros, dtype=complex), complex(u.rotation)


def check_roots(u, alpha, roots):
    zeros, rot = zeros_of(u)
    roots = np.asarray(roots, dtype=complex)
    items = [("root count", roots.shape == (len(zeros),), None)]
    if roots.shape != (len(zeros),):
        return items
    items.append(("|u(z) - alpha|", float(np.max(np.abs(
        oracle.u_values(zeros, rot, roots) - alpha))), 1e-9))
    if abs(abs(alpha) - 1.0) < 1e-12:
        items.append(("unimodular roots", float(np.max(np.abs(np.abs(roots) - 1.0))), 1e-8))
    else:
        items.append(("interior roots", bool(np.all(np.abs(roots) < 1.0)), None))
    return items


def check_clark(space, alpha, data):
    zeros, rot = zeros_of(space)
    items = check_roots(space.u, alpha, data.points)
    if not items[0][1]:
        return items
    u0 = complex(oracle.u_values(zeros, rot, np.array([0j]))[0])
    mass = oracle.kernel0_norm2(zeros, rot) / abs(1.0 - np.conj(u0) * alpha) ** 2
    weights = 1.0 / oracle.boundary_derivative_modulus(zeros, data.points)
    v = data.eigenvectors
    items += [
        ("Clark mass identity", abs(float(np.sum(data.weights)) - mass) / mass, 1e-8),
        ("weights 1/|u'|", float(np.max(np.abs(data.weights - weights) / weights)), 1e-8),
        ("orthonormal eigenvectors", float(np.linalg.norm(v.conj().T @ v - np.eye(len(zeros)), 2)),
         1e-8),
    ]
    return items


def check_crofoot(space, alpha, transform):
    zeros, rot = zeros_of(space)
    src_zeros, _ = zeros_of(transform.source)
    n = len(zeros)
    items = [("source degree", len(src_zeros) == n, None)]
    if len(src_zeros) != n:
        return items
    mat = transform.mat
    items += [
        ("unitary", float(np.linalg.norm(mat.conj().T @ mat - np.eye(n), 2)), 1e-9),
        ("source zeros solve u = alpha",
         float(np.max(np.abs(oracle.u_values(zeros, rot, src_zeros) - alpha))), 1e-9),
    ]
    return items


def check_tag(tag, alpha):
    """A typed operator must classify as the type it was built with."""
    if alpha is None:
        return [("type infinity", tag.kind == "infinity", None)]
    if tag.kind != "alpha":
        return [(f"type alpha, got {tag.kind}", False, None)]
    return [("type value", abs(tag.value - alpha) / (1.0 + abs(alpha)), 1e-6)]


def check_space(space):
    zeros, _ = zeros_of(space)
    n_pts = space.quad_points
    basis = oracle.tm_basis(zeros, oracle.circle(n_pts))
    gram = basis.conj() @ basis.T / n_pts
    m = space.conj_matrix
    eye = np.eye(len(zeros))
    return [
        ("grid is a power of two", n_pts > 0 and n_pts & (n_pts - 1) == 0, None),
        ("basis table", float(np.max(np.abs(space.basis_values - basis))), 1e-12),
        ("Gram identity", float(np.max(np.abs(gram - eye))), 1e-10),
        ("conjugation symmetric", float(np.linalg.norm(m - m.T, 2)), 1e-10),
        ("conjugation involutive", float(np.linalg.norm(m @ m.conj() - eye, 2)), 1e-10),
    ]


class ShiftOracle:
    """Reference S_alpha per (space, alpha), computed on twice the space's grid."""

    def __init__(self):
        self._cache = {}

    def __call__(self, space, alpha):
        key = (id(space), complex(alpha))
        if key not in self._cache:
            zeros, rot = zeros_of(space)
            self._cache[key] = oracle.generalized_shift(zeros, rot, alpha, 2 * space.quad_points)
        return self._cache[key]


# -- battery --------------------------------------------------------------------


def battery(seed, out_dir):
    """Five CLI reports per round; the degree-32 one holds a kept fault.

    z^4 and degree 8 take their zeros and their verify seed from ``seed``.
    The two degree-16 reports are fixed: the median and the p75 tail fall
    among them (two put both inside one cluster of latencies rather than on
    the edge between two), and with seeded inputs their cost moved by 10%
    with the seed through the refinement steps of the fraction checks.  The
    degree-32 space and its verify seed are fixed because its
    fraction_reduction failure (3.5e-9 against 1e-10 at seed 0 and 20 trials,
    1.5e-9 here) appears on some seeds and not on others.
    """
    problems = [
        ("z4", (0j,) * 4, 1.0 + 0j, seed, None),
        ("deg8", *random_zeros(np.random.default_rng([seed, 8]), 8), seed, None),
        ("deg16a", *random_zeros(np.random.default_rng(16), 16), 0, None),
        ("deg16b", *random_zeros(np.random.default_rng(17), 16), 1, None),
        ("deg32", *random_zeros(np.random.default_rng(32), 32), 2, "fraction_reduction"),
    ]
    names = [name for name, _bound, _meth in ttolab.verify.CHECKS]
    requests = []
    for label, zeros, rotation, verify_seed, fault in problems:
        path = out_dir / f"problem-{label}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"u": {"zeros": [[z.real, z.imag] for z in zeros],
                             "rotation": [rotation.real, rotation.imag]},
                       "tasks": [{"kind": "verify_all"}]}, fh)
        argv = ["--input", str(path), "--seed", str(verify_seed),
                "--trials", str(BATTERY_TRIALS)]
        requests.append(Request(
            kind=f"cli.main/{label}", call=_cli_call(argv), check=None,
            fault=fault, ops=len(names), judge=_battery_judge(names, label)))
    return requests


def _cli_call(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    return call


def _battery_judge(names, label):
    """The report must be self-consistent, name every registered check once, and
    agree with its exit status; failed checks count as failed operations."""

    def judge(out):
        code, text = out
        wrong = []
        report = json.loads(text)
        result = report["results"][0]["result"]
        checks = result["checks"]
        if [c["name"] for c in checks] != names:
            wrong.append(f"{label}: checks differ from the registry")
        passed = failed = 0
        margins = []
        for c in checks:
            residual = float(c["max_residual"])
            if c["passed"] != (residual <= c["bound"]):
                wrong.append(f"{label}: {c['name']} verdict disagrees with its residual")
            if c["passed"]:
                passed += 1
                margins.append(oracle.margin_digits(residual, c["bound"]))
            else:
                failed += 1
        all_passed = failed == 0
        if report["passed"] != all_passed or result["passed"] != all_passed:
            wrong.append(f"{label}: overall verdict disagrees with its checks")
        if code != (0 if all_passed else 1):
            wrong.append(f"{label}: exit status {code} disagrees with the report")
        if result["trials"] != BATTERY_TRIALS:
            wrong.append(f"{label}: trials not echoed")
        return Outcome(passed, failed, margins, wrong)

    return judge


def battery_failed_checks(out):
    """Names of the failed checks in one battery report."""
    checks = json.loads(out[1])["results"][0]["result"]["checks"]
    return sorted(c["name"] for c in checks if not c["passed"])


# -- queries ----------------------------------------------------------------------


# Requests per round for each space degree.  The counts fix where the median
# and the tail fall.  The 58 degree-64 membership and type decisions form one
# cluster of latencies (about 1.5 ms); the median falls 43% of the way into it,
# clear of the degree-16 products, inverses and solves that overlap its lower
# edge.  Where it fell on that edge, a faster or slower phase of a shared core
# reordered the two groups and moved the median by 25%.  The tail falls inside
# the degree-64 fraction-symbol builds.
QUERY_MIX = {
    16: {"is_tto": 4, "is_tto_reject": 2, "classify_type": 6, "product_same": 3,
         "product_mixed": 3, "inverse_typed": 3, "inverse_untyped": 1, "build_tto": 4,
         "generalized_shift": 2, "fraction": 3, "solve_interior": 3,
         "solve_boundary": 3, "clark_data": 3, "crofoot": 3},
    64: {"is_tto": 20, "is_tto_reject": 4, "classify_type": 34, "product_same": 3,
         "product_mixed": 3, "inverse_typed": 3, "inverse_untyped": 1, "build_tto": 8,
         "generalized_shift": 4, "fraction": 3},
}


def queries(seed, out_dir):
    del out_dir
    rng = np.random.default_rng([seed, 0x9E])
    shift_ref = ShiftOracle()
    requests = []
    for degree, mix in QUERY_MIX.items():
        zeros, rotation = random_zeros(np.random.default_rng([seed, degree]), degree)
        space = ttolab.ModelSpace(make_u(zeros, rotation))
        for kind, count in mix.items():
            for k in range(count):
                requests.append(_query(kind, k, space, rng, shift_ref))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def _query(kind, k, space, rng, shift_ref):
    n = space.dim
    tag = f"{kind}/{n}"
    if kind in ("is_tto", "is_tto_reject"):
        a = sampling.sample_tto(space, rng).mat
        if kind == "is_tto_reject":
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = a + 1e-3 * np.linalg.norm(a, 2) * g / np.linalg.norm(g, 2)

            def check(dec):
                return [("rejected", not dec.passed, None),
                        ("residual above threshold", dec.tol / dec.residual, 1.0)]
        else:
            def check(dec):
                return [("accepted", dec.passed, None), ("defect residual", dec.residual, dec.tol)]
        return Request(tag, lambda: tto.is_tto(space, a), check)
    if kind == "classify_type":
        alpha = typed_alpha(rng, k)
        a = sampling.sample_typed_tto(space, rng, alpha).mat
        return Request(tag, lambda: classification.classify_type(space, a),
                       lambda t: check_tag(t, alpha))
    if kind in ("product_same", "product_mixed"):
        alpha = typed_alpha(rng, k)
        other = alpha if kind == "product_same" else (
            (alpha if alpha is not None else 0.0) + 1.0 + 0.5j)
        a = sampling.sample_typed_tto(space, rng, alpha).mat
        b = sampling.sample_typed_tto(space, rng, other).mat

        def check(pc):
            if kind == "product_mixed":
                return [("mixed types give not_tto", pc.kind == "not_tto", None)]
            if pc.kind != "both_type":
                return [(f"same types give both_type, got {pc.kind}", False, None)]
            return check_tag(pc.alpha, alpha)
        return Request(tag, lambda: classification.product_classification(space, a, b), check)
    if kind in ("inverse_typed", "inverse_untyped"):
        if kind == "inverse_typed":
            alpha = typed_alpha(rng, k)
            base = sampling.sample_typed_tto(space, rng, alpha)
        else:
            base = sampling.sample_notype_tto(space, rng)
        a = base.mat + 3.0 * max(1.0, base.norm()) * np.eye(n)

        def check(rep):
            if kind == "inverse_untyped":
                return [("untyped inverse leaves the class",
                         rep.consistent and not rep.inverse_is_tto, None)]
            items = [("typed inverse stays in the class", rep.consistent and rep.inverse_is_tto,
                      None)]
            if rep.inverse_tag is not None and rep.inverse_tag.kind == "alpha":
                v = rep.input_tag.value
                items.append(("inverse type", abs(rep.inverse_tag.value - v) / (1.0 + abs(v)),
                              1e-6))
            return items
        return Request(tag, lambda: classification.inverse_type_check(space, a), check)
    if kind == "build_tto":
        sym = sampling.sample_symbol(space, rng)
        zeros, _ = zeros_of(space)

        def check(op):
            ref = oracle.compress(zeros, oracle.standard_symbol_fn(
                zeros, sym.analytic.coords, sym.coanalytic.coords, sym.constant),
                2 * space.quad_points)
            return [("trapezoid at twice the grid", oracle.rel_gap(op.mat, ref), 1e-10)]
        return Request(tag, lambda: tto.build_tto(space, sym), check)
    if kind == "generalized_shift":
        alpha = disc_point(rng, 0.9)
        return Request(tag, lambda: tto.generalized_shift(space, alpha),
                       lambda op: [("reference S_alpha",
                                    oracle.rel_gap(op.mat, shift_ref(space, alpha)), 1e-10)])
    if kind == "fraction":
        coeffs = sampling.sample_polynomial(rng, n - 1)
        alpha = 0.5 * circle_point(rng)
        return Request(
            tag, lambda: crofoot_clark.build_clark_fraction_tto(space, coeffs, alpha),
            lambda op: [("phi(S_alpha)",
                         oracle.rel_gap(op.mat, oracle.horner(coeffs, shift_ref(space, alpha))),
                         1e-10)])
    if kind in ("solve_interior", "solve_boundary"):
        alpha = disc_point(rng, 0.8) if kind == "solve_interior" else circle_point(rng)
        return Request(tag, lambda: space.u.solve_equals(alpha),
                       lambda roots: check_roots(space.u, alpha, roots))
    if kind == "clark_data":
        alpha = circle_point(rng)
        return Request(tag, lambda: crofoot_clark.clark_data(space, alpha),
                       lambda data: check_clark(space, alpha, data))
    if kind == "crofoot":
        alpha = disc_point(rng, 0.6)
        return Request(tag, lambda: crofoot_clark.crofoot(space, alpha),
                       lambda ct: check_crofoot(space, alpha, ct))
    raise ValueError(kind)


# -- hard spaces ------------------------------------------------------------------


def hard_families():
    """The zero families of ROADMAP's robustness aim, all fixed."""
    return {
        "rep0.9x8": ((0.9 + 0j,) * 8, 1.0 + 0j),
        "rep0.5x16": ((0.5 + 0j,) * 16, 1.0 + 0j),
        "cluster12": (tuple(0.7 + 0.05 * np.exp(2j * np.pi * k / 12) for k in range(12)),
                      1.0 + 0j),
        "near0.995x8": (tuple(0.995 * np.exp(2j * np.pi * (k + 0.5) / 8) for k in range(8)),
                        1.0 + 0j),
        "deg64": random_zeros(np.random.default_rng(64), 64),
        "deg128": random_zeros(np.random.default_rng(128), 128),
    }


# Seeded requests per round: (operation, family, count).  Their inputs are drawn
# from the seed; each kind ran on hundreds of draws without a failure.  The
# eight degree-64 classifications put the median latency inside their cluster
# (about 2 ms) rather than on the edge of the sub-millisecond one; the single
# degree-128 clark_data call is where the p99 tail falls.  The unimodular
# degree-64 roots set margin_digits; three draws steady their minimum.
HARD_SEEDED = (
    ("solve_interior", "near0.995x8", 2), ("solve_boundary", "near0.995x8", 1),
    ("solve_interior", "deg64", 2), ("solve_boundary", "deg64", 3),
    ("solve_interior", "deg128", 1), ("solve_boundary", "deg128", 1),
    ("clark_data", "near0.995x8", 2), ("clark_data", "deg128", 1),
    ("classify_type", "rep0.5x16", 2), ("classify_type", "cluster12", 2),
    ("classify_type", "near0.995x8", 2), ("classify_type", "deg64", 8),
    ("classify_type", "deg128", 2),
)

# Requests with fixed inputs.  crofoot's grid for u_alpha swings between 4096
# and 16384 points with the argument of alpha on the near-circle family, so its
# alphas are fixed to keep the cost of a round independent of the seed.  The
# entries with a fault name are the kept faults; each fails on every run.
HARD_FIXED = (
    ("crofoot", "near0.995x8", 0.3 + 0j, None),
    ("crofoot", "deg128", 0.3j, None),
    ("classify_type", "rep0.9x8", 0.0 + 0j, "F1"),
    ("classify_type", "rep0.9x8", 0.5 + 0.2j, "F1"),
    ("clark_data", "deg64", 1.0 + 0j, "F2"),
    ("clark_data", "rep0.5x16", 1j, "F2"),
    ("solve_interior", "rep0.9x8", 0.5 + 0j, "F3"),
    ("solve_boundary", "cluster12", 1.0 + 0j, "F3"),
    ("crofoot", "rep0.5x16", -0.4 + 0j, "F4"),
    ("crofoot", "deg64", 0.5 + 0j, "F4"),
)


def hard_spaces(seed, out_dir):
    del out_dir
    rng = np.random.default_rng([seed, 0x4A2D])
    fixed_rng = np.random.default_rng(9)
    families = hard_families()
    spaces = {name: ttolab.ModelSpace(make_u(z, r)) for name, (z, r) in families.items()}
    requests = [Request(f"ModelSpace/{name}", _space_call(z, r), check_space)
                for name, (z, r) in families.items()]
    for kind, fam, count in HARD_SEEDED:
        for k in range(count):
            requests.append(_hard(kind, fam, spaces[fam], rng, k, None, None))
    for k, (kind, fam, alpha, fault) in enumerate(HARD_FIXED):
        requests.append(_hard(kind, fam, spaces[fam], fixed_rng, k, alpha, fault))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def _space_call(zeros, rotation):
    return lambda: model_space.ModelSpace(make_u(zeros, rotation))


def _hard(kind, fam, space, rng, k, alpha, fault):
    tag = f"{kind}/{fam}"
    if kind in ("solve_interior", "solve_boundary"):
        if alpha is None:
            alpha = disc_point(rng, 0.8) if kind == "solve_interior" else circle_point(rng)
        return Request(tag, lambda: space.u.solve_equals(alpha),
                       lambda roots: check_roots(space.u, alpha, roots), fault)
    if kind == "clark_data":
        if alpha is None:
            alpha = circle_point(rng)
        return Request(tag, lambda: crofoot_clark.clark_data(space, alpha),
                       lambda data: check_clark(space, alpha, data), fault)
    if kind == "crofoot":
        return Request(tag, lambda: crofoot_clark.crofoot(space, alpha),
                       lambda ct: check_crofoot(space, alpha, ct), fault)
    if kind == "classify_type":
        if alpha is None:
            alpha = typed_alpha(rng, k)
        a = sampling.sample_typed_tto(space, rng, alpha).mat
        return Request(tag, lambda: classification.classify_type(space, a),
                       lambda t: check_tag(t, alpha), fault)
    raise ValueError(kind)


BUILDERS = {"battery": battery, "queries": queries, "hard-spaces": hard_spaces}
WORKLOADS = tuple(BUILDERS)


def build(name, seed, out_dir):
    return BUILDERS[name](seed, out_dir)

