"""Command line interface: run operator tasks described by a JSON problem file.

The problem file names a finite Blaschke product and a list of tasks:

    {
      "u": {"zeros": [[0.5, 0.0], [0.0, -0.3]], "rotation": [1.0, 0.0]},
      "tasks": [
        {"kind": "classify", "operator": {"matrix": [[[0,0],[2,0]], [[1,0],[0,0]]]}},
        {"kind": "is_tto",   "operator": {"symbol": {"analytic": [[0,0],[1,0]]}}},
        {"kind": "clark",    "alpha": [1.0, 0.0]},
        {"kind": "verify_all"}
      ]
    }

Complex numbers are [real, imag] pairs throughout; matrices are row-major
n x n arrays of such pairs, and symbols use the same layout as the library's
symbol JSON (coordinates in the orthonormal basis of K_u).  Reports are JSON
on stdout by default, deterministic for fixed inputs: keys sorted, floats
printed through 15 significant digits.  --text switches to a human-readable
rendering.  Exit status 0 means every task ran and every check passed, 1
means some verification failed, 2 means the problem file or an option is
invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .blaschke import BlaschkeProduct, complex_pair
from .classification import classify_type
from .crofoot_clark import clark_data
from .errors import NotATTO, SchemaError, TTOLabError
from .model_space import ModelSpace
from .tolerances import ON_CIRCLE_TOL
from .tto import SymbolExpr, build_tto, is_tto, symbol_from_json
from .verify import verify_space

KINDS = ("classify", "is_tto", "clark", "verify_all")


def _normalize(obj):
    """Round floats to 15 significant digits and strip numpy types for JSON."""
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return float(f"{x:.15g}") if math.isfinite(x) else repr(x)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_normalize(obj.real), _normalize(obj.imag)]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_normalize(obj), sort_keys=True, indent=2)


def load_problem(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            problem = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(problem, dict):
        raise SchemaError("problem file must hold a JSON object")
    if "u" not in problem or "tasks" not in problem:
        raise SchemaError('problem file needs "u" and "tasks" entries')
    if not isinstance(problem["tasks"], list) or not problem["tasks"]:
        raise SchemaError('"tasks" must be a non-empty list')
    if "output" in problem and not (isinstance(problem["output"], str) and problem["output"]):
        raise SchemaError(f'"output" must be a non-empty path string, got {problem["output"]!r}')
    return problem


def parse_blaschke(obj) -> BlaschkeProduct:
    if not isinstance(obj, dict) or "zeros" not in obj:
        raise SchemaError('"u" must be an object with a "zeros" list')
    zeros_raw = obj["zeros"]
    if not isinstance(zeros_raw, list) or not zeros_raw:
        raise SchemaError('"u.zeros" must be a non-empty list of [real, imag] pairs')
    zeros = [complex_pair(z, "zero") for z in zeros_raw]
    rotation = complex_pair(obj.get("rotation", [1.0, 0.0]), "rotation")
    try:
        return BlaschkeProduct(tuple(zeros), rotation)
    except (ValueError, TTOLabError) as exc:
        raise SchemaError(f"invalid Blaschke product: {exc}") from exc


def parse_operator(space: ModelSpace, obj) -> np.ndarray:
    if not isinstance(obj, dict) or ("matrix" in obj) == ("symbol" in obj):
        raise SchemaError('operator needs exactly one of "matrix" or "symbol"')
    if "matrix" in obj:
        raw = obj["matrix"]
        n = space.dim
        if (not isinstance(raw, list) or len(raw) != n
                or any(not isinstance(row, list) or len(row) != n for row in raw)):
            raise SchemaError(f"matrix must be {n} x {n} for this model space")
        mat = np.array([[complex_pair(e, "matrix entry") for e in row]
                        for row in raw])
        return mat
    try:
        symbol = symbol_from_json(space, obj["symbol"])
        return build_tto(space, symbol).mat
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"invalid symbol object: {exc}") from exc


def run_task(space: ModelSpace, task, args) -> tuple[dict, bool]:
    """Execute one task; returns (result json, passed)."""
    if not isinstance(task, dict) or task.get("kind") not in KINDS:
        raise SchemaError(f'task "kind" must be one of {KINDS}')
    kind = task["kind"]
    if kind == "classify":
        try:
            tag = classify_type(space, parse_operator(space, task.get("operator")))
        except NotATTO as exc:
            return {"kind": kind, "result": {"type": "not_a_tto",
                                             "detail": str(exc)}}, True
        return {"kind": kind, "result": tag.to_json()}, True
    if kind == "is_tto":
        mat = parse_operator(space, task.get("operator"))
        dec = is_tto(space, mat)
        result = {"passed": dec.passed, "residual": dec.residual, "tol": dec.tol}
        if dec.passed:
            result["symbol"] = SymbolExpr(analytic=dec.phi, coanalytic=dec.psi).to_json()
        return {"kind": kind, "result": result}, True
    if kind == "clark":
        if "alpha" not in task:
            raise SchemaError('clark task needs an "alpha" entry')
        alpha = complex_pair(task["alpha"], "alpha")
        if abs(abs(alpha) - 1.0) > ON_CIRCLE_TOL:
            raise SchemaError(f"clark alpha must be unimodular, got |alpha| = {abs(alpha):.12g}")
        return {"kind": kind, "result": clark_data(space, alpha).to_json()}, True
    report = verify_space(space, seed=args.seed, trials=args.trials,
                          tol_scale=args.tol_scale)
    return {"kind": kind, "result": report.to_json()}, report.passed


def format_text(report: dict) -> str:
    lines = [f"u: zeros={report['u']['zeros']} rotation={report['u']['rotation']}"]
    for entry in report["results"]:
        kind, result = entry["kind"], entry["result"]
        if kind == "classify":
            lines.append(f"classify: type={result['type']} value={result.get('value')}")
        elif kind == "is_tto":
            lines.append(f"is_tto: passed={result['passed']}"
                         f" residual={result['residual']:.3e}")
        elif kind == "clark":
            pts = ", ".join(f"{p[0]:+.6f}{p[1]:+.6f}j" for p in result["points"])
            lines.append(f"clark: alpha={result['alpha']} mass={result['total_mass']:.12g}")
            lines.append(f"  points: {pts}")
            lines.append(f"  weights: {[float(f'{w:.12g}') for w in result['weights']]}")
        else:
            lines.append(f"verify_all: passed={result['passed']}"
                         f" seed={result['seed']} trials={result['trials']}")
            for check in result["checks"]:
                mark = "pass" if check["passed"] else "FAIL"
                lines.append(
                    f"  [{mark}] {check['name']:<34} max_residual="
                    f"{check['max_residual']:.3e} bound={check['bound']:.1e}"
                    f" trials={check['trials']}")
                if not check["passed"]:
                    lines.append(f"         {check['note']}")
    lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ttolab",
        description="Truncated Toeplitz operator laboratory on finite model spaces.")
    parser.add_argument("--input", required=True, help="JSON problem file")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for verify_all sampling (default 0)")
    parser.add_argument("--trials", type=int, default=50,
                        help="random trials per verify_all check (default 50)")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="uniform multiplier on verify_all bounds (default 1.0)")
    parser.add_argument("--text", action="store_true",
                        help="human-readable report instead of JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    if not 0.0 < args.tol_scale <= sys.float_info.max:
        parser.error(f"--tol-scale must be finite and positive, got {args.tol_scale}")

    try:
        problem = load_problem(args.input)
        u = parse_blaschke(problem["u"])
        space = ModelSpace(u)
        results = []
        all_passed = True
        for task in problem["tasks"]:
            entry, passed = run_task(space, task, args)
            results.append(entry)
            all_passed = all_passed and passed
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TTOLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    report = {
        "u": u.to_json(),
        "seed": args.seed,
        "trials": args.trials,
        "tol_scale": args.tol_scale,
        "passed": all_passed,
        "results": results,
    }
    rendered = format_text(report) if args.text else canonical_json(report)
    print(rendered)
    if "output" in problem:
        try:
            with open(problem["output"], "w", encoding="utf-8") as fh:
                fh.write(canonical_json(report) + "\n")
        except OSError as exc:
            print(f"error: cannot write output file: {exc}", file=sys.stderr)
            return 2
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
