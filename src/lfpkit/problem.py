"""Problem data for maximizing a ratio of affine functions over Ax <= b, x >= 0.

The model is

    max (c.x + alpha) / (d.x + beta)   over  X = {x | Ax <= b, x >= 0},

and the standing assumptions are that X is non-empty and bounded and that the
denominator is positive everywhere on X.  `validate_denominator` checks the
last assumption constructively with a single LP solve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, InfeasibleRegion, NonpositiveDenominator, ParseError,
                     UnboundedValidation)
from .lp import LinearProgram, Sense, SolveStatus, SolverOptions, _check_finite, _frozen, _solved, _vector

__all__ = [
    "LFPProblem",
    "PrimalPoint",
    "DualPoint",
    "evaluate_objective",
    "validate_denominator",
    "parse_problem",
    "load_problem",
]


@dataclass(frozen=True)
class LFPProblem:
    """Coefficients of the ratio objective and of the constraint region."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        A = _frozen(self.A, ndmin=2)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionError("A must be a matrix with at least one row and one column")
        m, n = A.shape
        b, c, d = (_vector(name, getattr(self, name), DimensionError) for name in ("b", "c", "d"))
        if b.size != m:
            raise DimensionError(f"b has {b.size} entries, A has {m} rows")
        if c.size != n or d.size != n:
            raise DimensionError(f"c and d must have {n} entries to match A's columns")
        arrays = {"A": A, "b": b, "c": c, "d": d}
        _check_finite(arrays)
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        alpha, beta = float(self.alpha), float(self.beta)
        if not math.isfinite(alpha) or not math.isfinite(beta):
            raise ValueError("alpha and beta must be finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class PrimalPoint:
    """A point x of the constraint region together with its row slacks u = b - Ax."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        for name in ("x", "u"):
            object.__setattr__(self, name, _vector(name, getattr(self, name)))

    @classmethod
    def from_x(cls, problem: LFPProblem, x) -> "PrimalPoint":
        x = np.asarray(x, dtype=float)
        return cls(x, problem.b - problem.A @ x)


@dataclass(frozen=True)
class DualPoint:
    """Multipliers y >= 0, the scalar dual objective z, and dual slacks v >= 0.

    Feasibility means A'y + d z - v = c and -b.y + beta z = alpha.
    """

    y: np.ndarray
    z: float
    v: np.ndarray

    def __post_init__(self):
        for name in ("y", "v"):
            object.__setattr__(self, name, _vector(name, getattr(self, name)))
        object.__setattr__(self, "z", float(self.z))

    @classmethod
    def from_yz(cls, problem: LFPProblem, y, z: float) -> "DualPoint":
        y = np.asarray(y, dtype=float)
        return cls(y, z, problem.A.T @ y + problem.d * z - problem.c)


def evaluate_objective(problem: LFPProblem, x) -> float:
    """Value of the ratio objective at x.

    Raises NonpositiveDenominator when d.x + beta is not safely positive,
    which on a valid problem means x lies outside the region where the model
    is defined.
    """
    x = np.asarray(x, dtype=float)
    den = float(problem.d @ x + problem.beta)
    if den <= SolverOptions.feas_tol:
        raise NonpositiveDenominator(f"denominator {den:g} is not positive")
    return float(problem.c @ x + problem.alpha) / den


def validate_denominator(problem: LFPProblem, opts: SolverOptions = SolverOptions()) -> float:
    """Global minimum of d.x + beta over the constraint region (one LP solve).

    A return value <= feas_tol means the positivity assumption fails.  Raises
    InfeasibleRegion when the region is empty and UnboundedValidation when the
    denominator can be driven to -inf.
    """
    lp = LinearProgram(Sense.MINIMIZE, problem.d, A_ub=problem.A, b_ub=problem.b)
    out = _solved("denominator", lp, opts, {
        SolveStatus.INFEASIBLE: InfeasibleRegion("the constraint region is empty"),
        SolveStatus.UNBOUNDED: UnboundedValidation("the denominator has no lower bound on the region"),
    })
    return float(out.objective + problem.beta)


def _as_number(value, where: str) -> float:
    # JSON numbers decode to int or float; bool is an int but no number here.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number, got {value!r}")
    try:
        num = float(value)
    except OverflowError:  # an integer literal beyond the float range
        num = math.inf
    if not math.isfinite(num):
        raise ValueError(f"{where} must be finite, got {num!r}")
    return num


def _as_array(raw, key: str) -> np.ndarray:
    """`raw`, a list of numbers (or, for A, a list of rows of them), as a float array.

    One pass checks the entry types (exactly int or float, as JSON decodes a
    number) and finiteness; only where that fails are the entries scanned
    one by one, so that `_as_number` names the first bad one.
    """
    rows = raw if key == "A" else [raw]
    types = set()
    for row in rows:
        types.update(map(type, row))
    if types <= {int, float}:
        try:
            array = np.array(raw, dtype=float)
        except OverflowError:  # an integer literal beyond the float range
            pass
        else:
            if np.isfinite(array).all():
                return array
    if key == "A":
        return np.array([[_as_number(v, f"A[{i}][{j}]") for j, v in enumerate(row)]
                         for i, row in enumerate(raw)], dtype=float)
    return np.array([_as_number(v, f"{key}[{i}]") for i, v in enumerate(raw)], dtype=float)


def _unique_keys(pairs) -> dict:
    # json.loads would keep the last of a repeated key; a problem document must not repeat one.
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"key {key!r} appears more than once")
        doc[key] = value
    return doc


def parse_problem(text: bytes | str) -> LFPProblem:
    """Build a validated problem from its JSON document.

    The document carries keys A (row-major matrix), b, c, d, alpha and beta;
    see the command-line reference in the README for the exact layout.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"problem file is not UTF-8: {exc}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply to decode") from None
    if not isinstance(doc, dict):
        raise ParseError("problem document must be a JSON object")
    missing = [k for k in ("A", "b", "c", "d", "alpha", "beta") if k not in doc]
    if missing:
        raise ParseError(f"problem document lacks key(s): {', '.join(missing)}")

    raw_A = doc["A"]
    if not isinstance(raw_A, list) or not raw_A or not all(isinstance(r, list) for r in raw_A):
        raise ParseError("A must be a non-empty list of rows")
    widths = {len(r) for r in raw_A}
    if len(widths) != 1:
        raise DimensionError(f"rows of A have differing lengths: {sorted(widths)}")
    A = _as_array(raw_A, "A")

    def vector(key):
        raw = doc[key]
        if not isinstance(raw, list):
            raise ParseError(f"{key} must be a list of numbers")
        return _as_array(raw, key)

    return LFPProblem(
        A=A,
        b=vector("b"),
        c=vector("c"),
        d=vector("d"),
        alpha=_as_number(doc["alpha"], "alpha"),
        beta=_as_number(doc["beta"], "beta"),
    )


def load_problem(path) -> LFPProblem:
    """parse_problem on the contents of a file."""
    with open(path, "rb") as handle:
        return parse_problem(handle.read())
