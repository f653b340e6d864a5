"""Line-oriented problem files.

A file has up to four sections.  Keys are `name = value`, one per
line; blank lines and lines starting with # are skipped.

    [problem]
    n = 2
    # optional, needed by optcheck
    objective = -x1 + x2
    # equality and inequality lines are repeatable
    equality = abs(x1) - abs(x2)
    inequality = x1

    [params]
    p = 1.0

    [point]
    x = 0 0

    [check]
    K = 2.0
    r = 0.5
    grid = 21
    target_grid = 11
    c = 0.5 1 2
    scan_radius = 1.0
    budget = 1000000

At most MAX_CONSTRAINTS equality and inequality lines are accepted.
Every number must be finite and within the range _RANGES sets for its
key; check_numbers holds the CLI's --target and --dir values to the
same finiteness.  Every diagnostic of a file line carries its 1-based
line number so fixtures stay diff-friendly and errors stay greppable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expressions import Expr, ExpressionError, parse_expression
from .optimality import ProgramSpec
from .regularity import SystemSpec

_SECTIONS = ("problem", "params", "point", "check")
_PROBLEM_KEYS = ("n", "objective", "equality", "inequality")
_CHECK_SCALAR = {"k": float, "r": float, "scan_radius": float,
                 "grid": int, "target_grid": int, "budget": int}
_POSITIVE = ("positive", lambda v: v > 0)
_AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
_ODD = ("odd", lambda v: v % 2 == 1)
_NONNEGATIVE = (">= 0", lambda v: v >= 0)
# The range of each number by key, checked in order.
_RANGES = {"k": (_POSITIVE,), "r": (_POSITIVE,), "scan_radius": (_POSITIVE,),
           "budget": (_AT_LEAST_ONE,), "grid": (_AT_LEAST_ONE, _ODD),
           "target_grid": (_AT_LEAST_ONE, _ODD), "c": (_NONNEGATIVE,)}
# The penalty and psi fold one Add level per constraint, so the cap keeps
# their trees, with each term at most MAX_DEPTH deep, within recursion
# limits.
MAX_CONSTRAINTS = 200


class ProblemFileError(ValueError):
    """Parse or validation failure, pointing at a file line."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CheckSettings:
    """Optional [check] knobs; commands fall back to their defaults."""

    k: Optional[float] = None
    r: Optional[float] = None
    grid: Optional[int] = None
    target_grid: Optional[int] = None
    scan_radius: Optional[float] = None
    budget: Optional[int] = None
    c: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class ProblemFile:
    n: int
    objective: Optional[Expr]
    equalities: tuple[Expr, ...]
    inequalities: tuple[Expr, ...]
    params: dict
    point: Optional[np.ndarray]
    check: CheckSettings = field(default_factory=CheckSettings)

    def system(self) -> SystemSpec:
        return SystemSpec(self.n, self.equalities, self.inequalities,
                          dict(self.params))

    def program(self) -> ProgramSpec:
        if self.objective is None:
            raise ProblemFileError("this check needs an objective = line "
                                   "in [problem]")
        return ProgramSpec(self.n, self.objective, self.equalities,
                           self.inequalities, dict(self.params))


def check_numbers(name: str, vals, text: str,
                  lineno: Optional[int] = None):
    """vals, given as text for name (a key or a --flag), or a
    ProblemFileError when one is inf or nan (1e400 parses as inf) or out
    of the range _RANGES sets for the key."""
    # an int is finite at any size, also beyond what numpy or float takes
    if not all(isinstance(v, int) or math.isfinite(v) for v in vals):
        raise ProblemFileError(f"{name} must be finite, got {text!r}", lineno)
    for rule, holds in _RANGES.get(name, ()):
        if not all(holds(v) for v in vals):
            raise ProblemFileError(f"{name} must be {rule}, got {text!r}",
                                   lineno)
    return vals


def _floats(value: str, lineno: int, key: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in value.split())
    except ValueError:
        raise ProblemFileError(f"{key} expects numbers separated by spaces, "
                               f"got {value!r}", lineno) from None
    return check_numbers(key, vals, value, lineno)


def _entries(text: str) -> dict[str, list[tuple[int, str, str]]]:
    """Split into per-section (lineno, key, value) lists."""
    out: dict[str, list[tuple[int, str, str]]] = {s: [] for s in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ProblemFileError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if "=" not in line:
            raise ProblemFileError("expected key = value", lineno)
        if section is None:
            raise ProblemFileError("key before any [section] header", lineno)
        key, _, value = line.partition("=")
        out[section].append((lineno, key.strip().lower(), value.strip()))
    return out


def loads(text: str) -> ProblemFile:
    entries = _entries(text)

    n = None
    for lineno, key, value in entries["problem"]:
        if key == "n":
            if n is not None:
                raise ProblemFileError("duplicate n", lineno)
            try:
                n = int(value)
            except ValueError:
                raise ProblemFileError(f"n must be an integer, got {value!r}",
                                       lineno) from None
            if n < 1:
                raise ProblemFileError("n must be >= 1", lineno)
        elif key not in _PROBLEM_KEYS:
            raise ProblemFileError(f"unknown [problem] key {key!r}", lineno)
    if n is None:
        raise ProblemFileError("missing n = <dim> in [problem]")

    objective = None
    equalities: list[Expr] = []
    inequalities: list[Expr] = []
    for lineno, key, value in entries["problem"]:
        if key == "n":
            continue
        try:
            e = parse_expression(value, n)
        except ExpressionError as err:
            raise ProblemFileError(f"{key}: {err}", lineno) from err
        if key == "objective":
            if objective is not None:
                raise ProblemFileError("duplicate objective", lineno)
            objective = e
        elif len(equalities) + len(inequalities) == MAX_CONSTRAINTS:
            raise ProblemFileError(f"more than {MAX_CONSTRAINTS} "
                                   "constraints", lineno)
        elif key == "equality":
            equalities.append(e)
        else:
            inequalities.append(e)

    params: dict[str, float] = {}
    for lineno, key, value in entries["params"]:
        if key in params:
            raise ProblemFileError(f"duplicate parameter {key!r}", lineno)
        try:
            params[key] = float(value)
        except ValueError:
            raise ProblemFileError(f"parameter {key} must be a number, "
                                   f"got {value!r}", lineno) from None
        check_numbers(f"parameter {key}", (params[key],), value, lineno)

    point = None
    for lineno, key, value in entries["point"]:
        if key != "x":
            raise ProblemFileError(f"unknown [point] key {key!r}", lineno)
        if point is not None:
            raise ProblemFileError("duplicate x", lineno)
        vals = _floats(value, lineno, "x")
        if len(vals) != n:
            raise ProblemFileError(f"x needs {n} coordinates, got {len(vals)}",
                                   lineno)
        point = np.array(vals)

    fields: dict = {}
    for lineno, key, value in entries["check"]:
        if key in fields:
            raise ProblemFileError(f"duplicate [check] key {key!r}", lineno)
        if key in _CHECK_SCALAR:
            caster = _CHECK_SCALAR[key]
            try:
                fields[key] = caster(value)
            except ValueError:
                raise ProblemFileError(
                    f"{key} must be {'an integer' if caster is int else 'a number'}, "
                    f"got {value!r}", lineno) from None
            check_numbers(key, (fields[key],), value, lineno)
        elif key == "c":
            fields[key] = _floats(value, lineno, key)
            if not fields[key]:
                raise ProblemFileError("c needs at least one number", lineno)
        else:
            raise ProblemFileError(f"unknown [check] key {key!r}", lineno)

    return ProblemFile(n, objective, tuple(equalities), tuple(inequalities),
                       params, point, CheckSettings(**fields))


def load(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ProblemFileError(f"cannot read {path}: {e.strerror}") from e
    return loads(text)
