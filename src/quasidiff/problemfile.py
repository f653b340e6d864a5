"""Line-oriented problem files.

A file has up to four sections.  Keys are `name = value`, one per
line; blank lines and lines starting with # are skipped.

    [problem]
    n = 2
    objective = -x1 + x2              optional, needed by optcheck
    equality = abs(x1) - abs(x2)      repeatable
    inequality = x1                   repeatable

    [params]
    p = 1.0

    [point]
    x = 0 0

    [check]
    K = 2.0            r = 0.5          grid = 21     target_grid = 11
    c = 0.5 1 2        norm = l1        y = 0         z = 0
    scan_radius = 1.0  budget = 1000000

At most MAX_CONSTRAINTS equality and inequality lines are accepted.
Every diagnostic carries the 1-based line number of the offending
line so fixtures stay diff-friendly and errors stay greppable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expressions import Expr, ExpressionError, parse_expression
from .optimality import OptimalityError, ProgramSpec
from .regularity import RegularityError, SystemSpec

_SECTIONS = ("problem", "params", "point", "check")
_PROBLEM_KEYS = ("n", "objective", "equality", "inequality")
_CHECK_SCALAR = {"k": float, "r": float, "scan_radius": float,
                 "grid": int, "target_grid": int, "budget": int}
_CHECK_LIST = ("c", "y", "z")
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
    y: Optional[tuple[float, ...]] = None
    z: Optional[tuple[float, ...]] = None


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
        try:
            return SystemSpec(self.n, self.equalities, self.inequalities,
                              dict(self.params))
        except RegularityError as e:
            raise ProblemFileError(str(e)) from e

    def program(self) -> ProgramSpec:
        if self.objective is None:
            raise ProblemFileError("this check needs an objective = line "
                                   "in [problem]")
        try:
            return ProgramSpec(self.n, self.objective, self.equalities,
                               self.inequalities, dict(self.params))
        except OptimalityError as e:
            raise ProblemFileError(str(e)) from e


def _finite(vals, value: str, lineno: int, key: str):
    """vals parsed from value, or a ProblemFileError when any is inf or nan
    (1e400 parses as inf)."""
    if not np.all(np.isfinite(vals)):
        raise ProblemFileError(f"{key} must be finite, got {value!r}", lineno)
    return vals


def _floats(value: str, lineno: int, key: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in value.split())
    except ValueError:
        raise ProblemFileError(f"{key} expects numbers separated by spaces, "
                               f"got {value!r}", lineno) from None
    return _finite(vals, value, lineno, key)


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
        _finite(params[key], value, lineno, f"parameter {key}")

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
            _finite(fields[key], value, lineno, key)
            if caster is float and fields[key] <= 0:
                raise ProblemFileError(f"{key} must be positive, "
                                       f"got {value!r}", lineno)
            if caster is int and fields[key] < 1:
                raise ProblemFileError(f"{key} must be >= 1, got {value!r}",
                                       lineno)
            if key in ("grid", "target_grid") and fields[key] % 2 == 0:
                raise ProblemFileError(f"{key} must be odd, got {value!r}",
                                       lineno)
        elif key in _CHECK_LIST:
            fields[key] = _floats(value, lineno, key)
            if key == "c" and not fields[key]:
                raise ProblemFileError("c needs at least one number", lineno)
            if key == "c" and min(fields[key]) < 0:
                raise ProblemFileError(f"c must be >= 0, got {value!r}",
                                       lineno)
            # y holds one target per equality, z one per inequality
            targets = {"y": ("equality", equalities),
                       "z": ("inequality", inequalities)}
            if key in targets and len(fields[key]) != len(targets[key][1]):
                role, exprs = targets[key]
                raise ProblemFileError(
                    f"{key} needs {len(exprs)} value(s) (one per {role}), "
                    f"got {len(fields[key])}", lineno)
        elif key == "norm":
            # psi is the l1 scalarization; the key stays valid for old files
            if value != "l1":
                raise ProblemFileError(f"norm must be l1, got {value!r}",
                                       lineno)
            fields[key] = value  # kept only to catch a duplicate
        else:
            raise ProblemFileError(f"unknown [check] key {key!r}", lineno)

    fields.pop("norm", None)
    return ProblemFile(n, objective, tuple(equalities), tuple(inequalities),
                       params, point, CheckSettings(**fields))


def load(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ProblemFileError(f"cannot read {path}: {e.strerror}") from e
    return loads(text)
