"""Quasidifferential pairs and their calculus.

A quasidifferential of f at x is a pair [sub, sup] of convex compact
polytopes with

    f'(x; h) = max_{v in sub} <v, h> + min_{w in sup} <w, h>.

The pair is a representative of an equivalence class: [sub + C, sup - C]
describes the same directional derivative for any convex compact C.  The
rules below operate on representatives and are exact for the directional
derivative; set-level outputs are canonical for the rule as stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (Polytope, _lift_exponent, convex_hull_union,
                       minkowski_sum, nearest_point, negligible, scale,
                       support, ties, zero_polytope)


@dataclass(frozen=True)
class Quasidifferential:
    """Pair of polytopes: sub is the subdifferential, sup the
    superdifferential."""

    sub: Polytope
    sup: Polytope

    def __post_init__(self):
        if not isinstance(self.sub, Polytope) or not isinstance(self.sup, Polytope):
            raise TypeError("sub and sup must be Polytope instances")
        if self.sub.dim != self.sup.dim:
            raise ValueError("sub and sup live in different dimensions")

    @property
    def dim(self) -> int:
        return self.sub.dim


def dd(q: Quasidifferential, h) -> float:
    """Directional derivative generated by the pair at direction h."""
    h = np.asarray(h, dtype=float)
    return support(q.sub, h) - support(q.sup, -h)


def qd_zero(dim: int) -> Quasidifferential:
    z = zero_polytope(dim)
    return Quasidifferential(z, z)


def qd_smooth(gradient) -> Quasidifferential:
    """Quasidifferential of a differentiable function: [{grad}, {0}]."""
    g = np.atleast_2d(np.asarray(gradient, dtype=float))
    return Quasidifferential(Polytope(g), zero_polytope(g.shape[1]))


def qd_add(a: Quasidifferential, b: Quasidifferential) -> Quasidifferential:
    return Quasidifferential(minkowski_sum(a.sub, b.sub),
                             minkowski_sum(a.sup, b.sup))


def qd_scale(q: Quasidifferential, t: float) -> Quasidifferential:
    """t >= 0 scales both sets; t < 0 additionally swaps their roles."""
    if t >= 0:
        return Quasidifferential(scale(q.sub, t), scale(q.sup, t))
    return Quasidifferential(scale(q.sup, t), scale(q.sub, t))


def qd_mul(a: Quasidifferential, b: Quasidifferential,
           fa: float, fb: float) -> Quasidifferential:
    """Product rule for f*g where fa = f(x), fb = g(x)."""
    return qd_add(qd_scale(b, fa), qd_scale(a, fb))


def qd_max(items: Sequence[tuple[float, Quasidifferential]]) -> Quasidifferential:
    """Pointwise maximum of finitely many quasidifferentiable functions.

    items are (value at x, quasidifferential at x) pairs.  With R the
    active set, the result is

        sub = co  U_{k in R} ( sub_k + sum_{i in R, i != k} (-sup_i) )
        sup = sum_{i in R} sup_i
    """
    if len(items) == 0:
        raise ValueError("qd_max of an empty collection")
    active = ties([v for v, _ in items])
    qs = [q for _, q in items]
    dim = qs[0].dim
    sup = None
    for i in active:
        sup = qs[i].sup if sup is None else minkowski_sum(sup, qs[i].sup)
    pieces = []
    for k in active:
        p = qs[k].sub
        for i in active:
            if i != k:
                p = minkowski_sum(p, scale(qs[i].sup, -1.0))
        pieces.append(p)
    sub = pieces[0] if len(pieces) == 1 else convex_hull_union(pieces)
    return Quasidifferential(sub, sup if sup is not None else zero_polytope(dim))


def qd_min(items: Sequence[tuple[float, Quasidifferential]]) -> Quasidifferential:
    """Pointwise minimum, realized as -max(-f_i)."""
    flipped = [(-v, qd_scale(q, -1.0)) for v, q in items]
    return qd_scale(qd_max(flipped), -1.0)


def qd_abs(q: Quasidifferential, value: float) -> Quasidifferential:
    """|f| at a point where f has value `value` and quasidifferential q."""
    return qd_max([(value, q), (-value, qd_scale(q, -1.0))])


def qd_plus_set(q: Quasidifferential) -> Polytope:
    """The Minkowski sum sub + sup.

    Representation dependent: equivalent pairs can produce different,
    nested sums.  Invariant only under singleton shifts.
    """
    return minkowski_sum(q.sub, q.sup)


def matrix_qd_plus(rows: Sequence[Quasidifferential]) -> list[Polytope]:
    """The sum sub + sup of each row of a vector-valued map's pairs."""
    return [qd_plus_set(r) for r in rows]


def steepest_rate(q: Quasidifferential) -> tuple[float, np.ndarray]:
    """max over vertices w of sup of d(0, sub + w), with the attaining w.

    The inner distance is convex in w, so the maximum over the polytope is
    attained at a vertex.  When positive this equals the strong slope of
    the function represented by q; at 0 the function is stationary in the
    sense that -sup is contained in sub.  Ties break to the first vertex
    in canonical order: a later vertex wins only by more than 1e-15 in
    the units of geometry's lift rule (both sets' largest |entry| below
    1/2 lifted into [1/2, 1)), so that scaling the pair by 2^k, k <= 0,
    scales the margin by 2^k and keeps the witness.
    """
    top = max(np.abs(q.sub.vertices).max(), np.abs(q.sup.vertices).max())
    cut = np.ldexp(1e-15, -_lift_exponent(top))
    best = -1.0
    witness = q.sup.vertices[0]
    for w in q.sup.vertices:
        d = nearest_point(q.sub, -w)[1]
        if d > best + cut:
            best = d
            witness = w
    return best, np.asarray(witness, dtype=float)


def strong_slope(q: Quasidifferential) -> tuple[float, np.ndarray]:
    """The strong slope of the function that q represents, with
    steepest_rate's witness: its vertex margin, read as 0 when
    geometry.negligible, the cut that contains uses.

    Grammar functions are locally Lipschitz and directionally
    differentiable, so f(x + t d) = f(x) + t f'(x; d) + o(t) uniformly in
    |d| = 1, and the slope is max(0, -min_{|d|=1} f'(x; d)).  With
    f'(x; d) = max_U <u, d> + min_V <v, d> that is
    max_{v in V} max(0, max_{|d|=1} -max_{u in U + v} <u, d>)
    = max_{v in V} d(0, U + v), the vertex margin of steepest_rate.  So
    it does not depend on the representative.
    """
    margin, witness = steepest_rate(q)
    return (0.0 if negligible(margin) else float(margin)), witness


def absorb_singleton_sup(q: Quasidifferential) -> Quasidifferential:
    """Equivalence shift moving a singleton superdifferential into sub.

    Leaves non-singleton superdifferentials untouched.  The expression
    engine uses this to keep smooth-led pairs in the [{grad}, {0}] form
    where the textbook convention expects it.
    """
    if q.sup.nvertices != 1:
        return q
    shifted = minkowski_sum(q.sub, q.sup)
    return Quasidifferential(shifted, zero_polytope(q.dim))


def absorb_singleton_sub(q: Quasidifferential) -> Quasidifferential:
    """Mirror shift: a singleton subdifferential moves into sup.

    Produces the concave-led form [{0}, sup + sub]; used where a minimum
    of smooth branches should display as [{0}, co{gradients}].
    """
    if q.sub.nvertices != 1:
        return q
    shifted = minkowski_sum(q.sup, q.sub)
    return Quasidifferential(zero_polytope(q.dim), shifted)
