"""Quasidifferential calculus on expression-defined functions.

Polytope-pair derivatives, the calculus that composes them, and three
consumers: metric-regularity checks, a Mangasarian-Fromovitz-type
constraint qualification, and l1-penalty optimality certificates.
Import names from their modules, for example quasidiff.expressions.
"""

__version__ = "0.1.0"
