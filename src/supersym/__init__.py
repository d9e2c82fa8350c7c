"""Exact computer algebra for Lie superalgebra symmetric pairs.

The package computes, entirely over the rationals: supercommutative
polynomial algebras; Bernoulli-coefficient power series and their
functional equations; supertraces and Berezinians; normal-ordered
enveloping algebras with symmetrization and its coalgebra structure; the
universal coderivation representations of a symmetric pair; the Jacobian
of the exponential map; and Gorelik elements (Casimir ghosts),
constructed in closed form and verified independently.
"""

from .superpoly import EVEN, ODD, SuperPolynomial, VariableTable
from .series import TruncatedSeries1, TruncatedSeries2, bernoulli, p_c, q_c, w_c
from .liealg import LieSuperAlgebra, SuperMatrix, SymmetricPair, ad_matrix, catalog
from .enveloping import PbwElement, coproduct, normal_form, symmetrize, twisted_adjoint
from .coderiv import Character, coderivation_C, invariant_space, tau, theta_action, verify_twisted_invariance
from .jacobian import GenericPoint, gorelik_candidate, jacobian_Jc, jacobian_full_group

__all__ = [
    "EVEN",
    "ODD",
    "SuperPolynomial",
    "VariableTable",
    "TruncatedSeries1",
    "TruncatedSeries2",
    "bernoulli",
    "p_c",
    "q_c",
    "w_c",
    "LieSuperAlgebra",
    "SuperMatrix",
    "SymmetricPair",
    "ad_matrix",
    "catalog",
    "PbwElement",
    "coproduct",
    "normal_form",
    "symmetrize",
    "twisted_adjoint",
    "Character",
    "coderivation_C",
    "invariant_space",
    "tau",
    "theta_action",
    "verify_twisted_invariance",
    "GenericPoint",
    "gorelik_candidate",
    "jacobian_Jc",
    "jacobian_full_group",
]

__version__ = "0.1.0"
