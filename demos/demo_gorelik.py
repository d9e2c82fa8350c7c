"""Construction and verification of a Gorelik element (Casimir ghost).

For a Lie superalgebra g with purely odd part of dimension q satisfying
the unimodularity condition (the supertrace of ad a on the odd part
vanishes for every even a), the subspace beta(S(g_odd)) of the enveloping
algebra carries the twisted adjoint action

    ad'(a)(u) = a u - (-1)^{p(a) p(u)} u sigma(a),

and it contains a one-dimensional space of invariants.  A generator is

    T = beta(J_2 d),

where d = e_1...e_q is the top monomial of the exterior algebra on the
odd part and J_2 is the Jacobian-type Berezinian built from the generic
point of the odd part.  This script constructs T for osp(1|2) and checks
it three ways: twisted invariance, the invariant-space solver, and the
quotient-module picture.  The check and the solver both decide invariance
in S(q), through ad'(a) o beta = beta o C_2^a; the quotient is read off tau.
The tests hold the independent route: twisted adjoints of every basis
vector taken in U(g) and read in the factorization.
"""

from fractions import Fraction

from supersym import coderiv, enveloping, jacobian, liealg

alg, pair = liealg.catalog("osp12")
print("Algebra: osp(1|2) with basis", ", ".join(alg.names))
print("Pair: q =", [alg.names[i] for i in pair.q_indices],
      " h =", [alg.names[i] for i in pair.h_indices])
ok, _ = pair.check_unimodularity()
print("Unimodularity:", "holds" if ok else "fails")
print()

gp = jacobian.GenericPoint(pair)
J2 = jacobian.jacobian_Jc(gp, 2)
print("Supertrace data: str_q((ad y)^2) =", J2.str_powers[0][1])
print("J_2 =", J2.J)

T = jacobian.gorelik_candidate(gp)
print("Gorelik element T = beta(J_2 e f) =", T)
print()

ok, witness = coderiv.verify_twisted_invariance(pair, T)
print("ad'(a) T = 0 for every basis a:", "yes" if ok else f"NO ({witness})")

basis = coderiv.invariant_space(pair)
print(f"Invariant-space solver: dimension {len(basis)}, generator beta({basis[0]})")
w = coderiv.tau(pair, T)
mono, lead = sorted(basis[0].terms.items())[0]
ratio = w.coefficient(mono) / lead
print(f"Solver generator vs formula: T corresponds to {ratio} * generator")
print()

# the same invariant seen in the quotient U(g)/U(g)h: the class of
# beta(J_1 e f) is killed by left multiplication by every j(a)
w1 = jacobian.interior_product(gp, jacobian.jacobian_Jc(gp, 1).J, jacobian.top_monomial(pair))
u = coderiv.beta_of_sq(pair, w1)
killed = all(
    coderiv.quotient_mod_h(pair, enveloping.PbwElement.from_basis(alg, a) * u).is_zero()
    for a in range(alg.dim)
)
print("Class of beta(J_1 e f) in U(g)/U(g)h killed by left multiplication:",
      "yes" if killed else "NO")

print()
print("The same construction on a non-unimodular pair refuses politely:")
bad = liealg.LieSuperAlgebra(
    ["th1", "th2", "x"], ["odd", "odd", "even"],
    {(0, 2): {0: Fraction(1)}, (1, 2): {1: Fraction(1)}},
)
bad_pair = liealg.SymmetricPair(bad, [2])
print("  unimodularity witnesses:", bad_pair.check_unimodularity()[1])
print("  solver dimension:", len(coderiv.invariant_space(bad_pair)))
