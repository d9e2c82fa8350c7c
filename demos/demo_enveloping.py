"""Normal ordering, symmetrization, and the coalgebra structure of U(g).

A small tour of the enveloping-algebra engine on osp(1|2): rewriting
words into the normal-ordered basis, the symmetrization map and its
coalgebra property, the twisted adjoint action, and the quotient mod
U(g)h, read off tau.
"""

from fractions import Fraction

from supersym import coderiv, enveloping as env, liealg

alg, pair = liealg.catalog("osp12")
P = env.PbwElement

print("Basis:", ", ".join(f"{n}({'odd' if p else 'even'})" for n, p in zip(alg.names, alg.parities)))
print()

print("Normal ordering:")
print("  f e        ->", P.from_word(alg, (1, 0)), "   (swap plus bracket)")
print("  e e        ->", P.from_word(alg, (0, 0)), "        (odd square is half a bracket)")
print("  F E H      ->", P.from_word(alg, (4, 3, 2)))
print()

je, jf = P.from_basis(alg, 0), P.from_basis(alg, 1)
beta_ef = env.symmetrize_word(alg, (0, 1))
print("Symmetrization: beta(e f) =", beta_ef)
print("  equals (j(e)j(f) - j(f)j(e))/2:", beta_ef == (je * jf - jf * je) * Fraction(1, 2))
print()

print("Coproduct of beta(e f) (tensor legs as normal-ordered monomials):")
for (m1, m2), c in sorted(env.coproduct(beta_ef).items()):
    left = P(alg, {m1: Fraction(1)})
    right = P(alg, {m2: Fraction(1)})
    print(f"  {c}  *  ({left})  (x)  ({right})")
print()

print("Twisted adjoint action ad'(a)(u) = a u -/+ u sigma(a):")
print("  ad'(e)(1) =", env.twisted_adjoint(pair, 0, P.one(alg)), "  (twice the generator)")
print("  ad'(H)(1) =", env.twisted_adjoint(pair, 2, P.one(alg)))
print("  ad'(e)(beta(ef)) =", env.twisted_adjoint(pair, 0, beta_ef))
print()

print("gamma(u) = ad'(u)(1) doubles each symmetric degree:")
print("  gamma(beta(e f)) =", env.gamma(pair, beta_ef), "= beta(4 e f)")
print()

u = je * P.from_basis(alg, 2)  # j(e) j(H)
print("Quotient mod U(g)h:")
print("  class of j(e)j(H):", coderiv.quotient_mod_h(pair, u))
print("  class of beta(ef):", coderiv.quotient_mod_h(pair, beta_ef))
print()

print("tau inverts the symmetrization onto the quotient:")
print("  tau(beta(e f)) =", coderiv.tau(pair, beta_ef))
print("  tau(j(f)j(e)) =", coderiv.tau(pair, jf * je))
