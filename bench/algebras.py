"""Known-answer inputs for the benchmark, written as definition-file text.

Every algebra here is generated by the benchmark itself, never read from
the repository, so that the program receives only the generated text:

* the base algebras abelian(1,2), heisenberg, gl(1|1), osp(1|2) and
  solvable2, as literal structure constants;
* heis4, the (4|1)-dimensional Heisenberg superalgebra with
  [t1,t3] = [t2,t4] = z and h = <z>;
* the one-letter even pair: q = <a> even, h = <z>, everything commuting;
* the diagonal pair (g + g, swap) of a base algebra: h is the diagonal
  copy, q the antidiagonal one, so q inherits the parity mix of g.

``rescale`` multiplies each basis vector by a seeded nonzero rational.
That changes the structure constants but not the algebra, so every known
answer the benchmark checks (super-Jacobi, unimodularity, the dimension of
the twisted-adjoint invariants, tau(beta(w)) = w, J_c by two routes) holds
for every seed.
"""

from __future__ import annotations

from fractions import Fraction

EVEN, ODD = "even", "odd"


class Algebra:
    """Basis [(name, parity)], brackets {(i, j): {k: Fraction}} with i <= j,
    and the names spanning h (q is the rest, listed first)."""

    def __init__(self, name, basis, brackets, h):
        self.name = name
        self.basis = list(basis)
        self.brackets = {key: dict(comps) for key, comps in brackets.items()}
        self.h = list(h)

    def text(self) -> str:
        lines = [f"algebra {self.name}"]
        lines += [f"basis {nm} {par}" for nm, par in self.basis]
        for (i, j) in sorted(self.brackets):
            comps = self.brackets[(i, j)]
            body = " + ".join(f"{comps[k]} {self.basis[k][0]}" for k in sorted(comps))
            lines.append(f"bracket {self.basis[i][0]} {self.basis[j][0]} = {body}")
        if self.h:
            lines.append("pair h = " + " ".join(self.h))
        return "\n".join(lines) + "\n"


def _algebra(name, basis, table, h):
    """Build from {(a, b): [(coeff, c), ...]} keyed by basis names."""
    index = {nm: k for k, (nm, _) in enumerate(basis)}
    brackets = {}
    for (a, b), comps in table.items():
        i, j = index[a], index[b]
        if i > j:
            raise ValueError(f"{name}: list bracket [{a},{b}] in basis order")
        brackets[(i, j)] = {index[c]: Fraction(v) for v, c in comps}
    return Algebra(name, basis, brackets, h)


def abelian12():
    return _algebra("abelian12", [("e1", ODD), ("e2", ODD), ("a1", EVEN)], {}, ["a1"])


def heisenberg():
    return _algebra(
        "heisenberg", [("th1", ODD), ("th2", ODD), ("z", EVEN)],
        {("th1", "th2"): [(1, "z")]}, ["z"],
    )


def heis4():
    basis = [("t1", ODD), ("t2", ODD), ("t3", ODD), ("t4", ODD), ("z", EVEN)]
    table = {("t1", "t3"): [(1, "z")], ("t2", "t4"): [(1, "z")]}
    return _algebra("heis4", basis, table, ["z"])


def gl11():
    basis = [("x12", ODD), ("x21", ODD), ("d1", EVEN), ("d2", EVEN)]
    table = {
        ("x12", "x21"): [(1, "d1"), (1, "d2")],
        ("x12", "d1"): [(-1, "x12")],
        ("x12", "d2"): [(1, "x12")],
        ("x21", "d1"): [(1, "x21")],
        ("x21", "d2"): [(-1, "x21")],
    }
    return _algebra("gl11", basis, table, ["d1", "d2"])


def osp12():
    basis = [("e", ODD), ("f", ODD), ("H", EVEN), ("E", EVEN), ("F", EVEN)]
    table = {
        ("e", "e"): [(-2, "E")],
        ("e", "f"): [(1, "H")],
        ("e", "H"): [(-1, "e")],
        ("e", "F"): [(-1, "f")],
        ("f", "f"): [(2, "F")],
        ("f", "H"): [(1, "f")],
        ("f", "E"): [(-1, "e")],
        ("H", "E"): [(2, "E")],
        ("H", "F"): [(-2, "F")],
        ("E", "F"): [(1, "H")],
    }
    return _algebra("osp12", basis, table, ["H", "E", "F"])


def solvable2():
    return _algebra("solvable2", [("x", EVEN), ("y", EVEN)], {("x", "y"): [(1, "y")]}, ["x", "y"])


def one_letter():
    return _algebra("oneletter", [("a", EVEN), ("z", EVEN)], {}, ["z"])


def _sign(par_i, par_j):
    """Sign of [b, a] = sign [a, b] (super-antisymmetry)."""
    return 1 if par_i == ODD and par_j == ODD else -1


def diagonal(base: Algebra) -> Algebra:
    """(g + g, swap) with q_i = antidiagonal and h_i = diagonal copies:
    [q_i, q_j] = h_[i,j], [h_i, h_j] = h_[i,j], [h_i, q_j] = q_[i,j]."""
    n = len(base.basis)
    basis = [(f"q_{nm}", p) for nm, p in base.basis] + [(f"h_{nm}", p) for nm, p in base.basis]
    brackets = {}

    def add(i, j, comps):
        if i > j:
            s = _sign(basis[i][1], basis[j][1])
            i, j = j, i
            comps = {k: s * c for k, c in comps.items()}
        acc = brackets.setdefault((i, j), {})
        for k, c in comps.items():
            acc[k] = acc.get(k, Fraction(0)) + c

    for (i, j), comps in base.brackets.items():
        add(i, j, {k + n: c for k, c in comps.items()})
        add(i + n, j + n, {k + n: c for k, c in comps.items()})
        add(i + n, j, comps)
        if i != j:
            # [h_j, q_i] = [j, i] = sign * [i, j], landing in q
            add(j + n, i, {k: _sign(base.basis[i][1], base.basis[j][1]) * c for k, c in comps.items()})
    brackets = {key: {k: c for k, c in comps.items() if c} for key, comps in brackets.items()}
    brackets = {key: comps for key, comps in brackets.items() if comps}
    return Algebra(f"diag_{base.name}", basis, brackets, [nm for nm, _ in basis[n:]])


SCALES = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(-2), Fraction(-1, 2)]


def rescale(alg: Algebra, rng) -> Algebra:
    """Basis change e_i -> s_i e_i with seeded small nonzero rationals s_i:
    [s_i e_i, s_j e_j] = sum_k (s_i s_j c_ij^k / s_k) (s_k e_k)."""
    s = [rng.choice(SCALES) for _ in alg.basis]
    brackets = {
        (i, j): {k: s[i] * s[j] * c / s[k] for k, c in comps.items()}
        for (i, j), comps in alg.brackets.items()
    }
    return Algebra(alg.name, alg.basis, brackets, alg.h)
