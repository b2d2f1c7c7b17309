"""The algebra interface behind first-order logic, and the interpretation.

An instance supplies top, meet, complement, the fresh-finite limit, a
substitution action and an equality element; bottom, join and the order
are always derived, so instances carry no coherence obligations for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .nominal import Atom, act, fresh_distinct, support, swap
from .report import SuiteReport, run_laws
from .sigma import Carrier, Sampler
from .syntax import All, And, Bot, Eq, Formula, Neg, Pred, Term, Var


@dataclass(frozen=True, kw_only=True)
class FoleqAlgebra(Carrier):
    """A sigma-algebra over ``terms`` with the lattice operations added."""

    top: Any
    meet: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    freshmeet: Callable[[Atom, Any], Any]
    eq: Callable[[Any, Any], Any]

    @property
    def bot(self):
        return self.neg(self.top)

    def join(self, x, y):
        return self.neg(self.meet(self.neg(x), self.neg(y)))

    def leq(self, x, y) -> bool:
        return self.equal(self.meet(x, y), x)

    def meet_all(self, xs):
        out = self.top
        for x in xs:
            out = self.meet(out, x)
        return out

    def join_all(self, xs):
        out = self.bot
        for x in xs:
            out = self.join(out, x)
        return out


@dataclass(frozen=True)
class Interpretation:
    """Symbol tables: each map takes (name, distinct fresh atoms) to an element.

    Both maps must be equivariant in the atom tuple; sampling checks live in
    the test suites.
    """

    algebra: FoleqAlgebra
    fun_interp: Callable[[str, tuple[Atom, ...]], Any]
    pred_interp: Callable[[str, tuple[Atom, ...]], Any]


def _extend(alg: Carrier, base, us):
    """Evaluate a symbol at fresh distinct atoms, then substitute the arguments.

    The atoms are fresh for every argument, so sequential substitution
    agrees with the simultaneous action.
    """
    avoid = set()
    for u in us:
        avoid |= support(u)
    names = fresh_distinct(avoid, len(us))
    x = base(names)
    for a, u in zip(names, us):
        x = alg.subst(x, a, u)
    return x


def interpret_term(t: Term, interp: Interpretation):
    terms = interp.algebra.terms
    if isinstance(t, Var):
        return terms.atm(t.atom)
    us = [interpret_term(s, interp) for s in t.args]
    return _extend(terms, lambda names: interp.fun_interp(t.fn, names), us)


def interpret(phi: Formula, interp: Interpretation):
    """The absolute denotation: structural recursion into the algebra."""
    alg = interp.algebra
    if isinstance(phi, Bot):
        return alg.bot
    if isinstance(phi, Eq):
        return alg.eq(interpret_term(phi.lhs, interp), interpret_term(phi.rhs, interp))
    if isinstance(phi, Pred):
        us = [interpret_term(t, interp) for t in phi.args]
        return _extend(alg, lambda names: interp.pred_interp(phi.name, names), us)
    if isinstance(phi, And):
        return alg.meet(interpret(phi.lhs, interp), interpret(phi.rhs, interp))
    if isinstance(phi, Neg):
        return alg.neg(interpret(phi.body, interp))
    if isinstance(phi, All):
        return alg.freshmeet(phi.binder, interpret(phi.body, interp))
    raise TypeError(f"not a formula: {phi!r}")


def sequent_valid(left, right, interp: Interpretation) -> bool:
    """Conjunction of the left entails disjunction of the right.

    The empty meet is top and the empty join is bottom.
    """
    alg = interp.algebra
    lhs = alg.meet_all(interpret(phi, interp) for phi in left)
    rhs = alg.join_all(interpret(psi, interp) for psi in right)
    return alg.leq(lhs, rhs)


def freshmeet_char_check(alg: FoleqAlgebra, x, a: Atom, candidates,
                         exact: bool = False) -> bool:
    """The fresh-finite limit is a lower bound of all substitution instances.

    With ``exact`` the candidates are asserted to exhaust the instances, and
    equality with their finite meet is required as well.
    """
    fm = alg.freshmeet(a, x)
    for u in candidates:
        if not alg.leq(fm, alg.subst(x, a, u)):
            return False
    if exact:
        finite = alg.meet_all(alg.subst(x, a, u) for u in candidates)
        return alg.equal(fm, finite)
    return True


def _ce(*parts) -> str:
    return " ".join(repr(p) for p in parts)


def _lattice(rng, alg, sampler):
    x, y, z = (sampler.element(rng) for _ in range(3))
    eq = alg.equal
    checks = [
        (eq(alg.meet(alg.meet(x, y), z), alg.meet(x, alg.meet(y, z))), "meet-assoc"),
        (eq(alg.meet(x, y), alg.meet(y, x)), "meet-comm"),
        (eq(alg.meet(x, x), x), "meet-idem"),
        (eq(alg.meet(x, alg.top), x), "meet-top"),
        (eq(alg.join(alg.join(x, y), z), alg.join(x, alg.join(y, z))), "join-assoc"),
        (eq(alg.join(x, y), alg.join(y, x)), "join-comm"),
        (eq(alg.join(x, x), x), "join-idem"),
        (eq(alg.join(x, alg.bot), x), "join-bot"),
        (eq(alg.meet(x, alg.join(x, y)), x), "absorb-1"),
        (eq(alg.join(x, alg.meet(x, y)), x), "absorb-2"),
    ]
    for ok, tag in checks:
        if not ok:
            return f"{tag} {_ce(x, y, z)}"


def _distrib(rng, alg, sampler):
    x, y, z = (sampler.element(rng) for _ in range(3))
    if not alg.equal(alg.join(x, alg.meet(y, z)),
                     alg.meet(alg.join(x, y), alg.join(x, z))):
        return _ce(x, y, z)
    if not alg.equal(alg.meet(x, alg.join(y, z)),
                     alg.join(alg.meet(x, y), alg.meet(x, z))):
        return _ce(x, y, z)


def _distrib_fresh(rng, alg, sampler):
    x, y = sampler.element(rng), sampler.element(rng)
    a = sampler.atom_fresh_for(rng, support(x))
    if not alg.equal(alg.join(x, alg.freshmeet(a, y)),
                     alg.freshmeet(a, alg.join(x, y))):
        return _ce(x, a, y)


def _double_neg(rng, alg, sampler):
    x = sampler.element(rng)
    if not alg.equal(alg.neg(alg.neg(x)), x):
        return _ce(x)


def _complement(rng, alg, sampler):
    x = sampler.element(rng)
    if not alg.equal(alg.meet(x, alg.neg(x)), alg.bot):
        return _ce(x)
    if not alg.equal(alg.join(x, alg.neg(x)), alg.top):
        return _ce(x)


def _nu_alpha(rng, alg, sampler):
    x = sampler.element(rng)
    a = sampler.atom(rng)
    b = sampler.atom_fresh_for(rng, support(x), {a})
    if not alg.equal(alg.freshmeet(b, act(swap(b, a), x)), alg.freshmeet(a, x)):
        return _ce(x, a, b)


def _nu_meet(rng, alg, sampler):
    x, y = sampler.element(rng), sampler.element(rng)
    a = sampler.atom(rng)
    if not alg.equal(alg.freshmeet(a, alg.meet(x, y)),
                     alg.meet(alg.freshmeet(a, x), alg.freshmeet(a, y))):
        return _ce(a, x, y)


def _nu_join(rng, alg, sampler):
    x, y = sampler.element(rng), sampler.element(rng)
    a = sampler.atom_fresh_for(rng, support(y))
    if not alg.equal(alg.freshmeet(a, alg.join(x, y)),
                     alg.join(alg.freshmeet(a, x), y)):
        return _ce(a, x, y)


def _nu_leq(rng, alg, sampler):
    x = sampler.element(rng)
    a = sampler.atom(rng)
    if not alg.leq(alg.freshmeet(a, x), x):
        return _ce(a, x)


def _nu_fresh(rng, alg, sampler):
    x = sampler.element(rng)
    a = sampler.atom_fresh_for(rng, support(x))
    if not alg.equal(alg.freshmeet(a, x), x):
        return _ce(a, x)


def _sub_meet(rng, alg, sampler):
    x, y = sampler.element(rng), sampler.element(rng)
    a = sampler.atom(rng)
    u = sampler.termlike(rng)
    if not alg.equal(alg.subst(alg.meet(x, y), a, u),
                     alg.meet(alg.subst(x, a, u), alg.subst(y, a, u))):
        return _ce(x, y, a, u)


def _sub_neg(rng, alg, sampler):
    x = sampler.element(rng)
    a = sampler.atom(rng)
    u = sampler.termlike(rng)
    if not alg.equal(alg.subst(alg.neg(x), a, u), alg.neg(alg.subst(x, a, u))):
        return _ce(x, a, u)


def _sub_nu(rng, alg, sampler):
    y = sampler.element(rng)
    a = sampler.atom(rng)
    u = sampler.termlike(rng)
    b = sampler.atom_fresh_for(rng, support(u), {a})
    if not alg.equal(alg.subst(alg.freshmeet(b, y), a, u),
                     alg.freshmeet(b, alg.subst(y, a, u))):
        return _ce(y, a, u, b)


def _sub_eq(rng, alg, sampler):
    u1, u2, w = (sampler.termlike(rng) for _ in range(3))
    a = sampler.atom(rng)
    lhs = alg.subst(alg.eq(u1, u2), a, w)
    rhs = alg.eq(alg.terms.subst(u1, a, w), alg.terms.subst(u2, a, w))
    if not alg.equal(lhs, rhs):
        return _ce(u1, u2, a, w)


def _sub_top(rng, alg, sampler):
    a = sampler.atom(rng)
    u = sampler.termlike(rng)
    if not alg.equal(alg.subst(alg.top, a, u), alg.top):
        return _ce(a, u)


def _eq_refl(rng, alg, sampler):
    u = sampler.termlike(rng)
    if not alg.equal(alg.eq(u, u), alg.top):
        return _ce(u)


def _eq_subst(rng, alg, sampler):
    u, v = sampler.termlike(rng), sampler.termlike(rng)
    z = sampler.element(rng)
    a = sampler.atom(rng)
    e = alg.eq(u, v)
    if not alg.equal(alg.meet(e, alg.subst(z, a, u)), alg.meet(e, alg.subst(z, a, v))):
        return _ce(u, v, z, a)


# Each law is ``case(rng, alg, sampler)``: None, or a counterexample string.
FOLEQ_LAWS = {
    "lattice": _lattice, "distrib": _distrib, "distrib-freshmeet": _distrib_fresh,
    "double-negation": _double_neg, "complement": _complement,
    "nu-alpha": _nu_alpha, "nu-meet": _nu_meet, "nu-join": _nu_join,
    "nu-leq": _nu_leq, "nu-#": _nu_fresh, "sub-meet": _sub_meet,
    "sub-neg": _sub_neg, "sub-freshmeet": _sub_nu, "sub-eq": _sub_eq,
    "sub-top": _sub_top, "eq-refl": _eq_refl, "eq-subst": _eq_subst,
}


def foleq_axiom_suite(alg: FoleqAlgebra, sampler: Sampler, n: int,
                      seed: int = 0) -> SuiteReport:
    """Lattice, distributivity, quantifier, compatibility and equality laws."""
    return run_laws(FOLEQ_LAWS, n, seed, alg, sampler)
