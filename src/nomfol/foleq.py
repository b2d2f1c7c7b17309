"""The algebra interface behind first-order logic, and the interpretation.

An instance supplies top, meet, complement, the fresh-finite limit, a
substitution action and an equality element; bottom, join and the order
are always derived, so instances carry no coherence obligations for them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from .nominal import Atom, fresh_distinct, swap
from .report import SuiteReport, run_law
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
    terms = alg.terms
    avoid = set()
    for u in us:
        avoid |= terms.support(u)
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


def foleq_axiom_suite(alg: FoleqAlgebra, sampler: Sampler, n: int,
                      seed: int = 0) -> SuiteReport:
    """Lattice, distributivity, quantifier, compatibility and equality laws."""
    rng = random.Random(seed)
    rep = SuiteReport()
    eq, sup = alg.equal, alg.support
    tsup = alg.terms.support

    def elems(k):
        return [sampler.element(rng) for _ in range(k)]

    def ce(*parts):
        return " ".join(repr(p) for p in parts)

    def lattice():
        x, y, z = elems(3)
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
                return f"{tag} {ce(x, y, z)}"
    run_law(rep, "lattice", n, lattice)

    def distrib():
        x, y, z = elems(3)
        if not eq(alg.join(x, alg.meet(y, z)), alg.meet(alg.join(x, y), alg.join(x, z))):
            return ce(x, y, z)
        if not eq(alg.meet(x, alg.join(y, z)), alg.join(alg.meet(x, y), alg.meet(x, z))):
            return ce(x, y, z)
    run_law(rep, "distrib", n, distrib)

    def distrib_fresh():
        x, y = elems(2)
        a = sampler.atom_fresh_for(rng, sup(x))
        if not eq(alg.join(x, alg.freshmeet(a, y)), alg.freshmeet(a, alg.join(x, y))):
            return ce(x, a, y)
    run_law(rep, "distrib-freshmeet", n, distrib_fresh)

    def double_neg():
        (x,) = elems(1)
        if not eq(alg.neg(alg.neg(x)), x):
            return ce(x)
    run_law(rep, "double-negation", n, double_neg)

    def complement():
        (x,) = elems(1)
        if not eq(alg.meet(x, alg.neg(x)), alg.bot):
            return ce(x)
        if not eq(alg.join(x, alg.neg(x)), alg.top):
            return ce(x)
    run_law(rep, "complement", n, complement)

    def nu_alpha():
        (x,) = elems(1)
        a = sampler.atom(rng)
        b = sampler.atom_fresh_for(rng, sup(x), {a})
        if not eq(alg.freshmeet(b, alg.act(swap(b, a), x)), alg.freshmeet(a, x)):
            return ce(x, a, b)
    run_law(rep, "nu-alpha", n, nu_alpha)

    def nu_meet():
        x, y = elems(2)
        a = sampler.atom(rng)
        if not eq(alg.freshmeet(a, alg.meet(x, y)),
                  alg.meet(alg.freshmeet(a, x), alg.freshmeet(a, y))):
            return ce(a, x, y)
    run_law(rep, "nu-meet", n, nu_meet)

    def nu_join():
        x, y = elems(2)
        a = sampler.atom_fresh_for(rng, sup(y))
        if not eq(alg.freshmeet(a, alg.join(x, y)), alg.join(alg.freshmeet(a, x), y)):
            return ce(a, x, y)
    run_law(rep, "nu-join", n, nu_join)

    def nu_leq():
        (x,) = elems(1)
        a = sampler.atom(rng)
        if not alg.leq(alg.freshmeet(a, x), x):
            return ce(a, x)
    run_law(rep, "nu-leq", n, nu_leq)

    def nu_fresh():
        (x,) = elems(1)
        a = sampler.atom_fresh_for(rng, sup(x))
        if not eq(alg.freshmeet(a, x), x):
            return ce(a, x)
    run_law(rep, "nu-#", n, nu_fresh)

    def sub_meet():
        x, y = elems(2)
        a = sampler.atom(rng)
        u = sampler.termlike(rng)
        if not eq(alg.subst(alg.meet(x, y), a, u),
                  alg.meet(alg.subst(x, a, u), alg.subst(y, a, u))):
            return ce(x, y, a, u)
    run_law(rep, "sub-meet", n, sub_meet)

    def sub_neg():
        (x,) = elems(1)
        a = sampler.atom(rng)
        u = sampler.termlike(rng)
        if not eq(alg.subst(alg.neg(x), a, u), alg.neg(alg.subst(x, a, u))):
            return ce(x, a, u)
    run_law(rep, "sub-neg", n, sub_neg)

    def sub_nu():
        (y,) = elems(1)
        a = sampler.atom(rng)
        u = sampler.termlike(rng)
        b = sampler.atom_fresh_for(rng, tsup(u), {a})
        if not eq(alg.subst(alg.freshmeet(b, y), a, u),
                  alg.freshmeet(b, alg.subst(y, a, u))):
            return ce(y, a, u, b)
    run_law(rep, "sub-freshmeet", n, sub_nu)

    def sub_eq():
        u1, u2, w = (sampler.termlike(rng) for _ in range(3))
        a = sampler.atom(rng)
        lhs = alg.subst(alg.eq(u1, u2), a, w)
        rhs = alg.eq(alg.terms.subst(u1, a, w), alg.terms.subst(u2, a, w))
        if not eq(lhs, rhs):
            return ce(u1, u2, a, w)
    run_law(rep, "sub-eq", n, sub_eq)

    def sub_top():
        a = sampler.atom(rng)
        u = sampler.termlike(rng)
        if not eq(alg.subst(alg.top, a, u), alg.top):
            return ce(a, u)
    run_law(rep, "sub-top", n, sub_top)

    def eq_refl():
        u = sampler.termlike(rng)
        if not eq(alg.eq(u, u), alg.top):
            return ce(u)
    run_law(rep, "eq-refl", n, eq_refl)

    def eq_subst():
        u, v = sampler.termlike(rng), sampler.termlike(rng)
        (z,) = elems(1)
        a = sampler.atom(rng)
        e = alg.eq(u, v)
        if not eq(alg.meet(e, alg.subst(z, a, u)), alg.meet(e, alg.subst(z, a, v))):
            return ce(u, v, z, a)
    run_law(rep, "eq-subst", n, eq_subst)

    return rep
