"""Substitution algebras, their duals on subsets, and the Fig-style axiom suites.

A carrier is described by a small descriptor bundling its substitution,
its equality and, when termlike, its atoms; its permutation action and
support are the nominal kernel's ``act`` and ``support``.  Subsets of
infinite carriers are characteristic functions with a declared support,
compared only on caller-supplied probe sets.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import nominal
from .nominal import (Atom, FinCofinAtomSet, Perm, atoms, compose, fresh,
                      fresh_distinct, swap)
from .report import AxiomResult, SuiteReport, run_laws


@dataclass(frozen=True)
class Carrier:
    """A nominal set with a substitution action over a termlike algebra.

    ``subst(x, a, u)`` is x[a := u] for u in ``terms``, and ``equal`` is
    element equality.  ``atm`` is present exactly when the carrier is
    termlike; then ``terms`` is left out and the designated termlike
    algebra is the carrier itself.  Elements are permuted and supported
    by ``nominal.act`` and ``nominal.support``.
    """

    subst: Callable[[Any, Atom, Any], Any]
    equal: Callable[[Any, Any], bool]
    atm: Callable[[Atom], Any] | None = None
    terms: "Carrier" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.terms is None:
            object.__setattr__(self, "terms", self)


@dataclass(frozen=True)
class AmgisAlgebra:
    """Carrier with an action p[u <- a]; finite support is not required."""

    amgis: Callable[[Any, Any, Atom], Any]
    terms: Carrier
    equal: Callable[[Any, Any], bool] | None = None

    def agree(self, x, y, probes: Sequence) -> bool:
        """Element equality, or agreement on the probes when there is none."""
        if self.equal is not None:
            return self.equal(x, y)
        return charsets_agree(x, y, probes)


@dataclass(frozen=True)
class CharSet:
    """A subset of a carrier given by a membership oracle.

    ``declared_support`` must genuinely support the set; membership must be
    stable under the base carrier's element equality.
    """

    member: Callable[[Any], bool]
    declared_support: frozenset
    label: str = ""

    def _support_(self) -> frozenset:
        return self.declared_support

    def _act_(self, pi: Perm) -> "CharSet":
        inv = pi.inverse()
        return CharSet(
            lambda x, s=self, inv=inv: s.member(nominal.act(inv, x)),
            frozenset(pi(a) for a in self.declared_support),
            f"{pi!r}*{self.label}",
        )

    def __repr__(self):
        return f"CharSet({self.label or '?'}, supp={sorted(self.declared_support)})"


def charsets_agree(p: CharSet, q: CharSet, probes: Sequence) -> bool:
    return all(p.member(x) == q.member(x) for x in probes)


def powamgis_action(alg: Carrier, p: CharSet, u, a: Atom) -> CharSet:
    """p[u <- a] over a sigma-algebra: x is in it iff x[a := u] is in p."""
    return CharSet(
        lambda x: p.member(alg.subst(x, a, u)),
        p.declared_support | nominal.support(u) | {a},
        f"{p.label}[{u!r}<-{a}]",
    )


def pow_amgis(alg: Carrier) -> AmgisAlgebra:
    """The amgis-powerset of a sigma-algebra, elements are CharSets."""
    return AmgisAlgebra(
        amgis=lambda p, u, a: powamgis_action(alg, p, u, a),
        terms=alg.terms,
    )


def powsigma_action(P: AmgisAlgebra, X: CharSet, a: Atom, u) -> CharSet:
    """X[a := u] over an amgis-algebra, via one fresh witness atom.

    Membership of p tests p[u <- c] in (c a).X at the single fresh c; the
    some/any property of the new-quantifier justifies the single sample.
    """
    usupp = nominal.support(u)
    c = fresh(X.declared_support | usupp | {a})
    swapped = X._act_(swap(c, a))
    return CharSet(
        lambda p: swapped.member(P.amgis(p, u, c)),
        (X.declared_support - {a}) | usupp,
        f"{X.label}[{a}:={u!r}]",
    )


def powsigma_conditions(P: AmgisAlgebra, X: CharSet, u_samples, p_probes,
                        atom_samples=()) -> list[str]:
    """Validate the two admission conditions for sigma-powerset elements.

    Sampled, not total: condition 1 quantifies over all u and p, condition 2
    over all atoms and p.  Returns a list of violation descriptions.
    """
    bad = []
    for u in u_samples:
        a = fresh(X.declared_support | nominal.support(u))
        for p in p_probes:
            if X.member(P.amgis(p, u, a)) != X.member(p):
                bad.append(f"condition-1 u={u!r} p={p!r}")
                break
    for a in atom_samples:
        b = fresh(X.declared_support | {a})
        for p in p_probes:
            lhs = X.member(P.amgis(p, P.terms.atm(b), a))
            rhs = X.member(nominal.act(swap(b, a), p))
            if lhs != rhs:
                bad.append(f"condition-2 a={a} p={p!r}")
                break
    return bad


def exactness_check(P: AmgisAlgebra, p, q, u, probes) -> bool:
    """Check one exactness instance: images agreeing at a fresh atom force p=q.

    Returns False only on a witnessed violation (hypothesis holds on the
    probes but p and q differ on them); vacuously True otherwise.
    """
    c = fresh(nominal.support(p) | nominal.support(q) | nominal.support(u))
    if not P.agree(P.amgis(p, u, c), P.amgis(q, u, c), probes):
        return True
    return P.agree(p, q, probes)


def eq_element_member(P: AmgisAlgebra, p, u, v, probes) -> bool:
    """Membership of p in the powerset equality element (u = v).

    Tests p[u <- c] = p[v <- c] at one fresh c, on the probe set when the
    algebra has no decidable element equality.
    """
    c = fresh(nominal.support(p) | nominal.support(u) | nominal.support(v))
    return P.agree(P.amgis(p, u, c), P.amgis(p, v, c), probes)


def sim_subst(alg, x, pairs: Sequence[tuple[Atom, Any]]):
    """Simultaneous substitution via freshened targets.

    The result does not depend on pair order or on the fresh-name choice;
    duplicate target atoms are rejected.
    """
    if not pairs:
        return x
    targets = [a for a, _ in pairs]
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate atom in simultaneous substitution: {targets}")
    avoid = set(targets) | set(nominal.support(x))
    for _, u in pairs:
        avoid |= nominal.support(u)
    fresh_targets = fresh_distinct(avoid, len(pairs))
    pi = nominal.IDENTITY
    for a, a2 in zip(targets, fresh_targets):
        pi = compose(swap(a2, a), pi)
    out = nominal.act(pi, x)
    for a2, (_, u) in zip(fresh_targets, pairs):
        out = alg.subst(out, a2, u)
    return out


# ------------------------------------------------------------ the suites

class Sampler:
    """Random elements, termlikes and atoms for the axiom suites.

    Atoms are drawn from a finite pool so that freshness side-conditions
    can both hold and fail; the suites enforce the side-conditions.
    """

    def __init__(self, element, termlike, pool: tuple[Atom, ...]):
        self.element = element
        self.termlike = termlike
        self.pool = pool

    def atom(self, rng) -> Atom:
        return rng.choice(self.pool)

    def atom_fresh_for(self, rng, *xs_supports) -> Atom:
        avoid = set()
        for s in xs_supports:
            avoid |= s
        options = [a for a in self.pool if a not in avoid]
        if options:
            return rng.choice(options)
        return fresh(avoid)


def _sigma_a(rng, alg, sampler):
    a = sampler.atom(rng)
    u = sampler.termlike(rng)
    lhs = alg.subst(alg.atm(a), a, u)
    if not alg.equal(lhs, u):
        return f"a={a} u={u!r} got {lhs!r}"


def _sigma_id(rng, alg, sampler):
    x = sampler.element(rng)
    a = sampler.atom(rng)
    lhs = alg.subst(x, a, alg.terms.atm(a))
    if not alg.equal(lhs, x):
        return f"x={x!r} a={a} got {lhs!r}"


def _sigma_fresh(rng, alg, sampler):
    x = sampler.element(rng)
    u = sampler.termlike(rng)
    a = sampler.atom_fresh_for(rng, nominal.support(x))
    lhs = alg.subst(x, a, u)
    if not alg.equal(lhs, x):
        return f"x={x!r} a={a} u={u!r} got {lhs!r}"


def _sigma_alpha(rng, alg, sampler):
    x = sampler.element(rng)
    u = sampler.termlike(rng)
    a = sampler.atom(rng)
    b = sampler.atom_fresh_for(rng, nominal.support(x), {a})
    lhs = alg.subst(x, a, u)
    rhs = alg.subst(nominal.act(swap(b, a), x), b, u)
    if not alg.equal(lhs, rhs):
        return f"x={x!r} a={a} b={b} u={u!r}"


def _sigma_sigma(rng, alg, sampler):
    x = sampler.element(rng)
    u = sampler.termlike(rng)
    v = sampler.termlike(rng)
    a = sampler.atom_fresh_for(rng, nominal.support(v))
    b = sampler.atom_fresh_for(rng, {a})
    lhs = alg.subst(alg.subst(x, a, u), b, v)
    rhs = alg.subst(alg.subst(x, b, v), a, alg.terms.subst(u, b, v))
    if not alg.equal(lhs, rhs):
        return f"x={x!r} a={a} u={u!r} b={b} v={v!r}"


# Each law is ``case(rng, alg, sampler)``: None, or a counterexample string.
SIGMA_LAWS = {"sigma-a": _sigma_a, "sigma-id": _sigma_id, "sigma-#": _sigma_fresh,
              "sigma-alpha": _sigma_alpha, "sigma-sigma": _sigma_sigma}


def sigma_axiom_suite(alg: Carrier, sampler: Sampler, n: int, seed: int = 0) -> SuiteReport:
    """Check the five substitution axioms on n random cases each.

    sigma-a runs only on termlike carriers; side-conditions (distinctness
    and freshness) are enforced by construction on every case.
    """
    laws = {name: case for name, case in SIGMA_LAWS.items()
            if alg.atm is not None or name != "sigma-a"}
    return run_laws(laws, n, seed, alg, sampler)


def _amgis_sigma(rng, P, sampler, probes):
    p = sampler.element(rng)
    u = sampler.termlike(rng)
    v = sampler.termlike(rng)
    a = sampler.atom_fresh_for(rng, nominal.support(v))
    b = sampler.atom_fresh_for(rng, {a})
    lhs = P.amgis(P.amgis(p, v, b), u, a)
    rhs = P.amgis(P.amgis(p, P.terms.subst(u, b, v), a), v, b)
    if not P.agree(lhs, rhs, probes):
        return f"p={p!r} u={u!r} v={v!r} a={a} b={b}"


# Each law is ``case(rng, P, sampler, probes)``: None, or a counterexample string.
AMGIS_LAWS = {"amgis-sigma": _amgis_sigma}


def amgis_axiom_suite(P: AmgisAlgebra, sampler: Sampler, n: int,
                      probes: Sequence = (), seed: int = 0) -> SuiteReport:
    """Check amgis-sigma; membership-level over probes for CharSet carriers."""
    return run_laws(AMGIS_LAWS, n, seed, P, sampler, probes)


def precedent_suite() -> SuiteReport:
    """Exhaustive check that removing a fresh atom's members reflects equality.

    Runs over every finite and cofinite atom set supported inside the
    universe a0..a3, with the witness atom a4 fresh for all of them.
    """
    base = atoms(0, 1, 2, 3)
    a = Atom(4)
    sets = []
    for r in range(len(base) + 1):
        for combo in itertools.combinations(base, r):
            sets.append(FinCofinAtomSet(frozenset(combo), False))
            sets.append(FinCofinAtomSet(frozenset(combo), True))
    result = AxiomResult("precedent")
    for x, y in itertools.product(sets, repeat=2):
        if (x == y) != (x.remove(a) == y.remove(a)):
            result.counterexample = f"{x!r} vs {y!r}"
            break
        result.passed += 1
    return SuiteReport([result])
