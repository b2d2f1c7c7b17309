"""Filters, ideals, growth, the amgis-action on predicate sets, point sketches.

Deductive closure is undecidable, so every notion here is relativised to a
prover budget and a finite universe of formulas; a passing report is a
bounded observation, never a completeness claim.  Membership oracles are
lazy and memoised; the filters themselves are never materialised.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .nominal import Atom, act, fresh_distinct, support, swap
from .sequent import ProverBudget, prove, sequent
from .syntax import (All, And, BOT, Formula, Neg, Or, Signature, Var,
                     alpha_key, free_atoms, pretty, random_formula,
                     subst_formula)

MAX_DISJUNCTION_WIDTH = 2  # Y-subsets tried when growing an ideal


@dataclass
class PredSet:
    """A set of predicates given by an alpha-invariant membership oracle.

    ``support`` is the set's support as its constructor works it out from
    its inputs; the fresh atoms of the checks avoid it.
    """

    oracle: Callable[[Formula], bool]
    provenance: str
    generators: tuple[Formula, ...] = ()
    budget: ProverBudget = ProverBudget()
    sig: Signature | None = None
    support: frozenset[Atom] = frozenset()
    _memo: dict = field(default_factory=dict, repr=False)

    def member(self, phi: Formula) -> bool:
        k = alpha_key(phi)
        if k not in self._memo:
            self._memo[k] = self.oracle(phi)
        return self._memo[k]

    def __repr__(self):
        gens = ", ".join(pretty(g) for g in self.generators)
        return f"PredSet<{self.provenance}: {gens}>"


def _entails(phi: Formula, psi: Formula, b: ProverBudget, sig: Signature) -> bool:
    return prove(sequent([phi], [psi]), b, sig) is not None


def upset(phi: Formula, b: ProverBudget, sig: Signature) -> PredSet:
    """Everything the formula provably entails, under the budget."""
    return PredSet(lambda xi: _entails(phi, xi, b, sig), "upset", (phi,), b, sig,
                   free_atoms(phi))


def downset(phi: Formula, b: ProverBudget, sig: Signature) -> PredSet:
    """Everything that provably entails the formula, under the budget."""
    return PredSet(lambda xi: _entails(xi, phi, b, sig), "downset", (phi,), b, sig,
                   free_atoms(phi))


@dataclass
class CheckReport:
    subject: str
    budget: ProverBudget
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        head = f"CHECK {self.subject} depth={self.budget.max_depth}"
        if self.ok:
            return [f"{head} OK"]
        return [head] + [f"VIOLATION {v}" for v in self.violations]


def filter_check(p: PredSet, universe: Sequence[Formula], b: ProverBudget,
                 sig: Signature) -> CheckReport:
    """The four filter conditions, relative to the universe and budget.

    The new-quantifier condition is sampled at three fresh atoms; one
    would do by the some/any property, the extras are a consistency check.

    Each implication asks its memoised conclusion before its premise: a
    consequence already in p is never proved, and a universal already in
    p needs none of its fresh instances.  The report is the same in
    either order; the work-count tests in ``tests/test_filters.py`` pin
    this one.
    """
    rep = CheckReport(p.provenance, b)
    if p.member(BOT):
        rep.violations.append("condition-1: bottom is a member")
    members = [phi for phi in universe if p.member(phi)]
    for phi in members:
        for xi in universe:
            if not p.member(xi) and _entails(phi, xi, b, sig):
                rep.violations.append(
                    f"condition-2: {pretty(phi)} |- {pretty(xi)} but consequence missing")
    for phi, psi in itertools.combinations(members, 2):
        if not p.member(And(phi, psi)):
            rep.violations.append(
                f"condition-3: conjunction of {pretty(phi)} and {pretty(psi)} missing")
    seen = set()
    for phi in universe:
        for a in sorted(free_atoms(phi)):
            key = (alpha_key(phi), a)
            if key in seen:
                continue
            seen.add(key)
            if p.member(All(a, phi)):
                continue
            bs = fresh_distinct(free_atoms(phi) | p.support, 3)
            if all(p.member(act(swap(bb, a), phi)) for bb in bs):
                rep.violations.append(
                    f"condition-4: fresh instances of {pretty(phi)} present "
                    f"but forall {a} missing")
    return rep


def grow_filter(p: PredSet, psi: Formula) -> PredSet:
    """Close p under an extra conjunct; p and psi are members by construction."""
    b, sig = p.budget, p.sig
    gens = tuple(And(g, psi) for g in p.generators)
    psi_key = alpha_key(psi)

    def oracle(xi: Formula) -> bool:
        return (alpha_key(xi) == psi_key or p.member(xi)
                or any(_entails(g, xi, b, sig) for g in gens))

    return PredSet(oracle, "grown", gens, b, sig, p.support | free_atoms(psi))


def grow_ideal(z: PredSet, ys: Sequence[Formula]) -> PredSet:
    """Down-close z against disjunctions with members of ys, width-bounded."""
    b, sig = z.budget, z.sig
    ys = tuple(ys)
    y_keys = {alpha_key(y) for y in ys}
    targets = [functools.reduce(Or, combo, gen) for gen in z.generators
               for width in range(1, MAX_DISJUNCTION_WIDTH + 1)
               for combo in itertools.combinations(ys, width)]

    def oracle(xi: Formula) -> bool:
        return (z.member(xi) or alpha_key(xi) in y_keys
                or any(_entails(xi, t, b, sig) for t in targets))

    return PredSet(oracle, "grown-ideal", z.generators, b, sig,
                   z.support.union(*map(free_atoms, ys)))


def points_amgis(p: PredSet, u, a: Atom) -> PredSet:
    """The amgis-action on predicate sets: test membership after substituting."""
    return PredSet(lambda phi: p.member(subst_formula(phi, a, u)),
                   "amgis-image", (), p.budget, p.sig,
                   p.support | support(u) | {a})


def forall_membership_check(p: PredSet, a: Atom, phi: Formula,
                            candidates: Sequence, b: ProverBudget) -> CheckReport:
    """Universal members must instantiate to members, for terms and fresh atoms."""
    rep = CheckReport("forall-membership", b)
    if not p.member(All(a, phi)):
        return rep
    for u in candidates:
        if not p.member(subst_formula(phi, a, u)):
            rep.violations.append(f"instance at candidate term missing: {u!r}")
    for n in fresh_distinct(free_atoms(phi) | p.support | {a}, 2):
        if not p.member(subst_formula(phi, a, Var(n))):
            rep.violations.append(f"instance at fresh atom {n} missing")
    return rep


def prime_check(p: PredSet, disjunction_samples: Sequence[tuple[Formula, Formula]],
                dichotomy_samples: Sequence[Formula] = ()) -> CheckReport:
    """Primality on sampled disjunctions, and the ultrafilter dichotomy.

    Upsets of consistent non-maximal formulas are expected to fail the
    dichotomy; that is reported, not an error.
    """
    rep = CheckReport("prime", p.budget)
    for phi1, phi2 in disjunction_samples:
        if p.member(Or(phi1, phi2)) and not (p.member(phi1) or p.member(phi2)):
            rep.violations.append(
                f"prime: has {pretty(Or(phi1, phi2))} but neither disjunct")
    for phi in dichotomy_samples:
        count = int(p.member(phi)) + int(p.member(Neg(phi)))
        if count != 1:
            rep.violations.append(
                f"dichotomy: {pretty(phi)} in={p.member(phi)} neg-in={p.member(Neg(phi))}")
    return rep


# --------------------------------------------------------- point sketch

@dataclass
class PointSketch:
    filter_side: PredSet
    ideal_side: PredSet
    transcript: list[str]
    queried: list[Formula]

    def disjoint_on_queries(self) -> bool:
        return not any(self.filter_side.member(phi) and self.ideal_side.member(phi)
                       for phi in self.queried)


def enumerate_pairs(sig: Signature, count: int) -> list[tuple[Atom, Formula]]:
    """A deterministic stream of (atom, formula) pairs to process."""
    rng = random.Random(7)
    pool = tuple(Atom(i) for i in range(3))
    out = []
    while len(out) < count:
        a = pool[len(out) % len(pool)]
        phi = random_formula(sig, rng, pool, 1 + len(out) % 2)
        out.append((a, phi))
    return out


def point_sketch(seed_formula: Formula, steps: int, b: ProverBudget,
                 sig: Signature,
                 on_line: Callable[[str], object] | None = None) -> PointSketch:
    """Run the first steps of the filter-ideal chain, prover-bounded.

    A clash is a tentative filter generator in the ideal side.  The ideal
    starts as ``downset(BOT)``, and growing it keeps every member, so it
    contains every generator that provably entails bottom.  A clash
    diverts the pair to the ideal, which grows by finitely many fresh
    alpha-copies; the bounded prover may misclassify, so the sketch is
    approximate by design and each step is labelled in the transcript.
    ``on_line``, if given, is called with each transcript line as soon as
    its step is decided.
    """
    if prove(sequent([seed_formula], [BOT]), b, sig) is not None:
        raise ValueError("seed formula is inconsistent under the budget")
    flt = upset(seed_formula, b, sig)
    idl = downset(BOT, b, sig)
    transcript: list[str] = []
    queried: list[Formula] = []
    for i, (a, phi) in enumerate(enumerate_pairs(sig, steps)):
        label = f"STEP {i} PAIR ({a.name}, {pretty(phi)})"
        candidate = All(a, phi)
        queried.append(candidate)
        tentative = grow_filter(flt, candidate)
        clash = any(idl.member(g) for g in tentative.generators)
        if not clash:
            flt = tentative
            side = "filter"
        else:
            bs = fresh_distinct(free_atoms(phi) | flt.support | {a}, 3)
            family = [act(swap(bb, a), phi) for bb in bs]
            idl = grow_ideal(idl, family)
            queried.extend(family)
            side = "ideal"
        transcript.append(f"{label} SIDE {side}")
        if on_line is not None:
            on_line(transcript[-1])
    return PointSketch(flt, idl, transcript, queried)
