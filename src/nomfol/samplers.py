"""Carrier descriptors and random samplers for the axiom suites.

Probe sets are all terms up to depth 2 over the active signature and
three atoms: small, deterministic, and enough to exercise the
binder interactions the membership-level laws care about.
"""
from __future__ import annotations

import itertools
import random

from .nominal import atoms
from .sigma import Carrier, CharSet, Sampler
from .syntax import (App, Signature, Term, Var, alpha_key, free_atoms_term,
                     random_formula, random_term, subst_formula, subst_term)
from .tarski import random_tablefun


def term_carrier() -> Carrier:
    """First-order terms as a termlike algebra; substitution is the real one."""
    return Carrier(subst=subst_term, equal=lambda s, t: s == t, atm=Var)


def formula_carrier() -> Carrier:
    """Predicates over terms; equality is alpha-equivalence."""
    return Carrier(
        subst=subst_formula,
        equal=lambda phi, psi: alpha_key(phi) == alpha_key(psi),
        terms=term_carrier(),
    )


POOL = atoms(0, 1, 2, 3, 4)  # the atoms every sampler draws from


def term_sampler(sig: Signature) -> Sampler:
    gen = lambda rng: random_term(sig, rng, POOL, rng.randint(0, 3))
    return Sampler(element=gen, termlike=gen, pool=POOL)


def formula_sampler(sig: Signature) -> Sampler:
    return Sampler(
        element=lambda rng: random_formula(sig, rng, POOL, rng.randint(0, 3)),
        termlike=lambda rng: random_term(sig, rng, POOL, rng.randint(0, 2)),
        pool=POOL,
    )


def tarski_sampler(k: int, truth: bool = False) -> Sampler:
    """Random canonical TableFuns; termlike side is domain-valued."""
    return Sampler(
        element=lambda rng: random_tablefun(k, rng, POOL,
                                            outputs=None if truth else k),
        termlike=lambda rng: random_tablefun(k, rng, POOL, outputs=k),
        pool=POOL,
    )


def probe_terms(sig: Signature) -> list[Term]:
    """All terms up to depth 2 over the signature and the atoms a0, a1, a2."""
    base: list[Term] = [Var(a) for a in atoms(0, 1, 2)]
    layer = list(base)
    for _ in range(2):
        new: list[Term] = []
        for name, ar in sig.functions:
            for combo in itertools.product(layer if ar else [()], repeat=max(ar, 1)):
                args = combo if ar else ()
                new.append(App(name, tuple(args)))
        layer = base + new
    out, seen = [], set()
    for t in layer:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def term_charset(sig: Signature, rng: random.Random) -> CharSet:
    """A random finitely supported set of terms, as a membership oracle."""
    kind = rng.randrange(4)
    if kind == 0:
        sample = [random_term(sig, rng, POOL, rng.randint(0, 2))
                  for _ in range(rng.randint(1, 4))]
        cs = CharSet(lambda t, ss=tuple(sample): t in ss,
                     frozenset().union(*(free_atoms_term(t) for t in sample)),
                     "finite")
    elif kind == 1:
        a = rng.choice(POOL)
        cs = CharSet(lambda t, a=a: a in free_atoms_term(t), frozenset((a,)),
                     f"mentions-{a}")
    elif kind == 2 and sig.functions:
        name, _ = rng.choice(sig.functions)
        cs = CharSet(lambda t, n=name: isinstance(t, App) and t.fn == n,
                     frozenset(), f"head-{name}")
    else:
        d = rng.randint(0, 2)
        cs = CharSet(lambda t, d=d: _depth(t) <= d, frozenset(), f"depth<={d}")
    if rng.random() < 0.3:
        inner = cs
        cs = CharSet(lambda t, i=inner: not i.member(t), inner.declared_support,
                     f"not-{inner.label}")
    return cs


def _depth(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    return 1 + max((_depth(s) for s in t.args), default=0)


def charset_sampler(sig: Signature) -> Sampler:
    return Sampler(
        element=lambda rng: term_charset(sig, rng),
        termlike=lambda rng: random_term(sig, rng, POOL, rng.randint(0, 2)),
        pool=POOL,
    )
