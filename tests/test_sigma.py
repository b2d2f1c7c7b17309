import random

import pytest

from nomfol.nominal import FinCofinAtomSet, act, atoms, fresh, support, swap
from nomfol.report import SuiteReport
from nomfol.samplers import (charset_sampler, formula_carrier,
                             formula_sampler, probe_terms, term_carrier,
                             term_sampler)
from nomfol.sigma import (AmgisAlgebra, CharSet, amgis_axiom_suite,
                          charsets_agree, eq_element_member, exactness_check,
                          pow_amgis, powamgis_action, powsigma_action,
                          powsigma_conditions, precedent_suite,
                          sigma_axiom_suite, sim_subst)
from nomfol.syntax import (App, Var, alpha_eq, default_signature,
                           free_atoms_term, random_term)

sig = default_signature()
terms = term_carrier()
formulas = formula_carrier()
a, b, c3, d = atoms(0, 1, 2, 3)
P = pow_amgis(terms)
PROBES = probe_terms(sig)[:100]


def fterm(t):
    return App("f", (t,))


def test_hand_computed_substitution_examples():
    # sigma-a: a[a := f(b)] = f(b)
    assert terms.subst(Var(a), a, fterm(Var(b))) == fterm(Var(b))
    # sigma-id on an application
    t = App("g", (Var(a), Var(b)))
    assert terms.subst(t, a, Var(a)) == t
    # sigma-sigma with a # v: both orders give g(f(c), c)
    u, v = fterm(Var(b)), App("c", ())
    lhs = terms.subst(terms.subst(t, a, u), b, v)
    rhs = terms.subst(terms.subst(t, b, v), a, terms.subst(u, b, v))
    assert lhs == rhs == App("g", (fterm(App("c", ())), App("c", ())))


def test_sigma_suite_terms():
    rep = sigma_axiom_suite(terms, term_sampler(sig), 1000, seed=1)
    assert rep.ok, "\n".join(rep.lines())
    names = [r.name for r in rep.results]
    assert names == ["sigma-a", "sigma-id", "sigma-#", "sigma-alpha", "sigma-sigma"]
    assert all(r.passed == 1000 for r in rep.results)


def test_sigma_suite_formulas_no_sigma_a():
    rep = sigma_axiom_suite(formulas, formula_sampler(sig), 400, seed=2)
    assert rep.ok, "\n".join(rep.lines())
    assert [r.name for r in rep.results] == ["sigma-id", "sigma-#", "sigma-alpha",
                                             "sigma-sigma"]


def test_suite_report_format():
    rep = sigma_axiom_suite(terms, term_sampler(sig), 5, seed=3)
    for line in rep.lines():
        assert line.startswith("AXIOM sigma-") and " PASS 5" in line
    from nomfol.report import AxiomResult
    broken = SuiteReport([AxiomResult("bad", 2, "x=1 y=2")])
    assert broken.lines() == ["AXIOM bad FAIL x=1 y=2"]


def test_powamgis_membership():
    fc = fterm(App("c", ()))
    p = CharSet(lambda t: t == fc, free_atoms_term(fc), "={f(c)}")
    out = powamgis_action(terms, p, App("c", ()), b)
    # f(b)[b := c] = f(c)
    assert out.member(fterm(Var(b)))
    assert not out.member(fterm(Var(a)))
    everything = CharSet(lambda t: True, frozenset(), "all")
    out2 = powamgis_action(terms, everything, Var(a), b)
    assert all(out2.member(t) for t in PROBES)


def test_prop_sigma_iff_500():
    rng = random.Random(4)
    sampler = charset_sampler(sig)
    for _ in range(500):
        p = sampler.element(rng)
        u = sampler.termlike(rng)
        q = sampler.atom(rng)
        x = random_term(sig, rng, sampler.pool, 2)
        assert P.amgis(p, u, q).member(x) == p.member(terms.subst(x, q, u))
        ids = list(range(5))
        rng.shuffle(ids)
        from nomfol.nominal import Perm, Atom
        pi = Perm({Atom(i): Atom(j) for i, j in enumerate(ids)})
        assert act(pi, p).member(x) == p.member(act(pi.inverse(), x))


def test_amgis_suite_powamgis():
    rep = amgis_axiom_suite(P, charset_sampler(sig), 300, PROBES, seed=5)
    assert rep.ok, "\n".join(rep.lines())


def test_amgis_trivial_algebra():
    triv = AmgisAlgebra(lambda p, u, q: p, terms, equal=lambda p, q: p == q)
    sampler = charset_sampler(sig)
    sampler = type(sampler)(element=lambda rng: "*",
                            termlike=sampler.termlike, pool=sampler.pool)
    rep = amgis_axiom_suite(triv, sampler, 50, seed=6)
    assert rep.ok


def test_amgis_mentions_example():
    # p = terms containing atom a, checked at 100 probes
    p = CharSet(lambda t: a in free_atoms_term(t), frozenset((a,)), "mentions-a")
    u, v = Var(a), fterm(Var(b))
    q1 = fresh(support(p) | {a, b})
    q2 = fresh(support(p) | {a, b, q1})
    lhs = P.amgis(P.amgis(p, v, q2), u, q1)
    rhs = P.amgis(P.amgis(p, terms.subst(u, q2, v), q1), v, q2)
    assert charsets_agree(lhs, rhs, PROBES)


def test_powsigma_fresh_and_id():
    p0 = CharSet(lambda t: a in free_atoms_term(t), frozenset((a,)), "mentions-a")
    X = CharSet(lambda q: q.member(Var(a)), frozenset((a,)), "has-var-a")
    probes_p = [CharSet(lambda t, s=t0: t == s, free_atoms_term(t0), "unit")
                for t0 in PROBES[:30]] + [p0]
    # a' fresh for X: X[a' := u] = X on probes
    out = powsigma_action(P, X, d, fterm(Var(b)))
    assert all(out.member(q) == X.member(q) for q in probes_p)
    # X[a := a] = X on probes
    out2 = powsigma_action(P, X, a, Var(a))
    assert all(out2.member(q) == X.member(q) for q in probes_p)


def test_powsigma_sub_sub_membership():
    # the substitution-composition law at membership level, 100 probes
    X = CharSet(lambda q: q.member(Var(a)) and q.member(Var(b)),
                frozenset((a, b)), "has-a-and-b")
    u, v = fterm(Var(c3)), App("c", ())
    probes_p = [CharSet(lambda t, s=t0: t == s, free_atoms_term(t0), "unit")
                for t0 in PROBES[:100]]
    lhs = powsigma_action(P, powsigma_action(P, X, a, u), b, v)
    rhs = powsigma_action(P, powsigma_action(P, X, b, v), a,
                          terms.subst(u, b, v))
    assert all(lhs.member(q) == rhs.member(q) for q in probes_p)


def test_powsigma_conditions_validator():
    X = CharSet(lambda q: q.member(Var(a)), frozenset((a,)), "has-var-a")
    probes_p = [CharSet(lambda t, s=t0: t == s, free_atoms_term(t0), "unit")
                for t0 in PROBES[:20]]
    us = [Var(b), fterm(Var(b)), App("c", ())]
    bad = powsigma_conditions(P, X, us, probes_p, atom_samples=(a, b))
    assert bad == []
    # the same set with a0 left out of its declared support breaks both
    undeclared = CharSet(X.member, frozenset(), "undeclared-a")
    bad = powsigma_conditions(P, undeclared, [Var(b)], probes_p, atom_samples=(b,))
    assert bad == ["condition-1 u=a1 p=CharSet(unit, supp=[a0])",
                   "condition-2 a=a1 p=CharSet(unit, supp=[a0])"]


def test_exactness():
    p = CharSet(lambda t: a in free_atoms_term(t), frozenset((a,)), "mentions-a")
    assert exactness_check(P, p, p, Var(a), PROBES)
    q = CharSet(lambda t: b in free_atoms_term(t), frozenset((b,)), "mentions-b")
    # hypothesis fails at the fresh witness, so vacuously consistent
    assert exactness_check(P, p, q, Var(a), PROBES)


def test_exactness_flags_violation():
    bogus = AmgisAlgebra(lambda p, u, q: CharSet(lambda t: True, frozenset(), "all"),
                         terms)
    p = CharSet(lambda t: True, frozenset(), "all")
    q = CharSet(lambda t: False, frozenset(), "none")
    assert not exactness_check(bogus, p, q, Var(a), PROBES)


def test_sim_subst():
    t = App("g", (Var(a), Var(b)))
    out = sim_subst(terms, t, [(a, Var(b)), (b, Var(a))])
    assert out == App("g", (Var(b), Var(a)))
    assert sim_subst(terms, t, []) == t
    # order independence
    out2 = sim_subst(terms, t, [(b, Var(a)), (a, Var(b))])
    assert out == out2
    # fresh targets agree with sequential composition
    u1, u2 = fterm(Var(a)), App("c", ())
    seq = terms.subst(terms.subst(t, c3, u1), d, u2)
    sim = sim_subst(terms, t, [(c3, u1), (d, u2)])
    assert sim == seq
    with pytest.raises(ValueError):
        sim_subst(terms, t, [(a, Var(b)), (a, Var(b))])


def test_sim_subst_formulas():
    from nomfol.syntax import All, Pred
    phi = All(b, Pred("Q", (Var(a), Var(b))))
    out = sim_subst(formulas, phi, [(a, Var(b))])
    assert alpha_eq(out, All(c3, Pred("Q", (Var(b), Var(c3)))))


def test_eq_element_member():
    p = CharSet(lambda t: a in free_atoms_term(t), frozenset((a,)), "mentions-a")
    u = fterm(Var(b))
    assert eq_element_member(P, p, u, u, PROBES)
    # p can tell a from b, witnessed by a probe variable
    assert not eq_element_member(P, p, Var(a), Var(b), PROBES)
    triv = AmgisAlgebra(lambda p, u, q: p, terms, equal=lambda p, q: p == q)
    assert eq_element_member(triv, "*", Var(a), Var(b), ())


def test_fresh_sub_lemma():
    # a # u implies a # x[a := u], on the term algebra
    rng = random.Random(14)
    pool = atoms(0, 1, 2, 3)
    for _ in range(300):
        x = random_term(sig, rng, pool, 3)
        q = rng.choice(pool)
        u = random_term(sig, rng, tuple(t for t in pool if t != q), 2)
        assert q not in free_atoms_term(terms.subst(x, q, u))


def test_sub_alpha_lemma_exact():
    # b # x implies x[a := b] = (b a).x exactly on the term algebra
    rng = random.Random(15)
    pool = atoms(0, 1, 2)
    for _ in range(300):
        x = random_term(sig, rng, pool, 3)
        q = rng.choice(pool)
        w = fresh(free_atoms_term(x) | {q})
        assert terms.subst(x, q, Var(w)) == act(swap(w, q), x)


def test_amgis_swap_membership():
    # a # v and b # u allow the two amgis actions to commute
    rng = random.Random(16)
    sampler = charset_sampler(sig)
    for _ in range(100):
        p = sampler.element(rng)
        u = random_term(sig, rng, (a, c3), 2)
        v = random_term(sig, rng, (b, d), 2)
        q1 = fresh(free_atoms_term(v) | support(p) | free_atoms_term(u))
        q2 = fresh(free_atoms_term(u) | support(p) | free_atoms_term(v) | {q1})
        lhs = P.amgis(P.amgis(p, u, q1), v, q2)
        rhs = P.amgis(P.amgis(p, v, q2), u, q1)
        assert charsets_agree(lhs, rhs, PROBES[:40])


def test_eq_strong_appendix():
    # the one-fresh-atom equality test agrees with five more fresh atoms;
    # probes are renamed along with the witness, since probe-level set
    # equality only sees the probe vocabulary
    rng = random.Random(17)
    sampler = charset_sampler(sig)
    from nomfol.nominal import fresh_distinct
    for _ in range(60):
        p = sampler.element(rng)
        u = sampler.termlike(rng)
        v = sampler.termlike(rng)
        base = support(p) | free_atoms_term(u) | free_atoms_term(v)
        witnesses = fresh_distinct(base, 6)
        first = witnesses[0]
        one = eq_element_member(P, p, u, v, PROBES[:40])
        for w in witnesses[1:]:
            lhs = P.amgis(p, u, w)
            rhs = P.amgis(p, v, w)
            moved = [act(swap(w, first), t) for t in PROBES[:40]]
            assert charsets_agree(lhs, rhs, moved) == one


def test_powsigma_sigma_alpha_membership():
    # b outside the declared support allows renaming the target atom:
    # X[a := u] and ((b a).X)[b := u] agree on probes
    X = CharSet(lambda q: q.member(Var(a)), frozenset((a,)), "has-var-a")
    u = fterm(App("c", ()))
    w = d  # fresh for X
    probes_p = [CharSet(lambda t, s=t0: t == s, free_atoms_term(t0), "unit")
                for t0 in PROBES[:60]]
    lhs = powsigma_action(P, X, a, u)
    rhs = powsigma_action(P, act(swap(w, a), X), w, u)
    assert all(lhs.member(q) == rhs.member(q) for q in probes_p)


def test_charset_declared_support_genuine():
    # permutations fixing the declared support pointwise leave membership
    # unchanged on sampled elements
    from nomfol.nominal import Perm, Atom
    rng = random.Random(18)
    sampler = charset_sampler(sig)
    for _ in range(150):
        p = sampler.element(rng)
        ids = [i for i in range(8) if Atom(i) not in p.declared_support]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        pi = Perm({Atom(i): Atom(j) for i, j in zip(ids, shuffled)})
        moved = act(pi, p)
        for t in PROBES[:30]:
            assert moved.member(t) == p.member(t)


def test_powamgis_equality_element_law():
    # the equality element absorbs substitution differences on membership:
    # p in (u = v) and p in X[a := u]  iff  p in (u = v) and p in X[a := v]
    rng = random.Random(19)
    X = CharSet(lambda q: q.member(Var(a)), frozenset((a,)), "has-var-a")
    for _ in range(120):
        u = random_term(sig, rng, (a, b), 1)
        v = random_term(sig, rng, (a, b), 1)
        probes_p = [CharSet(lambda t, s=t0: t == s, free_atoms_term(t0), "unit")
                    for t0 in PROBES[:40]]
        left = powsigma_action(P, X, a, u)
        right = powsigma_action(P, X, a, v)
        for p in probes_p:
            e = eq_element_member(P, p, u, v, PROBES[:60])
            assert (e and left.member(p)) == (e and right.member(p)), (u, v)


def test_powsigma_action_commutes_with_boolean_structure():
    # complement and intersection commute with the subset substitution
    # action, at membership level
    rng = random.Random(20)
    X = CharSet(lambda q: q.member(Var(a)), frozenset((a,)), "has-var-a")
    Y = CharSet(lambda q: q.member(Var(b)), frozenset((b,)), "has-var-b")
    comp = CharSet(lambda q: not X.member(q), X.declared_support, "not-X")
    meet = CharSet(lambda q: X.member(q) and Y.member(q),
                   X.declared_support | Y.declared_support, "X-and-Y")
    for _ in range(40):
        u = random_term(sig, rng, (b, c3), 1)
        probes_p = [CharSet(lambda t, s=t0: t == s, free_atoms_term(t0), "unit")
                    for t0 in PROBES[:40]]
        via_comp = powsigma_action(P, comp, a, u)
        for p in probes_p:
            assert via_comp.member(p) == (not powsigma_action(P, X, a, u).member(p))
        via_meet = powsigma_action(P, meet, a, u)
        for p in probes_p:
            assert via_meet.member(p) == (powsigma_action(P, X, a, u).member(p)
                                          and powsigma_action(P, Y, a, u).member(p))


def test_precedent_suite_reports_a_counterexample(monkeypatch):
    # a remove that forgets cofiniteness sends {} and ~{} to the same set
    monkeypatch.setattr(FinCofinAtomSet, "remove",
                        lambda self, a: FinCofinAtomSet(self.base - {a}))
    (result,) = precedent_suite().results
    assert (result.passed, result.counterexample) == (1, "{} vs ~{}")
