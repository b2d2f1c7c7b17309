"""Acceptance criteria, one test per criterion, at the stated scales.

Each test prints a single CRITERION line on success so a full run gives a
checkable scoreboard; tolerances are exact equality unless the criterion
says otherwise, and every bound (case counts, depths, domain sizes) is
pinned here rather than configured.
"""
import itertools
import random
import time

from nomfol.nominal import (Atom, FinCofinAtomSet, atoms, support,
                            support_exact)
from nomfol.foleq import foleq_axiom_suite, interpret, interpret_term, sequent_valid
from nomfol.filters import point_sketch, points_amgis, upset, filter_check
from nomfol.samplers import (charset_sampler, probe_terms, tarski_sampler,
                             term_carrier, term_sampler)
from nomfol.sequent import (ProverBudget, _search, check_proof,
                            find_countermodel, generate_derivable, sequent)
from nomfol.sigma import amgis_axiom_suite, pow_amgis, sigma_axiom_suite
from nomfol.syntax import (Signature, alpha_eq, default_signature, free_atoms,
                           parse_formula, random_formula, random_term,
                           subst_formula)
from nomfol.tarski import (agreement_check, all_valuations,
                           lift_interpretation, random_model, random_tablefun,
                           standard_eval, tarski_algebra, tarski_termlike,
                           tf_const, tf_freshmeet, tf_meet, tf_subst)

sig = default_signature()
sigP = Signature((), (("P", 1),))


def ok(num, label):
    print(f"CRITERION {num:02d} {label} PASS")


def test_criterion_01_sigma_suite():
    t0 = time.time()
    rep = sigma_axiom_suite(term_carrier(), term_sampler(sig), 1000, seed=101)
    assert rep.ok, "\n".join(rep.lines())
    assert all(r.passed == 1000 for r in rep.results)
    for k in (2, 3):
        rep = sigma_axiom_suite(tarski_termlike(k), tarski_sampler(k), 1000,
                                seed=100 + k)
        assert rep.ok, f"k={k}\n" + "\n".join(rep.lines())
        assert all(r.passed == 1000 for r in rep.results)
    elapsed = time.time() - t0
    assert elapsed < 30, f"sigma suites took {elapsed:.1f}s"
    ok(1, f"sigma-axioms terms+lift ({elapsed:.1f}s)")


def test_criterion_02_amgis_membership():
    probes = probe_terms(sig)[:100]
    assert len(probes) == 100
    rep = amgis_axiom_suite(pow_amgis(term_carrier()), charset_sampler(sig),
                            500, probes, seed=102)
    assert rep.ok, "\n".join(rep.lines())
    assert rep.results[0].passed == 500
    ok(2, "amgis-sigma on the term powerset, 500x100")


def test_criterion_03_foleq_suite():
    t0 = time.time()
    for k in (1, 2, 3):
        rep = foleq_axiom_suite(tarski_algebra(k), tarski_sampler(k, truth=True),
                                500, seed=103 + k)
        assert rep.ok, f"k={k}\n" + "\n".join(rep.lines())
        assert all(r.passed == 500 for r in rep.results)
    elapsed = time.time() - t0
    assert elapsed < 60, f"foleq suites took {elapsed:.1f}s"
    ok(3, f"foleq-axioms lift k=1,2,3 ({elapsed:.1f}s)")


def test_foleq_suite_k4():
    # the k = 4 leg of criterion 03, kept apart so the criterion's gate holds
    rep = foleq_axiom_suite(tarski_algebra(4), tarski_sampler(4, truth=True), 500,
                            seed=107)
    assert rep.ok, "\n".join(rep.lines())
    assert all(r.passed == 500 for r in rep.results)


def test_criterion_04_soundness():
    rng = random.Random(104)
    pool = atoms(0, 1, 2)
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        s, p = generate_derivable(sig, seed, steps=8, pool=pool)[-1]
        assert check_proof(p)[0]
        checked += 1
        for _ in range(20):
            N = random_model(sig, rng.randint(1, 3), rng)
            assert sequent_valid(s.left, s.right, lift_interpretation(N)), \
                (seed, s)
            for vs in all_valuations(s.free_atoms(), N.k):
                holds = all(standard_eval(f, N, vs) for f in s.left)
                concl = any(standard_eval(f, N, vs) for f in s.right)
                assert (not holds) or concl, (seed, s, vs)
    ok(4, "soundness of 200 derivable sequents in 20 models each")


def test_criterion_05_agreement():
    rng = random.Random(105)
    pool = atoms(0, 1, 2)
    for i in range(300):
        phi = random_formula(sig, rng, pool, 4)
        assert len(free_atoms(phi)) <= 3
        N = random_model(sig, rng.randint(1, 3), rng)
        assert agreement_check(phi, N), (i, phi, N.format())
    ok(5, "lifted semantics equals brute-force semantics, 300 formulas")


def test_criterion_06_substitution_compositionality():
    rng = random.Random(106)
    pool = atoms(0, 1, 2)
    for i in range(300):
        N = random_model(sig, rng.randint(1, 3), rng)
        I = lift_interpretation(N)
        phi = random_formula(sig, rng, pool, 3)
        r = random_term(sig, rng, pool, 2)
        q = rng.choice(pool)
        lhs = interpret(subst_formula(phi, q, r), I)
        rhs = I.algebra.subst(interpret(phi, I), q, interpret_term(r, I))
        assert lhs == rhs, (i, phi, q, r)
    ok(6, "interpretation commutes with substitution, 300 cases")


def test_criterion_07_freshmeet_finite_refinement():
    rng = random.Random(107)
    pool = atoms(0, 1, 2)
    for i in range(200):
        k = rng.randint(1, 3)
        f = random_tablefun(k, rng, pool, outputs=None)
        q = rng.choice(pool)
        finite = tf_const(k, True)
        for x in range(k):
            finite = tf_meet(finite, tf_subst(f, q, tf_const(k, x)))
        assert tf_freshmeet(q, f) == finite, (i, f, q)
    ok(7, "fresh limit equals finite meet over constants, 200 cases")


def test_criterion_08_prover_countermodel_consistency():
    rng = random.Random(108)
    pool = atoms(0, 1)
    proved = refuted = both = 0
    budget = ProverBudget(max_depth=6)
    for i in range(500):
        if i % 3 == 0:
            s, _ = generate_derivable(sigP, 10_000 + i, steps=4, pool=pool)[-1]
        else:
            nl = rng.randint(0, 1)
            s = sequent([random_formula(sigP, rng, pool, 2) for _ in range(nl)],
                        [random_formula(sigP, rng, pool, 2)])
        # the unguarded search, so that a proof of a refuted sequent shows
        p = _search(s, budget, sigP)
        cm = find_countermodel(s, sigP, 2)
        if p is not None:
            proved += 1
            assert check_proof(p)[0]
        if cm is not None:
            refuted += 1
            model, vs = cm
            assert all(standard_eval(f, model, vs) for f in s.left)
            assert not any(standard_eval(f, model, vs) for f in s.right)
        if p is not None and cm is not None:
            both += 1
    assert both == 0
    assert proved >= 50 and refuted >= 50, (proved, refuted)
    ok(8, f"prover/countermodel exclusive over 500 sequents "
          f"({proved} proved, {refuted} refuted)")


def test_criterion_09_support_exactness():
    rng = random.Random(109)
    pool = atoms(0, 1, 2, 3)
    for i in range(1000):
        roll = i % 3
        if roll == 0:
            x = random_term(sig, rng, pool, 3)
            assert support_exact(x, lambda s, t: s == t, pool)
        elif roll == 1:
            x = random_formula(sig, rng, pool, 3)
            assert support_exact(x, alpha_eq, pool)
        else:
            k = rng.choice((2, 3))
            x = random_tablefun(k, rng, pool, outputs=rng.choice((None, k)))
            assert support_exact(x, lambda s, t: s == t, pool)
    ok(9, "swap-with-fresh support oracle agrees on 1000 cases")


GOLDEN_SKETCH = [
    "STEP 0 PAIR (a0, P(a1)) SIDE filter",
    "STEP 1 PAIR (a1, P(c)) SIDE filter",
    "STEP 2 PAIR (a2, R) SIDE filter",
    "STEP 3 PAIR (a0, R) SIDE filter",
]


def test_criterion_10_filter_machinery():
    rng = random.Random(110)
    pool = atoms(0, 1, 2)
    budget = ProverBudget(max_depth=6)
    seeds = [parse_formula(t, sig) for t in
             ("P(a)", "P(a) /\\ Q(a, b)", "forall x. P(x)", "Q(c, c)")]

    # sigma.iff for points: exact by construction, 500 samples
    for i in range(500):
        p = upset(seeds[i % len(seeds)], budget, sig)
        phi = random_formula(sig, rng, pool, 2)
        u = random_term(sig, rng, pool, 1)
        q = rng.choice(pool)
        assert points_amgis(p, u, q).member(phi) == \
            p.member(subst_formula(phi, q, u))

    # bus.filter preservation on 50 sampled (p, u, a), restricted universes
    universe = [parse_formula(t, sig) for t in
                ("P(a)", "Q(a, b)", "P(a) /\\ Q(a, b)", "P(b)", "top",
                 "P(a) \\/ Q(a, b)")]
    for i in range(50):
        p = upset(seeds[i % len(seeds)], budget, sig)
        u = random_term(sig, rng, pool, 1)
        q = rng.choice(pool)
        img = points_amgis(p, u, q)
        restricted = [phi for phi in universe
                      if p.member(subst_formula(phi, q, u))]
        rep = filter_check(img, restricted, budget, sig)
        assert not any("condition-1" in v or "condition-3" in v
                       for v in rep.violations), rep.lines()

    # sketch disjointness over a 10-run corpus with fixed seeds
    for i in range(10):
        sk = point_sketch(seeds[i % len(seeds)], 4, budget, sig)
        assert sk.disjoint_on_queries(), sk.transcript

    # golden transcript stability
    sk = point_sketch(parse_formula("P(c)", sig), 4, budget, sig)
    assert sk.transcript == GOLDEN_SKETCH
    ok(10, "filter machinery: sigma.iff, bus.filter, sketch disjointness")


def test_criterion_11_precedent_exhaustive():
    base = atoms(0, 1, 2, 3)
    witness = Atom(4)
    sets = []
    for r in range(5):
        for combo in itertools.combinations(base, r):
            sets.append(FinCofinAtomSet(frozenset(combo), False))
            sets.append(FinCofinAtomSet(frozenset(combo), True))
    assert len(sets) == 32
    for x in sets:
        assert witness not in support(x)
        for y in sets:
            assert (x == y) == (x.remove(witness) == y.remove(witness))
    ok(11, "fresh-atom restriction reflects equality, exhaustive 32x32")
