import itertools
import random

import pytest

from nomfol import filters, syntax
from nomfol.nominal import act, atoms, fresh_distinct, swap
from nomfol.filters import (CheckReport, PredSet, _entails, downset,
                            enumerate_pairs, filter_check,
                            forall_membership_check, grow_filter, grow_ideal,
                            point_sketch, points_amgis, prime_check, upset)
from nomfol.sequent import ProverBudget
from nomfol.syntax import (All, And, BOT, Neg, Pred, Var, alpha_eq, alpha_key,
                           default_signature, free_atoms, parse_formula,
                           pretty, random_formula, random_term, subst_formula)
from test_syntax import _subformulas

sig = default_signature()
a, b, c3 = atoms(0, 1, 2)
B = ProverBudget(max_depth=6)


def pf(text):
    return parse_formula(text, sig)


def small_universe():
    return [pf("P(a)"), pf("Q(a, b)"), pf("P(a) /\\ Q(a, b)"),
            pf("P(a) \\/ Q(a, b)"), pf("P(b)"), pf("forall x. P(x)"),
            pf("top"), pf("P(a) \\/ ~P(a)")]


def test_upset_membership():
    phi = pf("P(a)")
    up = upset(phi, B, sig)
    assert up.member(phi)
    assert up.member(pf("P(a) \\/ Q(a, b)"))
    assert up.member(pf("top"))
    assert not up.member(BOT)
    assert not up.member(pf("Q(a, b)"))
    # membership is alpha-invariant
    assert upset(pf("forall x. P(x)"), B, sig).member(pf("forall y. P(y)"))


def test_downset_membership():
    phi = pf("P(a) \\/ Q(a, b)")
    down = downset(phi, B, sig)
    assert down.member(pf("P(a)"))
    assert down.member(BOT)
    assert not down.member(pf("top"))


def test_filter_check_upset_clean():
    rep = filter_check(upset(pf("P(a)"), B, sig), small_universe(), B, sig)
    assert rep.ok, rep.lines()
    assert rep.lines() == [f"CHECK upset depth={B.max_depth} OK"]


def test_filter_check_flags_bot_and_gaps():
    everything = PredSet(lambda phi: True, "all", (), B, sig)
    rep = filter_check(everything, [BOT], B, sig)
    assert not rep.ok and any("condition-1" in v for v in rep.violations)

    # every atomic predicate and nothing else: it has every fresh instance
    # of P(a) but no compound consequence, conjunction or universal
    broken = PredSet(lambda phi: isinstance(phi, Pred), "broken", (), B, sig)
    rep2 = filter_check(broken, [pf("P(a)"), pf("Q(a, b)"), pf("P(a) /\\ Q(a, b)"),
                                 pf("P(a) \\/ Q(a, b)")], B, sig)
    assert rep2.lines() == [
        "CHECK broken depth=6",
        "VIOLATION condition-2: P(a0) |- ~(~P(a0) /\\ ~Q(a0, a1)) but consequence missing",
        "VIOLATION condition-2: Q(a0, a1) |- ~(~P(a0) /\\ ~Q(a0, a1)) but consequence missing",
        "VIOLATION condition-3: conjunction of P(a0) and Q(a0, a1) missing",
        "VIOLATION condition-4: fresh instances of P(a0) present but forall a0 missing",
        "VIOLATION condition-4: fresh instances of Q(a0, a1) present but forall a0 missing",
        "VIOLATION condition-4: fresh instances of Q(a0, a1) present but forall a1 missing",
    ]


def ref_filter_check(p, universe, b, sig):
    """The premise-first filter check: every premise proved, every instance sampled."""
    rep = CheckReport(p.provenance, b)
    if p.member(BOT):
        rep.violations.append("condition-1: bottom is a member")
    members = [phi for phi in universe if p.member(phi)]
    for phi in members:
        for xi in universe:
            if _entails(phi, xi, b, sig) and not p.member(xi):
                rep.violations.append(
                    f"condition-2: {pretty(phi)} |- {pretty(xi)} but consequence missing")
    for phi, psi in itertools.combinations(members, 2):
        if not p.member(And(phi, psi)):
            rep.violations.append(
                f"condition-3: conjunction of {pretty(phi)} and {pretty(psi)} missing")
    seen = set()
    for phi in universe:
        for a in sorted(free_atoms(phi), key=lambda x: x.id):
            key = (alpha_key(phi), a)
            if key in seen:
                continue
            seen.add(key)
            bs = fresh_distinct(free_atoms(phi) | p.support, 3)
            if all(p.member(act(swap(bb, a), phi)) for bb in bs):
                if not p.member(All(a, phi)):
                    rep.violations.append(
                        f"condition-4: fresh instances of {pretty(phi)} present "
                        f"but forall {a} missing")
    return rep


CRITERION_10_SEEDS = ("P(a)", "P(a) /\\ Q(a, b)", "forall x. P(x)", "Q(c, c)")
CRITERION_10_UNIVERSE = ("P(a)", "Q(a, b)", "P(a) /\\ Q(a, b)", "P(b)", "top",
                         "P(a) \\/ Q(a, b)")
MIXED_UNIVERSE = CRITERION_10_UNIVERSE + ("forall x. P(x)", "forall x. Q(x, b)",
                                          "~P(a)", "R", "Q(a, b) /\\ R")


def coin_set(seed):
    """A non-filter: a seeded random bit per alpha class."""
    return PredSet(lambda phi: random.Random(f"{seed}|{alpha_key(phi)}").random() < 0.5,
                   f"coin-{seed}", (), B, sig)


def differential_cases():
    """(name, fresh-set factory, universe); each side of a comparison gets its
    own set, so a memo filled in a different query order cannot hide."""
    rng = random.Random(110)
    pool = atoms(0, 1, 2)
    seeds = [pf(t) for t in CRITERION_10_SEEDS]
    mixed = [pf(t) for t in MIXED_UNIVERSE]
    cases = []
    for seed in seeds:
        cases.append((f"upset {pretty(seed)}", lambda s=seed: upset(s, B, sig), mixed))
        cases.append((f"downset {pretty(seed)}", lambda s=seed: downset(s, B, sig), mixed))
        cases.append((f"grown {pretty(seed)}",
                      lambda s=seed: grow_filter(upset(s, B, sig), pf("forall x. Q(x, b)")),
                      mixed))
    for i in range(8):
        seed = seeds[i % len(seeds)]
        u, q = random_term(sig, rng, pool, 1), rng.choice(pool)
        p = upset(seed, B, sig)
        restricted = [phi for phi in mixed[:len(CRITERION_10_UNIVERSE)]
                      if p.member(subst_formula(phi, q, u))]
        for name, universe in (("restricted", restricted), ("mixed", mixed)):
            cases.append((f"amgis-image {name} {i}",
                          lambda s=seed, u=u, q=q: points_amgis(upset(s, B, sig), u, q),
                          universe))
    cases.append(("broken", lambda: PredSet(lambda phi: isinstance(phi, Pred),
                                            "broken", (), B, sig), mixed))
    for seed in range(6):
        cases.append((f"coin {seed}", lambda s=seed: coin_set(s), mixed))
    return cases


def test_filter_check_matches_the_premise_first_reference():
    fired = set()
    for name, make, universe in differential_cases():
        got = filter_check(make(), universe, B, sig)
        want = ref_filter_check(make(), universe, B, sig)
        assert got.lines() == want.lines(), name
        fired.update(v.split(":", 1)[0] for v in got.violations)
    # the cases are not all filters: every condition is seen to fire
    assert fired == {"condition-1", "condition-2", "condition-3", "condition-4"}


def count_prover_calls(monkeypatch):
    calls = []
    real = filters.prove

    def counting(s, *args, **kwargs):
        calls.append(s)
        return real(s, *args, **kwargs)
    monkeypatch.setattr(filters, "prove", counting)
    return calls


def test_filter_check_proves_no_consequence_already_in_the_filter(monkeypatch):
    # criterion 10's images on universes of members; once the memo has
    # every answer, a premise-first check would still prove each pair
    rng = random.Random(110)
    pool = atoms(0, 1, 2)
    seeds = [pf(t) for t in CRITERION_10_SEEDS]
    universe = [pf(t) for t in CRITERION_10_UNIVERSE]
    calls = count_prover_calls(monkeypatch)
    for i in range(8):
        p = upset(seeds[i % len(seeds)], B, sig)
        u, q = random_term(sig, rng, pool, 1), rng.choice(pool)
        img = points_amgis(p, u, q)
        restricted = [phi for phi in universe if img.member(phi)]
        filter_check(img, restricted, B, sig)   # fill the memo for both orders
        want = ref_filter_check(img, restricted, B, sig).lines()
        calls.clear()
        assert filter_check(img, restricted, B, sig).lines() == want
        assert calls == []
        assert ref_filter_check(img, restricted, B, sig).lines() == want
        assert len(calls) == len(restricted) ** 2


def test_filter_check_asks_one_membership_per_present_universal():
    asked = []

    def oracle(phi):
        asked.append(pretty(phi))
        return phi != BOT
    everything_but_bot = PredSet(oracle, "all-but-bottom", (), B, sig)
    rep = filter_check(everything_but_bot, [pf("P(a)"), pf("Q(a, b)")], B, sig)
    assert rep.ok, rep.lines()
    assert asked == ["bottom", "P(a0)", "Q(a0, a1)", "P(a0) /\\ Q(a0, a1)",
                     "forall a0. P(a0)", "forall a0. Q(a0, a1)",
                     "forall a1. Q(a0, a1)"]
    asked.clear()
    ref_filter_check(PredSet(oracle, "all-but-bottom", (), B, sig),
                     [pf("P(a)"), pf("Q(a, b)")], B, sig)
    assert len(asked) == 7 + 3 * 3   # three fresh instances per (phi, a)


def test_amgis_queries_walk_only_new_atoms_and_quantifiers(monkeypatch):
    # 60 sigma-iff pairs, asked as the filters benchmark asks them.
    # subst_formula shares what it leaves alone, and a conjunction's or a
    # negation's key is put together from its children's keys, so only new
    # atoms and quantifiers are walked: 179 walks over 234 nodes.  Rebuilding
    # every node and walking each key's whole tree took 217 walks over 539
    # nodes; sharing alone, 165 over 389; composing alone, 239 over 294.
    walked = []
    real = syntax._alpha_key_walk

    def counting(phi):
        walked.append(phi)
        return real(phi)
    monkeypatch.setattr(syntax, "_alpha_key_walk", counting)
    rng = random.Random(110)
    pool = atoms(0, 1, 2)
    budget = ProverBudget(max_depth=5)
    seeds = [pf(t) for t in CRITERION_10_SEEDS]
    yes = 0
    for i in range(60):
        phi, u, q = (random_formula(sig, rng, pool, 2), random_term(sig, rng, pool, 1),
                     rng.choice(pool))
        p = upset(seeds[i % len(seeds)], budget, sig)
        got = points_amgis(p, u, q).member(phi)
        assert got == p.member(subst_formula(phi, q, u))
        yes += got
    assert yes == 14
    assert not any(isinstance(f, (And, Neg)) for f in walked)
    nodes = sum(1 for f in walked for _ in _subformulas(f))
    assert (len(walked), nodes) == (179, 234)


@pytest.mark.parametrize("steps, depth, proofs", [(4, 6, 5), (8, 5, 15)])
def test_point_sketch_proves_each_clash_test_once(monkeypatch, steps, depth, proofs):
    # the clash test is ideal membership alone: the ideal's oracle already
    # proves g |- bottom, and a second search beside it makes 9 and 22 calls
    calls = count_prover_calls(monkeypatch)
    point_sketch(pf("P(c)"), steps, ProverBudget(max_depth=depth), sig)
    assert len(calls) == proofs


def test_grow_filter():
    up = upset(pf("P(a)"), B, sig)
    grown = grow_filter(up, pf("Q(a, b)"))
    assert grown.member(pf("Q(a, b)"))
    assert grown.member(pf("P(a)"))          # p subset of p + psi
    assert grown.member(pf("P(a) /\\ Q(a, b)"))
    for phi in small_universe():
        if up.member(phi):
            assert grown.member(phi)
    # growing with top changes nothing on the universe
    grown_top = grow_filter(up, pf("top"))
    for phi in small_universe():
        assert grown_top.member(phi) == up.member(phi)


def test_grow_ideal():
    down = downset(BOT, B, sig)
    psi = pf("Q(a, b)")
    grown = grow_ideal(down, [psi])
    assert grown.member(psi)
    assert grown.member(BOT)
    # xi |- bottom \/ psi makes xi a member
    assert grown.member(pf("Q(a, b) /\\ P(a)"))
    assert not grown.member(pf("top"))
    empty = grow_ideal(down, [])
    for phi in small_universe():
        assert empty.member(phi) == down.member(phi)


def test_grown_sets_match_their_new_formulas_up_to_renaming():
    # at depth 0 the prover closes only on a hypothesis, so these answers
    # come from the sets' own alpha-equivalence test
    b0 = ProverBudget(max_depth=0)
    psi = pf("forall x. Q(x, b)")
    renamed = act(swap(psi.binder, c3), psi)
    assert psi != renamed and alpha_eq(psi, renamed)
    grown = grow_filter(upset(pf("P(a)"), b0, sig), psi)
    assert grown.member(renamed)
    assert not grown.member(pf("forall x. Q(b, x)"))
    grown_ideal = grow_ideal(downset(BOT, b0, sig), [psi])
    assert grown_ideal.member(renamed)
    assert not grown_ideal.member(pf("forall x. Q(b, x)"))


def test_points_amgis_membership():
    p = upset(pf("P(c)"), B, sig)
    moved = points_amgis(p, pf("c = c").lhs, b)  # u = the constant c
    assert moved.member(Pred("P", (Var(b),)))    # P(b)[b := c] = P(c)
    # fresh target atom: image membership agrees on the universe
    p2 = upset(pf("P(a)"), B, sig)
    img = points_amgis(p2, pf("c = c").lhs, atoms(9)[0])
    for phi in small_universe():
        assert img.member(phi) == p2.member(phi)


def test_points_amgis_is_exact_sigma_iff():
    rng = random.Random(50)
    pool = atoms(0, 1, 2)
    p = upset(pf("P(a) /\\ Q(a, b)"), B, sig)
    for _ in range(200):
        phi = random_formula(sig, rng, pool, 2)
        u = random_term(sig, rng, pool, 1)
        q = rng.choice(pool)
        assert points_amgis(p, u, q).member(phi) == \
            p.member(subst_formula(phi, q, u))


def test_points_amgis_image_keeps_the_support():
    # the identity image has p's members; were its support taken as empty,
    # condition 4 would sample p's own atoms a0..a2 as "fresh" for P(a3)
    p = upset(pf("P(a0) /\\ P(a1) /\\ P(a2)"), B, sig)
    img = points_amgis(p, Var(atoms(9)[0]), atoms(9)[0])
    universe = [pf("P(a3)")]
    assert filter_check(p, universe, B, sig).ok
    rep = filter_check(img, universe, B, sig)
    assert rep.ok, rep.lines()
    assert img.support == frozenset(atoms(0, 1, 2, 9))


def test_points_amgis_commutes_when_fresh():
    p = upset(pf("Q(a, b)"), B, sig)
    u = pf("P(c)").args[0]  # the constant term c
    v = pf("P(f(c))").args[0]
    q1, q2 = atoms(7, 8)
    lhs = points_amgis(points_amgis(p, u, q1), v, q2)
    rhs = points_amgis(points_amgis(p, v, q2), u, q1)
    for phi in small_universe():
        assert lhs.member(phi) == rhs.member(phi)


def test_bus_filter_preservation():
    # amgis images of budget-filters still pass the filter check on the
    # universe restricted to formulas whose substituted form is settled
    rng = random.Random(51)
    pool = atoms(0, 1, 2)
    seeds = [pf("P(a)"), pf("P(a) /\\ Q(a, b)"), pf("forall x. P(x)")]
    for i in range(12):
        p = upset(seeds[i % len(seeds)], B, sig)
        u = random_term(sig, rng, pool, 1)
        q = rng.choice(pool)
        img = points_amgis(p, u, q)
        universe = [phi for phi in small_universe()
                    if p.member(subst_formula(phi, q, u))]
        rep = filter_check(img, universe, B, sig)
        assert not any("condition-1" in v or "condition-3" in v
                       for v in rep.violations), rep.lines()


def test_forall_membership():
    p = upset(pf("forall x. P(x)"), B, sig)
    const_c = pf("P(c)").args[0]
    rep = forall_membership_check(p, a, pf("P(a)"), [const_c], B)
    assert rep.ok, rep.lines()
    # implication direction only: no violation when the universal is absent
    p2 = upset(pf("P(c)"), B, sig)
    rep2 = forall_membership_check(p2, a, pf("P(a)"), [const_c], B)
    assert rep2.ok
    # a set of universals alone misses every instance
    universals = PredSet(lambda phi: isinstance(phi, All), "universals", (), B, sig)
    rep3 = forall_membership_check(universals, a, pf("P(a)"), [const_c], B)
    assert rep3.lines() == ["CHECK forall-membership depth=6",
                            "VIOLATION instance at candidate term missing: c",
                            "VIOLATION instance at fresh atom a1 missing",
                            "VIOLATION instance at fresh atom a2 missing"]


def test_prime_check():
    p = upset(pf("P(a)"), B, sig)
    rep = prime_check(p, [(pf("P(a)"), pf("Q(a, b)"))])
    assert rep.ok
    # upsets of non-maximal formulas fail the dichotomy; reported, not raised
    rep2 = prime_check(p, [], dichotomy_samples=[pf("Q(a, b)")])
    assert not rep2.ok and "dichotomy" in rep2.violations[0]
    assert prime_check(p, []).ok  # vacuous
    disj = pf("P(a) \\/ Q(a, b)")
    only_disj = PredSet(lambda phi: alpha_eq(phi, disj), "only-disj", (), B, sig)
    rep3 = prime_check(only_disj, [(pf("P(a)"), pf("Q(a, b)"))])
    assert rep3.lines() == ["CHECK prime depth=6",
                            "VIOLATION prime: has ~(~P(a0) /\\ ~Q(a0, a1)) but neither disjunct"]


def test_point_sketch_trivial():
    sk = point_sketch(pf("top"), 0, B, sig)
    assert sk.transcript == [] and sk.queried == []
    assert sk.filter_side.member(pf("top"))
    assert sk.ideal_side.member(BOT)


def test_point_sketch_runs_and_stays_disjoint():
    for seed_phi in [pf("P(c)"), pf("top"), pf("Q(c, c)")]:
        sk = point_sketch(seed_phi, 5, B, sig)
        assert len(sk.transcript) == 5
        for line in sk.transcript:
            assert line.startswith("STEP ")
            assert line.rsplit("SIDE ", 1)[1] in ("filter", "ideal")
        assert sk.disjoint_on_queries()


def test_point_sketch_reaches_the_ideal_side():
    # step 6 clashes with bottom, so its pair and fresh copies go to the ideal
    sk = point_sketch(pf("P(c)"), 8, ProverBudget(max_depth=5), sig)
    assert sk.transcript[6] == "STEP 6 PAIR (a0, bottom /\\ (a0 = a0)) SIDE ideal"
    assert [line.rsplit("SIDE ", 1)[1] for line in sk.transcript] == \
        ["filter"] * 6 + ["ideal", "filter"]
    assert sk.disjoint_on_queries()


def test_point_sketch_rejects_inconsistent_seed():
    with pytest.raises(ValueError):
        point_sketch(BOT, 1, B, sig)


def test_point_sketch_transcript_deterministic():
    t1 = point_sketch(pf("P(c)"), 4, B, sig).transcript
    t2 = point_sketch(pf("P(c)"), 4, B, sig).transcript
    assert t1 == t2


def test_enumerate_pairs_deterministic():
    assert enumerate_pairs(sig, 6) == enumerate_pairs(sig, 6)
    assert len(enumerate_pairs(sig, 6)) == 6
