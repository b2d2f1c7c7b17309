import hashlib
import itertools
import math
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from nomfol import sequent as sequent_module
from nomfol import syntax
from nomfol import tarski as tarski_module
from nomfol.nominal import act, atoms, fresh, swap
from nomfol.foleq import sequent_valid
from nomfol.sequent import (COUNTERMODEL_SPACE_LIMIT, CountermodelError, Proof,
                            ProverBudget, SearchRefused, Side, Verdict, _RULES,
                            _small_countermodel, _search, _sexpr_tokens,
                            _size_space, _symbols, check_proof, decide,
                            default_universe, find_countermodel, format_proof,
                            format_sequent, formula_terms, generate_derivable,
                            herbrand_equiv, parse_proof, parse_sequent, prove,
                            sequent)
from nomfol.syntax import (All, And, App, BOT, Eq, LimitExceeded, Neg, Or, Pred,
                           Signature, Var, all_atoms, alpha_eq, alpha_key,
                           default_signature, parse_formula, random_formula,
                           random_term, subterms)
from nomfol.tarski import (MAX_ROWS, OrdinaryModel, Valuation, all_valuations, iter_models,
                           lift_interpretation, random_model, standard_eval)
from test_syntax import ref_alpha_eq

sig = default_signature()
sigP = Signature((), (("P", 1),))
a, b, c3 = atoms(0, 1, 2)


def pf(text):
    return parse_formula(text, sig)


def ps(text):
    return parse_sequent(text, sig)


def test_sequent_alpha_sets():
    s = sequent([pf("forall a. P(a)"), pf("forall b. P(b)")], [pf("P(a)")])
    assert len(s.left) == 1
    assert format_sequent(ps("P(a) |-")) == "P(a0) |-"
    with pytest.raises(Exception):
        parse_sequent("P(a)", sig)


def _rename_binders(phi, avoid):
    """An alpha-variant of phi with every binder moved to a fresh atom."""
    if isinstance(phi, And):
        return And(_rename_binders(phi.lhs, avoid), _rename_binders(phi.rhs, avoid))
    if isinstance(phi, Neg):
        return Neg(_rename_binders(phi.body, avoid))
    if isinstance(phi, All):
        c = fresh(avoid | all_atoms(phi))
        body = act(swap(phi.binder, c), phi.body)
        return All(c, _rename_binders(body, avoid | {c}))
    return phi


def _same_classes(xs, ys):
    return all(any(ref_alpha_eq(x, y) for y in ys) for x in xs) and \
        all(any(ref_alpha_eq(x, y) for x in xs) for y in ys)


def test_key_sets_match_alpha_eq_oracle():
    rng = random.Random(21)
    pool = atoms(0, 1, 2)
    forms = [random_formula(sig, rng, pool, rng.randint(0, 3)) for _ in range(60)]
    forms += [_rename_binders(f, frozenset(pool)) for f in forms]
    hits = 0
    for _ in range(300):
        given = (rng.sample(forms, rng.randint(0, 4)),
                 rng.sample(forms, rng.randint(0, 3)))
        s = sequent(*given)
        for side, fs in zip((s.left, s.right), given):
            assert isinstance(side, Side) and isinstance(side, tuple)
            assert list(side.keys) == sorted(side.keys) == [alpha_key(f) for f in side]
            # the first formula of each alpha class is the one kept
            assert all(f is next(g for g in fs if ref_alpha_eq(g, f)) for f in side)
            assert not any(ref_alpha_eq(f, g) for f, g in itertools.combinations(side, 2))
            for phi in rng.sample(forms, 8) + [_rename_binders(f, frozenset(pool))
                                               for f in side]:
                has = any(ref_alpha_eq(f, phi) for f in side)
                hits += has
                assert side.has(phi) == has
                assert side.without(phi) == tuple(f for f in side if not ref_alpha_eq(f, phi))
        shared = any(ref_alpha_eq(f, g) for f in s.left for g in s.right)
        assert any(k in s.right.keys for k in s.left.keys) == shared
        if rng.random() < 0.5:
            t = sequent([_rename_binders(f, frozenset(pool)) for f in s.left[::-1]],
                        [_rename_binders(f, frozenset(pool)) for f in s.right])
        else:
            t = sequent(rng.sample(forms, len(s.left)), rng.sample(forms, len(s.right)))
        same = _same_classes(s.left, t.left) and _same_classes(s.right, t.right)
        assert (s.key() == t.key()) == same
    assert hits > 300


def _assert_same_side(got, want):
    assert isinstance(got, Side)
    assert len(got) == len(want) and all(f is g for f, g in zip(got, want))
    assert got.keys == want.keys


def test_plus_and_without_match_a_side_built_from_scratch():
    # the prover builds each premise's sides with plus and without; they
    # must keep the same formula objects, in the same order, as Side does
    rng = random.Random(23)
    pool = atoms(0, 1, 2)
    forms = [random_formula(sig, rng, pool, rng.randint(0, 3)) for _ in range(60)]
    variants = duplicates = 0
    for _ in range(400):
        side = Side(rng.sample(forms, rng.randint(0, 5)))
        fs = rng.sample(forms, rng.randint(0, 3))
        # alpha-variants of formulas on the side, and repeats among fs
        fs += [_rename_binders(f, frozenset(pool)) for f in side if rng.random() < 0.4]
        fs += [rng.choice(fs) for _ in range(rng.randint(0, 2))] if fs else []
        rng.shuffle(fs)
        variants += any(f is not g and alpha_eq(f, g) for f in fs for g in side)
        duplicates += len(fs) > len({alpha_key(f) for f in fs})
        _assert_same_side(side.plus(*fs), Side(list(side) + fs))
        for phi in rng.sample(forms, 3) + [_rename_binders(f, frozenset(pool))
                                           for f in side]:
            _assert_same_side(side.without(phi),
                              Side(f for f in side if not alpha_eq(f, phi)))
    assert variants > 50 and duplicates > 50


def test_check_proof_examples():
    s = ps("P(a) |- P(a)")
    ok, diag = check_proof(Proof("hyp", s))
    assert ok
    # a hyp node with no shared formula is rejected
    ok, diag = check_proof(Proof("hyp", ps("P(a) |- P(b)")))
    assert not ok and "shared" in diag
    # wrong arity
    ok, diag = check_proof(Proof("andR", ps("|- P(a) /\\ P(b)")))
    assert not ok and "premises" in diag


def test_check_proof_allR_side_condition():
    # witness atom free in the quantified body: Q(a, b) under forall b,
    # discharged at a itself
    phi = All(b, Pred("Q", (Var(a), Var(b))))
    s = sequent([], [phi])
    inner = Proof("hyp", sequent([], [Pred("Q", (Var(a), Var(a)))]))
    bad = Proof("allR", s, (phi, a), (inner,))
    ok, diag = check_proof(bad)
    assert not ok and "free" in diag
    # witness atom free in the context
    ctx = Pred("P", (Var(a),))
    s2 = sequent([ctx], [phi, Pred("P", (Var(a),))])
    inner2 = Proof("hyp", sequent([ctx], [Pred("Q", (Var(a), Var(a))), ctx]))
    bad2 = Proof("allR", s2, (phi, a), (inner2,))
    ok2, diag2 = check_proof(bad2)
    assert not ok2 and "free" in diag2


TAMPERED = [
    # (rule, conclusion, witnesses, premise conclusions, message)
    ("eqR", "|- P(a)", (Var(a),), ["P(a) |- P(a)"],
     "premise 1 should be 'a0 = a0 |- P(a0)', got 'P(a0) |- P(a0)'"),
    ("cut", "P(a) |- P(a)", (), [], "unknown rule"),
    ("andL", "P(a) |- P(a)", (pf("P(a) /\\ P(b)"),), ["P(a) |- P(a)"],
     "principal conjunction is not on the left"),
    ("andR", "P(a) |- P(a)", (pf("P(a) /\\ P(b)"),), ["P(a) |- P(a)"] * 2,
     "principal conjunction is not on the right"),
    ("negL", "P(a) |- P(a)", (pf("~P(b)"),), ["P(a) |- P(a)"],
     "principal negation is not on the left"),
    ("negR", "P(a) |- P(a)", (pf("~P(b)"),), ["P(a) |- P(a)"],
     "principal negation is not on the right"),
    ("allL", "P(a) |- P(a)", (pf("forall b. P(b)"), Var(a)), ["P(a) |- P(a)"],
     "principal quantifier is not on the left"),
    # instantiated at c, claimed at a
    ("allL", "forall b. P(b) |- P(a)", (pf("forall b. P(b)"), Var(a)),
     ["P(c) |- P(a)"], "premise should instantiate with a0"),
    ("allR", "P(a) |- P(a)", (pf("forall b. P(b)"), c3), ["P(a) |- P(a)"],
     "principal quantifier is not on the right"),
    ("eqL", "P(a) |- P(a)", (pf("a = b"), Pred("P", (Var(c3),)), c3), ["P(a) |- P(a)"],
     "equation is not on the left"),
    # a = b rewrites P(b) into P(a); P(b) is not on the left
    ("eqL", "a = b, P(a) |- P(a)", (pf("a = b"), Pred("P", (Var(c3),)), c3),
     ["P(a) |- P(a)"], "rewritten formula is not on the left"),
    ("eqL", "a = b, P(b) |- P(a)", (pf("a = b"), Pred("P", (Var(c3),)), c3),
     ["P(a) |- P(a)"], "premise does not match the rewrite"),
]


@pytest.mark.parametrize("rule, conclusion, witnesses, premises, why", TAMPERED)
def test_check_proof_rejects_tampered_nodes(rule, conclusion, witnesses, premises, why):
    s = ps(conclusion)
    p = Proof(rule, s, witnesses, tuple(Proof("hyp", ps(t)) for t in premises))
    assert check_proof(p) == (False, f"{rule} at '{format_sequent(s)}': {why}")


# rule: (premise count, witness kinds: f formula, t term, a atom)
SHAPES = {"hyp": (0, ""), "botL": (0, ""), "eqR": (1, "t"), "andL": (1, "f"),
          "andR": (2, "f"), "negL": (1, "f"), "negR": (1, "f"),
          "allL": (1, "ft"), "allR": (1, "fa"), "eqL": (1, "ffa")}
SAMPLES = {"f": pf("P(a)"), "t": Var(a), "a": a}


def _witness_mutants(kinds):
    """Witness tuples one too few, one too many, and one of the wrong kind."""
    right = [SAMPLES[k] for k in kinds]
    if right:
        yield tuple(right[:-1])
    yield tuple(right) + (SAMPLES["f"],)
    for i, k in enumerate(kinds):
        for other in "fta".replace(k, ""):
            yield tuple(right[:i]) + (SAMPLES[other],) + tuple(right[i + 1:])


@pytest.mark.parametrize("rule", sorted(SHAPES))
def test_check_proof_rejects_malformed_witnesses(rule):
    arity, kinds = SHAPES[rule]
    s = ps("P(a) |- P(a)")
    premises = (Proof("hyp", s),) * arity
    want = (False, f"{rule} at 'P(a0) |- P(a0)': "
                   f"witnesses should be of kinds '{kinds}'")
    for wits in _witness_mutants(kinds):
        assert check_proof(Proof(rule, s, wits, premises)) == want, wits


def test_check_proof_rejects_non_atom_allR_witness():
    # a variable in the atom slot (it used to raise AttributeError), and a
    # formula there on a vacuous quantifier (it used to pass: the swap left
    # the body alone); with the atom a2 in that slot, each node checks
    for conclusion, rule, premise, witness in [
            ("bottom |- forall a0. P(a0)", "botL", "bottom |- P(a2)", Var(c3)),
            ("P(a1) |- forall a0. P(a1)", "hyp", "P(a1) |- P(a1)", pf("P(a1)"))]:
        s, premise = ps(conclusion), Proof(rule, ps(premise))
        p = Proof("allR", s, (s.right[0], witness), (premise,))
        assert check_proof(p) == (False, f"allR at '{format_sequent(s)}': "
                                         "witnesses should be of kinds 'fa'")
        assert check_proof(Proof("allR", s, (s.right[0], c3), (premise,))) == (True, "ok")


def test_prove_examples():
    p = prove(ps("|- forall a. (P(a) \\/ ~P(a))"), ProverBudget(6), sig)
    assert p is not None and check_proof(p)[0]
    p = prove(ps("|- c = c"), ProverBudget(4), sig)
    assert p is not None and check_proof(p)[0]
    assert prove(ps("|- P(a)"), ProverBudget(6), sig) is None


def test_prove_keys_no_side_from_scratch(monkeypatch):
    # premises are built from their conclusion's keys; this sequent's
    # search builds premises by all eight rules that have them
    s = ps("a = b, forall x. P(x) /\\ ~R |- ~~R, forall y. P(y) /\\ P(b)")
    from_scratch = Side.__new__
    calls = []

    def counted(cls, formulas):
        calls.append(formulas)
        return from_scratch(cls, formulas)
    monkeypatch.setattr(Side, "__new__", staticmethod(counted))
    proof = prove(s, ProverBudget(max_depth=4), sig)
    monkeypatch.undo()
    assert proof is not None and check_proof(proof)[0]
    assert calls == []


def test_prove_quantifier_and_equality():
    cases = [
        ("forall a. P(a) |- P(c)", 5),
        ("forall a. P(a) |- forall b. P(b)", 5),
        ("P(a) /\\ Q(a, b) |- Q(a, b) /\\ P(a)", 6),
        ("c = f(c), P(f(c)) |- P(c)", 8),
        ("f(c) = c, P(f(c)) |- P(c)", 8),
        ("a = b |- b = a", 8),
        ("forall a. (P(a) -> Q(a, a)), P(c) |- Q(c, c)", 8),
    ]
    for text, depth in cases:
        p = prove(ps(text), ProverBudget(depth), sig)
        assert p is not None, text
        ok, diag = check_proof(p)
        assert ok, (text, diag)


def test_default_universe():
    s = ps("forall a. P(f(a)) |- P(b)")
    uni = default_universe(s, sig)
    names = {repr(t) for t in uni}
    assert "c" in names          # signature constant
    assert "f(a0)" in names      # subterm
    # one atom fresh for the sequent's free atoms (a0 is bound, so eligible)
    free = {q.name for q in s.free_atoms()}
    assert any(n.startswith("a") and n not in free for n in names)


def ref_formula_terms(phi):
    """The subterms of phi's atoms, by formula_terms' first form: a recursive walk."""
    if isinstance(phi, Eq):
        yield from subterms(phi.lhs)
        yield from subterms(phi.rhs)
    elif isinstance(phi, Pred):
        for t in phi.args:
            yield from subterms(t)
    elif isinstance(phi, And):
        yield from ref_formula_terms(phi.lhs)
        yield from ref_formula_terms(phi.rhs)
    elif isinstance(phi, Neg):
        yield from ref_formula_terms(phi.body)
    elif isinstance(phi, All):
        yield from ref_formula_terms(phi.body)


def test_formula_terms_keep_the_recursive_walks_order():
    # _forward_step draws an allL witness from this list by position, so
    # generate_derivable's trails depend on its order, not only its terms
    rng = random.Random(29)
    pool = atoms(0, 1, 2)
    seen = 0
    for _ in range(400):
        fs = [random_formula(sig, rng, pool, rng.randint(0, 4))
              for _ in range(rng.randint(0, 3))]
        want = [t for f in fs for t in ref_formula_terms(f)]
        assert list(formula_terms(fs)) == want, fs
        seen += len(want)
    assert seen > 1000


def test_find_countermodel_examples():
    got = find_countermodel(ps("|- P(a)"), sigP, 1)
    assert got is not None
    model, vs = got
    assert model.k == 1 and model.preds["P"] == (False,)
    assert standard_eval(pf("P(a)"), model, vs) is False

    got = find_countermodel(parse_sequent("|- forall a. P(a)", sigP), sigP, 2)
    assert got is not None
    model, vs = got
    assert standard_eval(parse_formula("forall a. P(a)", sigP), model, vs) is False

    assert find_countermodel(ps("P(a) |- P(a)"), sigP, 2) is None


def test_countermodel_certificate():
    # found countermodels genuinely falsify the sequent
    rng = random.Random(40)
    pool = atoms(0, 1)
    for _ in range(40):
        s = sequent([random_formula(sigP, rng, pool, 2)],
                    [random_formula(sigP, rng, pool, 2)])
        got = find_countermodel(s, sigP, 2)
        if got is None:
            continue
        model, vs = got
        assert all(standard_eval(f, model, vs) for f in s.left)
        assert not any(standard_eval(f, model, vs) for f in s.right)


def reference_countermodel(s, sig, max_k):
    """The full-signature search: every table of every symbol, in order."""
    free = tuple(sorted(s.free_atoms(), key=lambda a: a.id))
    for k in range(1, max_k + 1):
        for model in iter_models(sig, k):
            for combo in itertools.product(range(k), repeat=len(free)):
                vs = Valuation(dict(zip(free, combo)), 0)
                if all(standard_eval(f, model, vs) for f in s.left) and \
                        not any(standard_eval(f, model, vs) for f in s.right):
                    return model, vs
    return None


def _answer(found):
    if found is None:
        return None
    model, vs = found
    return model.format(), sorted(vs.overrides.items()), vs.default


def _sub_signature(sig, rng):
    """A random part of sig, so that generated sequents leave symbols unused."""
    return Signature(tuple(x for x in sig.functions if rng.random() < 0.6),
                     tuple(x for x in sig.predicates if rng.random() < 0.6))


def _differential(sig, sequents, max_k):
    found = 0
    for s in sequents:
        got = find_countermodel(s, sig, max_k)
        assert _answer(got) == _answer(reference_countermodel(s, sig, max_k)), s
        if got is None:
            continue
        found += 1
        model, vs = got
        assert all(standard_eval(f, model, vs) for f in s.left)
        assert not any(standard_eval(f, model, vs) for f in s.right)
    return found


def _random_sequents(sig, rng, n):
    pool = atoms(0, 1)
    for _ in range(n):
        gen = _sub_signature(sig, rng)
        yield sequent([random_formula(gen, rng, pool, 2)
                       for _ in range(rng.randint(0, 1))],
                      [random_formula(gen, rng, pool, 2)])


def test_countermodel_matches_full_signature_search():
    small = Signature((("c", 0), ("f", 1)), (("P", 1), ("Q", 2), ("R", 0)))
    found = _differential(small, _random_sequents(small, random.Random(45), 200), 2)
    assert 40 < found < 200
    # the symbol order decides which of several countermodels comes first
    texts = ["P(a) \\/ R |-", "Q(a, b) \\/ P(b) |-", "c = f(a) \\/ f(c) = a |-"]
    assert _differential(small, [parse_sequent(t, small) for t in texts], 2) == 3
    assert _differential(sig, _random_sequents(sig, random.Random(46), 6), 2) > 0


# (signature, largest size): sizes 1-2 on up to four symbols, size 3 on one or two
DIFFERENTIAL_SIGNATURES = [
    (Signature((("c", 0), ("f", 1)), (("P", 1), ("R", 0))), 2),
    (Signature((), (("Q", 2),)), 2),
    (Signature((("f", 1),), ()), 3),
    (Signature((), (("P", 1),)), 3),
    (Signature((("c", 0),), (("P", 1),)), 3),
    (Signature((("f", 1),), (("R", 0),)), 3),
]


@st.composite
def _countermodel_cases(draw):
    """A signature, a largest size and the two sides of a sequent over it.

    Terms may be bare atoms, so some formulas read no symbol at all.
    """
    signature, max_k = draw(st.sampled_from(DIFFERENTIAL_SIGNATURES))
    pool = atoms(0, 1, 2)
    terms = st.one_of(st.sampled_from(pool).map(Var),
                      *(st.just(App(n, ())) for n, ar in signature.functions if ar == 0))
    unary = [n for n, ar in signature.functions if ar == 1]
    if unary:
        terms = st.recursive(terms, lambda t: st.tuples(st.sampled_from(unary), t).map(
            lambda p: App(p[0], (p[1],))), max_leaves=3)
    atomic = st.one_of(st.just(BOT), st.tuples(terms, terms).map(lambda p: Eq(*p)),
                       *(st.lists(terms, min_size=ar, max_size=ar).map(
                           lambda args, n=n: Pred(n, tuple(args)))
                         for n, ar in signature.predicates))
    formulas = st.recursive(atomic, lambda f: st.one_of(
        f.map(Neg), st.tuples(f, f).map(lambda p: And(*p)),
        st.tuples(st.sampled_from(pool), f).map(lambda p: All(*p))), max_leaves=5)
    sides = st.lists(formulas, max_size=3)
    return signature, max_k, draw(sides), draw(sides)


# three distinct elements are needed, so the first countermodels are of size 3
_DISTINCT = And(Neg(Eq(Var(a), Var(b))), Neg(Eq(Var(b), Var(c3))))


@settings(max_examples=200, deadline=None)
@given(_countermodel_cases())
@example((DIFFERENTIAL_SIGNATURES[2][0], 3, [_DISTINCT], [Eq(Var(a), Var(c3))]))
@example((DIFFERENTIAL_SIGNATURES[4][0], 3, [_DISTINCT, Pred("P", (App("c", ()),))],
          [Eq(Var(a), Var(c3)), Pred("P", (Var(a),))]))
def test_pruned_search_finds_the_flat_loops_first_countermodel(case):
    signature, max_k, left, right = case
    s = sequent(left, right)
    flat = _answer(reference_countermodel(s, signature, max_k))
    assert _answer(pruned_reference(s, signature, max_k)) == flat
    assert _answer(find_countermodel(s, signature, max_k)) == flat


def _parts(s):
    """The (side, formula) parts s splits into by andL, negL and negR; side 0 is left.

    A model and valuation make every left part true and every right part
    false exactly when they make every left formula of s true and every
    right formula false.
    """
    todo = [(0, f) for f in s.left] + [(1, f) for f in s.right]
    while todo:
        side, f = todo.pop()
        if isinstance(f, Neg):
            todo.append((1 - side, f.body))
        elif isinstance(f, And) and side == 0:
            todo += ((0, f.lhs), (0, f.rhs))
        else:
            yield side, f


def pruned_reference(s, sig, max_k):
    """find_countermodel as it searched before any size went bit-parallel.

    Symbols are fixed one at a time, in iter_models order, by a recursive
    search cut as in SEM and Mace4: each part of s (``_parts``) is tested
    by standard_eval once the last symbol it reads is fixed, or before any
    is when it reads none, and a prefix of tables under which every
    valuation has a false left part or a true right part is skipped with
    every completion of it.  The refusals are find_countermodel's.
    """
    parts, fs, ps = [], set(), set()
    for side, f in _parts(s):
        funcs, preds, _ = _symbols((f,))
        fs |= funcs
        ps |= preds
        parts.append((side, f, funcs | preds))
    if sig is None or not (fs <= set(sig.functions) and ps <= set(sig.predicates)):
        sig = used = Signature(tuple(sorted(fs)), tuple(sorted(ps)))
    else:
        used = Signature(tuple(x for x in sig.functions if x in fs),
                         tuple(x for x in sig.predicates if x in ps))
    free = tuple(sorted(s.free_atoms(), key=lambda a: a.id))
    order = {x: i for i, x in enumerate(used.functions + used.predicates, 1)}
    tests = [([], []) for _ in range(len(order) + 1)]
    for side, f, reads in parts:
        tests[max(map(order.__getitem__, reads), default=0)][side].append(f)
    total = 0
    for k in range(1, max_k + 1):
        n = _size_space(used.functions, used.predicates, len(free), k)
        total = n if isinstance(n, float) else total + n
        if isinstance(total, float) or total > sequent_module.COUNTERMODEL_SPACE_LIMIT:
            raise SearchRefused(f"search space {sequent_module._count(total)} at size {k} "
                                f"exceeds {sequent_module.COUNTERMODEL_SPACE_LIMIT}")
        for name, ar in sig.functions + sig.predicates:
            if k ** ar > MAX_ROWS:
                raise SearchRefused(f"table of {k ** ar} rows for {name} "
                                    f"at size {k} exceeds limit {MAX_ROWS}")
        # every table starts all 0 (false), and an unused symbol's stays so
        model = OrdinaryModel(sig, k, {name: (0,) * k ** ar for name, ar in sig.functions},
                              {name: (False,) * k ** ar for name, ar in sig.predicates})
        symbols = ([(name, model.funcs, range(k), ar) for name, ar in used.functions]
                   + [(name, model.preds, (False, True), ar) for name, ar in used.predicates])

        def search(i, opens):
            """Given the first i tables, the first countermodel's valuation, or None.

            The countermodel's tables are left in model.
            """
            left, right = tests[i]
            opens = [vs for vs in opens if all(standard_eval(f, model, vs) for f in left)
                     and not any(standard_eval(f, model, vs) for f in right)]
            if not opens:
                return None
            if i == len(symbols):
                return opens[0]
            name, store, values, ar = symbols[i]
            for table in itertools.product(values, repeat=k ** ar):
                store[name] = table
                found = search(i + 1, opens)
                if found is not None:
                    return found
            return None

        vs = search(0, [Valuation(dict(zip(free, combo)), 0)
                        for combo in itertools.product(range(k), repeat=len(free))])
        if vs is not None:
            return model, vs
    return None


def _outcome(search, s, signature, max_k):
    """search's answer, or the kind and message of its refusal."""
    try:
        return _answer(search(s, signature, max_k))
    except (SearchRefused, ValueError) as e:
        return type(e).__name__, str(e)


def _data_signature(name):
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
        return syntax.parse_signature(fh.read())


def _sequents_by_equation(gen, rng, n, equations):
    """n random sequents over gen, each with an equation or each without."""
    pool = atoms(0, 1)
    out = []
    while len(out) < n:
        s = sequent(*([random_formula(gen, rng, pool, rng.randint(0, 3))
                       for _ in range(rng.randint(0, 4))] for _ in "lr"))
        if _symbols(s.left + s.right)[2] == equations:
            out.append(s)
    return out


def _wide_sequent(rng, names):
    """Two to six clauses of two or three literals over names, split into sides."""
    def literal():
        f = Pred(rng.choice(names), ())
        return Neg(f) if rng.random() < 0.5 else f

    clauses = [rng.choice((And, Or))(literal(), literal()) for _ in range(rng.randint(2, 6))]
    clauses = [rng.choice((And, Or))(f, literal()) if rng.random() < 0.5 else f for f in clauses]
    cut = rng.randint(0, len(clauses))
    return sequent(clauses[:cut], clauses[cut:])


def test_bit_parallel_size_1_matches_the_pruned_search():
    # the size-1 step against the iter_models search it replaces, alone and
    # before the size-2 search; over nineteen predicates, many are in reach
    p19 = _data_signature("p19.sig")
    wide = [parse_sequent(t, p19) for t in (
        ", ".join(f"P{i}" for i in range(19)) + " |- P3",
        "|- " + ", ".join(f"~P{i}" for i in range(19)),
        "P0 \\/ P18 |- P9", "P18 -> P0, P17 \\/ P1 |- P2 /\\ P16",
        "a = b, P5 |- P4 /\\ P3, bottom")]
    rng = random.Random(26)
    cases = [(s, p19) for s in wide]
    cases += [(_wide_sequent(rng, [f"P{i}" for i in range(19)]), p19) for _ in range(40)]
    for gen, signature in ((sig, sig), (_data_signature("p1.sig"),) * 2, (p19, p19), (sig, None)):
        for equations in (False, True):
            cases += [(s, signature) for s in _sequents_by_equation(gen, rng, 40, equations)]
    found = {1: 0, 2: 0}
    for s, signature in cases:
        for max_k in (1, 2):
            got = _outcome(find_countermodel, s, signature, max_k)
            assert got == _outcome(pruned_reference, s, signature, max_k), (s, signature, max_k)
            found[max_k] += got is not None and got[0] != "SearchRefused"
    assert 100 < found[1] < found[2] < len(cases)


def _function_heavy_sequent(rng, gen):
    """Up to three formulas a side over gen, with nested terms and binders over a0 to a4."""
    pool = atoms(0, 1, 2, 3, 4)
    funcs = list(gen.functions)

    def term(depth):
        if depth and funcs and rng.random() < 0.6:
            name, ar = rng.choice(funcs)
            return App(name, tuple(term(depth - 1) for _ in range(ar)))
        return Var(rng.choice(pool))

    def formula(depth):
        r = rng.random()
        if depth and r < 0.45:
            return rng.choice((lambda: Neg(formula(depth - 1)),
                               lambda: And(formula(depth - 1), formula(depth - 1)),
                               lambda: Or(formula(depth - 1), formula(depth - 1)),
                               lambda: All(rng.choice(pool), formula(depth - 1))))()
        preds = gen.predicates
        if r < 0.8 and preds:
            name, ar = rng.choice(preds)
            return Pred(name, tuple(term(2) for _ in range(ar)))
        return BOT if r > 0.97 else Eq(term(2), term(2))

    return sequent(*([formula(rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
                     for _ in "lr"))


def test_bit_parallel_size_2_matches_the_pruned_search():
    # the size-2 step against the iter_models search it replaces, over
    # nested unary and binary functions, constants, equations and nested
    # binders; the signatures keep or reorder the symbols, or leave some
    # out, so the model-index order and the padding are both checked
    rng = random.Random(27)
    shuffled = Signature((("g", 2), ("c", 0), ("f", 1)), (("R", 0), ("Q", 2), ("P", 1)))
    cases = [(_function_heavy_sequent(rng, _sub_signature(sig, rng)),
              rng.choice((sig, shuffled, SIG_NO_C, None))) for _ in range(160)]
    p19, big22 = _data_signature("p19.sig"), _data_signature("big22.sig")
    near = ", ".join(f"P{i}" for i in range(18))
    cases += [(parse_sequent(t, p19), p19) for t in (
        # 18 predicates and one free atom: 262,144 + 524,288 pairs, within
        # the limit; the last has two free atoms and is refused
        f"{near} |- forall b. a = b", f"{near}, ~forall b. a = b |- P17 /\\ ~P0",
        f"{near} |- forall b. a = b, P3", f"{near} |- a = b")]
    big = "Big(" + "a, " * 21 + "b)"
    cases += [(parse_sequent(t, big22), big22) for t in ("|- a = b", f"{big} |- {big}")]
    cases += [(ps(t), sig) for t in ("P(c), Q(f(a0), g(a0, a0)), R |- R",
                                     "P(c), Q(f(a0), g(a1, a2)), R, a3 = a4 |- R",
                                     "g(a0, f(a0)) = c |- f(g(c, a1)) = a1, forall a2. P(f(a2))")]
    outcomes = {"size 1": 0, "size 2": 0, "none": 0, "refused": 0}
    for s, signature in cases:
        got = _outcome(find_countermodel, s, signature, 2)
        assert got == _outcome(pruned_reference, s, signature, 2), (s, signature)
        kind = ("none" if got is None else "refused" if isinstance(got[1], str)
                else f"size {got[0].split()[1]}")
        outcomes[kind] += 1
    assert outcomes["size 2"] > 30 and outcomes["none"] > 10 and outcomes["refused"] >= 3, outcomes


def test_sizes_3_and_4_match_the_pruned_search():
    # the size-k step against the pruned iter_models search it replaces,
    # over the differential signatures and nested functions, equations and
    # binders; three distinct atoms on the left, on half the cases, leave
    # only models of size 3 or more
    rng = random.Random(29)
    distinct = [Neg(Eq(Var(x), Var(y))) for x, y in itertools.combinations(atoms(0, 1, 2), 2)]
    cases = []
    for signature, _ in DIFFERENTIAL_SIGNATURES:
        for i in range(16):
            s = _function_heavy_sequent(rng, signature)
            cases.append((sequent(s.left + (tuple(distinct) if i % 2 else ()), s.right),
                          signature))
    cases += [(_function_heavy_sequent(rng, _sub_signature(sig, rng)), sig) for _ in range(24)]
    # a binder must range over all k values, and a term over all but 0
    cases += [(parse_sequent(t, sig), sig) for t in (
        "~a0 = a1, ~forall a2. (a2 = a0 \\/ a2 = a1) |-",
        "~a0 = a1, ~a1 = a2, ~a0 = a2 |- forall a3. (a3 = a0 \\/ a3 = a1 \\/ a3 = a2)",
        "~a0 = a1, ~a1 = a2, ~a0 = a2, f(a0) = a1, f(a1) = a2 |- f(a2) = a0",
        "~a = b, ~b = c, ~a = c, f(a) = b |- P(f(f(c)))",
        "~a0 = a1, ~a0 = a2, ~a0 = a3, ~a1 = a2, ~a1 = a3, ~a2 = a3 |- P(a0), P(a3)")]
    outcomes = {"size 3": 0, "size 4": 0, "none": 0, "refused": 0}
    for s, signature in cases:
        for max_k in (3, 4):
            got = _outcome(find_countermodel, s, signature, max_k)
            assert got == _outcome(pruned_reference, s, signature, max_k), (s, signature, max_k)
            kind = ("none" if got is None else "refused" if isinstance(got[1], str)
                    else f"size {got[0].split()[1]}")
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes["size 3"] >= 10 and outcomes["size 4"] >= 2, outcomes
    assert outcomes["none"] >= 10 and outcomes["refused"] >= 10, outcomes


def _model_search_calls(monkeypatch):
    """A list that records each standard_eval and iter_models call from now on.

    Both are replaced where they are defined and in the sequent module,
    so a call is recorded however the search looks them up.
    """
    calls = []
    for module in (sequent_module, tarski_module):
        monkeypatch.setattr(module, "standard_eval", lambda f, m, vs: calls.append(f)
                            or standard_eval(f, m, vs), raising=False)
        monkeypatch.setattr(module, "iter_models", lambda *args: calls.append(args)
                            or iter_models(*args), raising=False)
    return calls


def test_no_size_builds_a_model_or_a_valuation_before_the_answer(monkeypatch):
    # every size is decided on bits: standard_eval and iter_models are never
    # called, and the one Valuation built is the answer's
    calls, built = _model_search_calls(monkeypatch), []
    monkeypatch.setattr(sequent_module, "Valuation", lambda *args: built.append(args)
                        or Valuation(*args))
    for text, max_k, size in [
            ("|- P(a)", 1, 1),
            # 14 rows and 2 free atoms: 65,536 size-2 pairs and no countermodel
            ("P(c), Q(f(a0), g(a0, a1)), R |- R", 2, None),
            ("P(c), Q(f(a0), g(a0, a1)) |- a0 = a1", 2, 2),
            ("~a = b, ~b = c, ~a = c, f(a) = b |- P(f(f(c)))", 3, 3),
            ("a0 = a1, a1 = a2 |- a0 = a2", 4, None),
            ("~a0 = a1, ~a0 = a2, ~a0 = a3, ~a1 = a2, ~a1 = a3, ~a2 = a3 |-", 4, 4)]:
        del built[:]
        found = find_countermodel(ps(text), sig, max_k)
        assert (found and found[0].k) == size, text
        assert built == ([] if found is None else [(found[1].overrides, 0)]), text
    assert calls == []


def _used(s):
    """The symbols s uses, as a Signature sorted by name."""
    funcs, preds, _ = _symbols(s.left + s.right)
    return Signature(tuple(sorted(funcs)), tuple(sorted(preds)))


def _space(s, sig, max_k):
    """The (model, valuation) pairs find_countermodel may try at sizes 1 to max_k."""
    funcs, preds, _ = _symbols(s.left + s.right)
    used = ([x for x in sig.functions if x in funcs], [x for x in sig.predicates if x in preds])
    return sum(_size_space(*used, len(s.free_atoms()), k) for k in range(1, max_k + 1))


def test_countermodel_space():
    # c/0 and P/1 at k=1,2: (1*2)*1 + (2*4)*2 with one free atom
    assert _space(ps("P(c) |- P(a)"), sig, 2) == 2 + 16
    # no symbols used: one model per k, k^2 valuations
    assert _space(ps("|- a = b"), sig, 3) == 1 + 4 + 9
    # all six default symbols; at k=3: 3^(1+3+9) * 2^(3+9+1) models
    s = ps("P(c), Q(f(a), g(a, a)) |- R")
    assert _space(s, sig, 3) == 2 ** 3 + 2 * 2 ** 14 + 3 * 6 ** 13


def test_countermodel_search_refused_per_size():
    # sizes are counted as they are reached; the first whose running count
    # passes 10**6 is refused after the smaller sizes are searched
    s = ps("P(c), Q(f(a), g(a, a)), R |- R")
    assert [_space(s, sig, k) for k in (1, 2)] == [8, 32776]
    with pytest.raises(SearchRefused) as refused:
        find_countermodel(s, sig, 5)
    assert str(refused.value) == "search space 39182114824 at size 3 exceeds 1000000"
    assert not isinstance(refused.value, ValueError)
    # 2 * 2 ** (2 ** 24) pairs at size 2: counted as a log10, never built
    wide = Signature((), (("P", 24),))
    p = "P(" + ", ".join(["a"] * 24) + ")"
    s = parse_sequent(f"{p} |- {p}", wide)
    assert _space(s, wide, 1) == 2
    with pytest.raises(SearchRefused) as refused:
        find_countermodel(s, wide, 3)
    digits = (2 ** 24 + 1) * math.log10(2)
    assert str(refused.value) == (f"search space {10 ** (digits % 1):.2f}e{int(digits)} "
                                  "at size 2 exceeds 1000000")
    assert str(refused.value) == "search space 3.64e5050445 at size 2 exceeds 1000000"
    # a count past even a float's range is infinite, not an OverflowError
    assert _size_space((), (("P", 2),), 0, 10 ** 200) == math.inf


def test_generate_derivable():
    trail = generate_derivable(sig, seed=1, steps=0)
    assert len(trail) == 1
    for seed in range(200):
        for s, p in generate_derivable(sig, seed, steps=8):
            ok, diag = check_proof(p)
            assert ok, (seed, diag)


def test_generated_sequents_are_valid():
    rng = random.Random(41)
    for seed in range(30):
        s, p = generate_derivable(sig, seed, steps=6)[-1]
        N = random_model(sig, rng.randint(1, 3), rng)
        assert sequent_valid(s.left, s.right, lift_interpretation(N))
        for vs in all_valuations(s.free_atoms(), N.k):
            holds = all(standard_eval(f, N, vs) for f in s.left)
            concl = any(standard_eval(f, N, vs) for f in s.right)
            assert (not holds) or concl


def test_prove_and_countermodel_exclusive():
    rng = random.Random(42)
    pool = atoms(0, 1)
    both = proved = refuted = 0
    for i in range(120):
        s = sequent([random_formula(sigP, rng, pool, 2)
                     for _ in range(rng.randint(0, 1))],
                    [random_formula(sigP, rng, pool, 2)])
        # the unguarded search, so that a proof of a refuted sequent shows
        p = _search(s, ProverBudget(6), sigP)
        cm = find_countermodel(s, sigP, 2)
        if p is not None:
            proved += 1
            assert check_proof(p)[0]
        if cm is not None:
            refuted += 1
        if p is not None and cm is not None:
            both += 1
    assert both == 0
    assert proved > 5 and refuted > 5


def test_herbrand_examples():
    phi = pf("forall a. P(a)")
    psi = pf("forall b. P(b)")
    assert herbrand_equiv(phi, psi, sig).status == "equivalent"
    r = herbrand_equiv(pf("P(a) /\\ Q(a, b)"), pf("Q(a, b) /\\ P(a)"), sig)
    assert r.status == "equivalent"
    r = herbrand_equiv(pf("P(a)"), pf("Q(a, a)"), sig, max_k=1)
    assert r.status == "distinct" and r.countermodel is not None


def test_herbrand_proved_both_ways_needs_no_countermodel_search(monkeypatch):
    # over P of arity 24 a countermodel search past size 1 is refused, but
    # both directions are proved, which settles the answer without one
    wide = Signature((), (("P", 24), ("R", 0)))
    atom = parse_formula("P(" + ", ".join(["a"] * 24) + ")", wide)
    phi, psi = And(atom, Pred("R", ())), And(Pred("R", ()), atom)
    with pytest.raises(SearchRefused):
        find_countermodel(sequent([phi], [psi]), wide, 2)
    assert herbrand_equiv(phi, psi, wide, ProverBudget(4)).status == "equivalent"
    # a refuted direction keeps the guard's model: no second search for it
    calls = []
    monkeypatch.setattr(sequent_module, "find_countermodel",
                        lambda *args, **kw: calls.append(args) or find_countermodel(*args, **kw))
    r = herbrand_equiv(pf("P(a)"), pf("Q(a, a)"), sig)
    assert r.status == "distinct" and len(calls) == 2
    model, vs = find_countermodel(sequent([pf("P(a)")], [pf("Q(a, a)")]), sig, 2)
    assert r.countermodel[0] == model and r.countermodel[1].overrides == vs.overrides


def test_herbrand_rechecks_a_distinct_answer(monkeypatch):
    # the highest index in place of the lowest: P(a) and Q(a, a) both true,
    # which is no countermodel of P(a) |- Q(a, a)
    monkeypatch.setattr(sequent_module, "_lowest",
                        lambda s, truth, full: full.bit_length() - 1)
    with pytest.raises(CountermodelError):
        herbrand_equiv(pf("P(a)"), pf("Q(a, a)"), sig)


def test_herbrand_unknown_when_the_search_is_refused():
    # P(a..a) and forall b. P(b..b) agree at size 1; size 2 is refused
    wide = Signature((), (("P", 24),))
    phi = parse_formula("P(" + ", ".join(["a"] * 24) + ")", wide)
    psi = parse_formula("forall b. P(" + ", ".join(["b"] * 24) + ")", wide)
    assert herbrand_equiv(phi, psi, wide, ProverBudget(3), max_k=2).status == "unknown"


def test_a_size_whose_model_pads_a_table_past_max_rows_is_refused():
    # Big is unused, but a size-2 model would give it 2**21 rows: size 2 is
    # refused before any table is built, as an oversized space is
    big = Signature((), (("Big", 21),))
    s = parse_sequent("|- a = b", big)
    with pytest.raises(SearchRefused) as refused:
        find_countermodel(s, big, 2)
    assert str(refused.value) == "table of 2097152 rows for Big at size 2 exceeds limit 1000000"
    assert find_countermodel(parse_sequent("|- bottom", big), big, 2)[0].preds == {"Big": (False,)}
    # so the guard falls through to the search, and herbrand_equiv skips
    # that direction; both answered with the padded model before
    assert decide(s, ProverBudget(3), big) == Verdict()
    top, eq = parse_formula("top", big), parse_formula("a = b", big)
    assert herbrand_equiv(top, eq, big, ProverBudget(3)).status == "unknown"


def test_countermodels_follow_one_signature_rule():
    # over a sig that has every symbol the sequent uses, the model is over
    # sig; otherwise over just those symbols, sorted by name
    cp = Signature((("c", 0),), (("P", 1),))
    cps = Signature((("c", 0),), (("P", 1), ("S", 1)))
    own = Signature((("c", 0),), (("S", 1),))
    phi, psi = parse_formula("S(c)", cps), parse_formula("forall a. S(a)", cps)
    s = sequent([phi], [psi])
    for given, over in ((cps, cps), (cp, own), (None, own)):
        model = find_countermodel(s, given, 2)[0]
        assert model.sig == over and model.k == 2 and model.preds["S"] == (True, False)
        # the guard passes sig through; S(c) |- bottom is refuted at size 1
        assert _small_countermodel(sequent([phi], []), given)[0].sig == over
        # herbrand_equiv's own search; cp raised KeyError: 'S' before
        if given is not None:
            r = herbrand_equiv(phi, psi, given, ProverBudget(3))
            assert r.status == "distinct" and r.countermodel[0] == model


def test_herbrand_sigma_well_defined():
    # derivably-equivalent formulas stay non-distinct under substitution;
    # pairs are built by equivalence-preserving transforms so that most
    # samples actually land in the Equivalent case
    rng = random.Random(43)
    pool = atoms(0, 1)
    from nomfol.nominal import act, fresh, swap
    from nomfol.syntax import free_atoms, random_term, subst_formula

    def variant(phi):
        roll = rng.randrange(4)
        if roll == 0:
            return Neg(Neg(phi))
        if roll == 1:
            return And(phi, phi)
        if roll == 2 and isinstance(phi, And):
            return And(phi.rhs, phi.lhs)
        return act(swap(fresh(free_atoms(phi) | set(pool)), pool[0]), phi)

    checked = 0
    for seed in range(400):
        if checked >= 100:
            break
        phi = random_formula(sigP, rng, pool, 2)
        psi = variant(phi)
        res = herbrand_equiv(phi, psi, sigP, ProverBudget(6), max_k=2)
        if res.status != "equivalent":
            continue
        checked += 1
        q = rng.choice(pool)
        r = random_term(sigP, rng, pool, 1)
        res2 = herbrand_equiv(subst_formula(phi, q, r), subst_formula(psi, q, r),
                              sigP, ProverBudget(6), max_k=2)
        assert res2.status != "distinct", (phi, psi, q, r)
    assert checked >= 100


def test_proof_serialisation_roundtrip():
    for text, depth in [("|- forall a. (P(a) -> P(a))", 6),
                        ("c = f(c), P(f(c)) |- P(c)", 8),
                        ("forall a. P(a) |- P(c)", 5)]:
        p = prove(ps(text), ProverBudget(depth), sig)
        assert p is not None
        out = format_proof(p)
        p2 = parse_proof(out, sig)
        assert check_proof(p2)[0]
        assert format_proof(p2) == out


def test_parse_proof_rejects_garbage():
    from nomfol.syntax import SyntaxError_
    with pytest.raises(SyntaxError_):
        parse_proof('(frobnicate "P(a) |- P(a)")', sig)
    with pytest.raises(SyntaxError_):
        parse_proof('(hyp "P(a) |- P(a)"', sig)
    # a string cut at an escaping backslash used to raise IndexError
    with pytest.raises(SyntaxError_, match="unterminated string in proof file"):
        parse_proof('(hyp "P(a) |- P(a)\\', sig)


def test_parse_proof_lexes_each_text_once(monkeypatch):
    lexed = []
    tokens = syntax._tokens
    monkeypatch.setattr(syntax, "_tokens", lambda text: lexed.append(text) or tokens(text))
    atom_witnesses = 0
    for seed in range(20):
        p = generate_derivable(sig, seed, 8)[-1][1]
        lexed.clear()
        q = parse_proof(format_proof(p), sig)
        assert format_proof(q) == format_proof(p)
        nodes, texts = [q], 0
        while nodes:
            n = nodes.pop()
            nodes += n.premises
            kinds = _RULES[n.rule][1]
            # the conclusion and each formula or term witness; atoms are not lexed
            texts += 1 + len(kinds) - kinds.count("a")
            atom_witnesses += kinds.count("a")
        assert len(lexed) == texts
    assert atom_witnesses > 0


def test_proof_tokens():
    assert list(_sexpr_tokens('""')) == [("str", "")]
    assert list(_sexpr_tokens('"\\""')) == [("str", '"')]
    assert list(_sexpr_tokens('"\\\\"')) == [("str", "\\")]
    assert list(_sexpr_tokens('(hyp "a |- a")')) == [
        ("(", "("), ("sym", "hyp"), ("str", "a |- a"), (")", ")")]


def _negation_chain(levels):
    """A checked proof with the given number of nested nodes, levels even.

    ~^(levels - 1) P(a), P(a) |- loses one ~ per negL or negR node, down
    to a hyp node on P(a) |- P(a).
    """
    p_a = pf("P(a)")
    proof = Proof("hyp", sequent([p_a], [p_a]))
    phi = p_a
    for i in range(1, levels):
        phi = Neg(phi)
        if i % 2:
            proof = Proof("negL", sequent([phi, p_a], []), (phi,), (proof,))
        else:
            proof = Proof("negR", sequent([p_a], [phi]), (phi,), (proof,))
    return proof


def test_parse_proof_nesting_limit():
    at_limit = format_proof(_negation_chain(100))
    assert check_proof(parse_proof(at_limit, sig)) == (True, "ok")
    # the parser counts nodes, not rules: a hyp with a premise still parses
    over = '(hyp "P(a) |- P(a)" ' + at_limit + ")"
    with pytest.raises(LimitExceeded, match="proof nesting deeper than 100"):
        parse_proof(over, sig)


def test_budget_validation():
    with pytest.raises(ValueError):
        ProverBudget(max_depth=-1)
    # a proof found at depth 99 nests at most 100 nodes, which check reads back
    assert ProverBudget(max_depth=99).max_depth == 99
    with pytest.raises(ValueError, match="prover depth 100 is not in 0..99"):
        ProverBudget(max_depth=100)


def test_prove_classics():
    cases = [
        ("|- ((P(a) -> Q(a,a)) -> P(a)) -> P(a)", 14),  # Peirce, sugar-deep
        ("~(P(a) /\\ Q(a,b)) |- ~P(a) \\/ ~Q(a,b)", 10),
        ("~P(a) \\/ ~Q(a,b) |- ~(P(a) /\\ Q(a,b))", 10),
        ("forall a. (P(a) /\\ Q(a,a)) |- (forall a. P(a)) /\\ (forall a. Q(a,a))", 10),
        ("(forall a. P(a)) /\\ (forall a. Q(a,a)) |- forall a. (P(a) /\\ Q(a,a))", 10),
        ("forall a. forall b. Q(a,b) |- forall b. forall a. Q(a,b)", 10),
        ("P(c) /\\ (c = f(c)) |- P(f(f(c)))", 12),
        ("forall a. (P(a) -> P(f(a))), P(c) |- P(f(f(c)))", 12),
    ]
    for text, depth in cases:
        p = prove(ps(text), ProverBudget(depth), sig)
        assert p is not None, text
        assert check_proof(p)[0], text


# the default signature less its constant c, so default_universe has no c
SIG_NO_C = Signature((("f", 1), ("g", 2)), sig.predicates)

# SHA-256 of the format_proof text (or "none") of every _golden_corpus
# sequent, one per line, pinned while the prover still rebuilt its allL,
# eqR and eqL formulas at every search node
PROVER_GOLDEN = "8e74d714957ab0b6501cd7ca47166afb0bd171ac1cbe55402eda82a4512d6ad6"


def _golden_corpus():
    """(sequent, depth) pairs: random sequents with equations and quantifiers
    on both sides, plus the last two sequents of generate_derivable trails."""
    rng = random.Random(13)
    pool = atoms(0, 1, 2)
    out = []
    for i in range(240):
        gen = sig if i % 4 == 0 else SIG_NO_C
        left = [random_formula(gen, rng, pool, rng.randint(0, 2))
                for _ in range(rng.randint(0, 2))]
        right = [random_formula(gen, rng, pool, rng.randint(0, 2))
                 for _ in range(rng.randint(1, 2))]
        if i % 2:
            left.append(Eq(random_term(gen, rng, pool, 1), random_term(gen, rng, pool, 1)))
        if i % 3 == 0:
            left.append(All(rng.choice(pool), random_formula(gen, rng, pool, 1)))
        out.append((sequent(left, right), 4 if i % 2 else 5))
    for seed in range(40):
        out += ((s, 5) for s, _ in generate_derivable(SIG_NO_C, seed, 6)[-2:])
    return out


def _answer_text(s, depth, signature):
    p = prove(s, ProverBudget(depth), signature)
    if p is None:
        return "none"
    assert check_proof(p) == (True, "ok"), s
    return format_proof(p)


def test_prover_output_is_pinned_and_keeps_no_state_between_calls():
    corpus = _golden_corpus()
    texts = [_answer_text(s, depth, sig) for s, depth in corpus]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == PROVER_GOLDEN
    assert sum(t != "none" for t in texts) == 188

    # whether c is in the universe decides these proofs' allL instances
    apart = [(ps(t), 4) for t in ("forall a1. P(a1), forall a1. R |- R",
                                  "forall a0. Q(g(a1, a0), a0) |- a1 = a1",
                                  "forall a0. P(g(a0, a0)) |- ~(forall a1. bottom)")]
    first = {(i, sig): t for i, t in enumerate(texts)}
    cases = list(enumerate(corpus))[::10] + list(enumerate(apart, len(corpus)))
    # calls on the two signatures alternate, and each call must give that
    # (sequent, signature)'s first answer
    for i, (s, depth) in cases + cases[::-1]:
        for signature in (SIG_NO_C, sig):
            got = _answer_text(s, depth, signature)
            assert first.setdefault((i, signature), got) == got, (s, signature)
    assert all(first[i, sig] != first[i, SIG_NO_C] != "none"
               for i in range(len(corpus), len(corpus) + len(apart)))

    # alpha-equivalent principals under other binder names keep their own
    # instances: the second branch instantiates forall a2, not forall a1
    text = _answer_text(ps("~Q(c, c) |- ~(forall a0. forall a1. Q(a0, a1)) "
                           "/\\ ~(~P(c) /\\ forall a0. forall a2. Q(a0, a2))"), 8, sig)
    assert text.endswith('"forall a2. Q(c, a2)" "c" (hyp "Q(c, c), forall a2. Q(c, a2), '
                         'forall a2. Q(a0, a2), forall a0. forall a2. Q(a0, a2) |- '
                         'P(c), Q(c, c)")))))))))')


def test_guard_changes_no_answer_on_the_golden_corpus():
    # prove's small countermodel check only skips searches that fail
    refuted = refuted_at_2 = 0
    for s, depth in _golden_corpus():
        small = _small_countermodel(s) is not None
        refuted += small
        refuted_at_2 += small and find_countermodel(s, _used(s), 1) is None
        for signature in (sig, SIG_NO_C):
            guarded = prove(s, ProverBudget(depth), signature)
            plain = _search(s, ProverBudget(depth), signature)
            assert (guarded is None) == (plain is None), (s, signature)
            if plain is not None:
                assert format_proof(guarded) == format_proof(plain), (s, signature)
    assert refuted > 0 and refuted_at_2 > 0


def test_verdicts_are_certificates_on_the_golden_corpus():
    # a proof checks, and a countermodel falsifies its sequent under standard_eval
    counts = {"proved": 0, "refuted": 0, "unknown": 0}
    for s, depth in _golden_corpus():
        for signature in (sig, SIG_NO_C):
            v = decide(s, ProverBudget(depth), signature)
            if v.proof is not None:
                counts["proved"] += 1
                assert check_proof(v.proof) == (True, "ok"), s
                assert v.proof.conclusion.key() == s.key()
            elif v.countermodel is not None:
                counts["refuted"] += 1
                model, vs = v.countermodel
                assert all(standard_eval(f, model, vs) for f in s.left), s
                assert not any(standard_eval(f, model, vs) for f in s.right), s
            else:
                counts["unknown"] += 1
    assert counts == {"proved": 376, "refuted": 256, "unknown": 8}


def ref_symbols(formulas):
    """(funcs, preds, has_equation) from _atomic and formula_terms, the
    chained walks _symbols once made."""
    atomic = list(sequent_module._atomic(formulas))
    funcs = {(t.fn, len(t.args)) for t in formula_terms(atomic) if isinstance(t, App)}
    preds = {(f.name, len(f.args)) for f in atomic if isinstance(f, Pred)}
    return funcs, preds, any(isinstance(f, Eq) for f in atomic)


def test_symbols_match_the_chained_walks():
    rng = random.Random(31)
    pool = atoms(0, 1, 2)
    cases = [s.left + s.right for s, _ in _golden_corpus()]
    for _ in range(400):
        fs = [random_formula(sig, rng, pool, rng.randint(0, 4))
              for _ in range(rng.randint(0, 3))]
        # an equation buried under a negation or a quantifier, or both
        e = Eq(random_term(sig, rng, pool, 2), random_term(sig, rng, pool, 2))
        buried = rng.choice([Neg(e), All(rng.choice(pool), e),
                             Neg(All(rng.choice(pool), And(BOT, Neg(e))))])
        cases += [tuple(fs), tuple(fs) + (buried,)]
    equations = 0
    for fs in cases:
        got = _symbols(fs)
        assert got == ref_symbols(fs), fs
        equations += got[2]
    assert 400 <= equations < len(cases)


def test_a_verdict_is_never_both():
    s = ps("P(a) |- P(a)")
    proof = prove(s)
    model = find_countermodel(ps("|- P(a)"), sig, 1)
    assert Verdict(proof).proof is proof and Verdict(None, model).countermodel is model
    with pytest.raises(ValueError):
        Verdict(proof, model)


def P(*args):
    """P applied to atoms, at any arity, built without a signature."""
    return Pred("P", tuple(Var(x) for x in args))


def test_guard_needs_no_signature(monkeypatch):
    # the guard's model interprets the sequent's own symbols, so a call
    # without sig refutes P(a0) at size 1 and never searches
    monkeypatch.setattr(sequent_module, "_search", None)
    assert prove(sequent([], [P(a)])) is None


def test_guard_falls_through_to_the_search():
    # P at two arities makes no signature
    assert _symbols([P(a), P(a, b)]) == (set(), {("P", 1), ("P", 2)}, False)
    mixed = sequent([P(a), P(a, b)], [P(a)])
    assert not _small_countermodel(mixed)
    assert prove(mixed).rule == "hyp"
    assert prove(sequent([P(a)], [P(a, b)]), ProverBudget(3)) is None
    # P as a function and as a predicate
    assert not _small_countermodel(sequent([], [Pred("P", (syntax.App("P", ()),))]))
    # 21 nullary predicates: 2**21 size-1 models, more than the limit
    wide = [Pred(f"P{i}", ()) for i in range(21)]
    with pytest.raises(SearchRefused):
        find_countermodel(sequent(wide, [wide[0]]),
                          Signature((), tuple((f.name, 0) for f in wide)), 1)
    assert not _small_countermodel(sequent(wide, [Pred("Q", ())]))
    p = prove(sequent(wide, [wide[7]]), ProverBudget(2))
    assert p.rule == "hyp" and check_proof(p)[0]


def test_guard_searches_size_2_only_for_small_equational_sequents(monkeypatch):
    searched = []
    monkeypatch.setattr(sequent_module, "_search",
                        lambda s, budget, sig: searched.append(s))
    Qs = [Pred(f"Q{i}", (Var(a), Var(b))) for i in range(5)]
    # a = b holds in every model of size 1 but not of size 2: with two
    # binary predicates the size-2 space is 2**4 * 2**4 * 2**2 = 1,024
    # pairs, and with three 16,384, both refuted without a search
    assert prove(sequent(Qs[:2], [Eq(Var(a), Var(b))])) is None
    three = sequent(Qs[:3], [Eq(Var(a), Var(b))])
    funcs, preds, _ = _symbols(three.left + three.right)
    assert _size_space(funcs, preds, 2, 2) == 16384
    assert prove(three) is None
    assert searched == []
    # with five it is 2**20 * 2**2 = 4,194,304, over find_countermodel's
    # limit: the guard is refused, so it is searched
    over = sequent(Qs, [Eq(Var(a), Var(b))])
    funcs, preds, _ = _symbols(over.left + over.right)
    assert _size_space(funcs, preds, 2, 2) == 4194304 > COUNTERMODEL_SPACE_LIMIT
    with pytest.raises(SearchRefused):
        find_countermodel(over, _used(over), 2)
    assert not _small_countermodel(over)
    prove(over)
    assert searched == [over]
    # no equation: size 2 is not searched either, though it refutes s
    split = sequent([], [Or(All(a, P(a)), All(a, Neg(P(a))))])
    assert find_countermodel(split, _used(split), 2) is not None
    assert not _small_countermodel(split)


def _ref_atoms(phi):
    """The atomic subformulas of phi, by a recursive walk."""
    if isinstance(phi, And):
        return _ref_atoms(phi.lhs) + _ref_atoms(phi.rhs)
    if isinstance(phi, (Neg, All)):
        return _ref_atoms(phi.body)
    return [phi]


def ref_guard_size(s):
    """The size the guard searches, by its first rule; None for no search.

    The symbols s uses must make a checked Signature.  Then size 2 is
    searched when s has an equation, and size 1 otherwise.
    """
    fs = s.left + s.right
    atomic = [f for phi in fs for f in _ref_atoms(phi)]
    funcs = {(t.fn, len(t.args)) for phi in fs for t in ref_formula_terms(phi)
             if isinstance(t, App)}
    preds = {(f.name, len(f.args)) for f in atomic if isinstance(f, Pred)}
    try:
        Signature(tuple(sorted(funcs)), tuple(sorted(preds)))
    except ValueError:
        return None
    return 2 if any(isinstance(f, Eq) for f in atomic) else 1


def test_guard_sizes_follow_the_checked_signature_rule(monkeypatch):
    # the guard builds no Signature of its own: find_countermodel's
    # ValueError stands for the one it built, and its size comes from
    # _symbols' pairs
    asked = []

    def recording(s, signature, max_k, **kw):
        asked.append(max_k)
        return find_countermodel(s, signature, max_k, **kw)

    monkeypatch.setattr(sequent_module, "find_countermodel", recording)
    Qs = [Pred(f"Q{i}", (Var(a), Var(b))) for i in range(3)]
    odd = [sequent([P(a), P(a, b)], [P(a)]), sequent([P(a)], [P(a, b)]),
           sequent([P(a), P(a, b)], [Eq(Var(a), Var(b))]),
           sequent([], [Pred("P", (App("P", ()),))]),
           sequent([Pred("P", (App("P", ()),)), Eq(Var(a), Var(b))], []),
           sequent(Qs[:2], [Eq(Var(a), Var(b))]), sequent(Qs, [Eq(Var(a), Var(b))])]
    cases = [(s, signature) for s, _ in _golden_corpus() for signature in (sig, SIG_NO_C)]
    cases += [(s, signature) for s in odd for signature in (None, sig, SIG_NO_C)]
    sizes = []
    for s, signature in cases:
        asked.clear()
        got = _small_countermodel(s, signature)
        want = ref_guard_size(s)
        sizes.append(want)
        if want is None:
            assert got is None, s
            with pytest.raises(ValueError):
                find_countermodel(s, signature, asked[0])
        else:
            assert asked == [want], (s, signature)
    assert set(sizes) == {None, 1, 2}


def test_guard_cuts_a_wide_hyp_sequent(monkeypatch):
    # 19 nullary predicates: 2**19 size-1 models, closed by hyp at the root
    wide = [Pred(f"P{i}", ()) for i in range(19)]
    s = sequent(wide, [wide[3]])
    monkeypatch.setattr(sequent_module, "_small_countermodel", None)
    p = prove(s, ProverBudget(2))
    assert p.rule == "hyp" and check_proof(p)[0]
    # the guard decides size 1 on the truth bits of the 2**19 assignments:
    # it builds no model and evaluates nothing with standard_eval
    monkeypatch.undo()
    calls = _model_search_calls(monkeypatch)
    assert _small_countermodel(s) is None
    assert calls == []


def test_backward_proofs_sound_in_lift():
    # sequents the backward prover settles are valid in random lifted
    # models and under brute-force evaluation: soundness checked on the
    # search itself, independent of the proof checker and of prove's
    # countermodel check, which would keep a refuted sequent from the search
    rng = random.Random(44)
    pool = atoms(0, 1)
    settled = 0
    for i in range(150):
        s = sequent([random_formula(sigP, rng, pool, 2)
                     for _ in range(rng.randint(0, 2))],
                    [random_formula(sigP, rng, pool, 2)])
        p = _search(s, ProverBudget(6), sigP)
        if p is None:
            continue
        settled += 1
        for _ in range(5):
            N = random_model(sigP, rng.randint(1, 3), rng)
            assert sequent_valid(s.left, s.right, lift_interpretation(N)), s
            for vs in all_valuations(s.free_atoms(), N.k):
                holds = all(standard_eval(f, N, vs) for f in s.left)
                assert (not holds) or any(standard_eval(f, N, vs)
                                          for f in s.right), (s, vs)
    assert settled >= 30
