import random

import pytest

from nomfol.nominal import act, atoms, fresh, support, swap
from nomfol.samplers import tarski_sampler
from nomfol.sigma import sigma_axiom_suite
from nomfol.syntax import (All, BOT, Eq, Neg, Or, Pred, Signature,
                           SyntaxError_, Var)
from nomfol.tarski import (MAX_DEPS, OrdinaryModel, TableFun, Valuation,
                           agreement_check, all_valuations, iter_models,
                           lift_interpretation, parse_model,
                           random_tablefun, standard_eval, tablefun,
                           tarski_termlike, tf_atm,
                           tf_canonicalise, tf_const, tf_eq, tf_freshmeet,
                           tf_leq, tf_meet, tf_subst)

a, b, c3 = atoms(0, 1, 2)
sig1 = Signature((), (("P", 1),))
N2 = OrdinaryModel(sig1, 2, {}, {"P": (False, True)})


def test_standard_eval_examples():
    phi = All(a, Pred("P", (Var(a),)))
    assert standard_eval(phi, N2, Valuation()) is False
    assert standard_eval(Eq(Var(a), Var(a)), N2, Valuation()) is True
    assert standard_eval(Pred("P", (Var(a),)), N2, Valuation({a: 1})) is True
    assert standard_eval(Pred("P", (Var(a),)), N2, Valuation({a: 0})) is False


def test_tf_apply():
    proj = tf_atm(2, a)
    assert proj(Valuation({a: 1})) == 1
    assert proj(Valuation({b: 1})) == 0
    const = tf_const(3, 2)
    for vs in all_valuations((a, b), 3):
        assert const(vs) == 2
    eq_ab = tf_eq(tf_atm(2, a), tf_atm(2, b))
    assert eq_ab(Valuation({a: 0, b: 0})) is True
    assert eq_ab(Valuation({a: 0, b: 1})) is False


def test_tf_subst_examples():
    u = random_tablefun(2, random.Random(0), (b, c3), outputs=2)
    assert tf_subst(tf_atm(2, a), a, u) == u
    f = random_tablefun(2, random.Random(1), (a, b), outputs=None)
    assert tf_subst(f, a, tf_atm(2, a)) == f
    assert tf_subst(tf_atm(2, a), a, tf_atm(2, b)) == tf_atm(2, b)


def test_tf_canonicalise():
    # constant in one coordinate: that dep is pruned
    f = TableFun(2, (a, b), (False, True, False, True))  # reads only b
    g = tf_canonicalise(f)
    assert g.deps == (b,)
    assert g.table == (False, True)
    assert tf_canonicalise(g) == g
    for vs in all_valuations((a, b), 2):
        assert f(vs) == g(vs)
    # a tautological comparison collapses to a constant
    taut = tablefun(2, (a,), lambda m: m[a] == m[a])
    assert taut == tf_const(2, True)


def test_tf_freshmeet():
    f = tablefun(2, (a,), lambda m: m[a] == 1)
    assert tf_freshmeet(a, f) == tf_const(2, False)
    g = random_tablefun(2, random.Random(2), (b,), outputs=None)
    assert tf_freshmeet(a, g) == g  # a not in deps
    assert tf_freshmeet(a, tf_const(2, True)) == tf_const(2, True)


def test_tf_eq():
    u = random_tablefun(3, random.Random(3), (a, b), outputs=3)
    assert tf_eq(u, u) == tf_const(3, True)
    diag = tf_eq(tf_atm(2, a), tf_atm(2, b))
    assert diag.deps == (a, b)
    assert diag.table == (True, False, False, True)
    assert tf_eq(tf_const(2, 0), tf_const(2, 1)) == tf_const(2, False)


def test_tf_act_reorders_table():
    f = tablefun(2, (a, b), lambda m: m[a] == 1 and m[b] == 0)
    g = act(swap(a, c3), f)
    assert g.deps == (b, c3)
    for vs in all_valuations((b, c3), 2):
        assert g(vs) == (vs.lookup(c3) == 1 and vs.lookup(b) == 0)
    assert act(swap(a, c3), g) == tf_canonicalise(f)


def test_dep_width_limit():
    pool = atoms(*range(MAX_DEPS + 1))
    with pytest.raises(ValueError):
        tablefun(2, pool, lambda m: True)


def test_lift_interpretation_tables():
    I = lift_interpretation(N2)
    p_at = I.pred_interp("P", (a,))
    assert p_at == tablefun(2, (a,), lambda m: m[a] == 1)
    sig2 = Signature((("z", 0), ("add", 2)), ())
    M = OrdinaryModel(sig2, 2, {"z": (0,), "add": (0, 1, 1, 0)}, {})
    J = lift_interpretation(M)
    assert J.fun_interp("z", ()) == tf_const(2, 0)
    xor = J.fun_interp("add", (a, b))
    for vs in all_valuations((a, b), 2):
        assert xor(vs) == (vs.lookup(a) + vs.lookup(b)) % 2


def test_sigma_suite_lift_exact():
    for k in (2, 3):
        rep = sigma_axiom_suite(tarski_termlike(k), tarski_sampler(k), 400,
                                seed=20 + k)
        assert rep.ok, "\n".join(rep.lines())
        assert [r.name for r in rep.results][0] == "sigma-a"


def test_support_is_exact_on_tables():
    rng = random.Random(21)
    pool = atoms(0, 1, 2, 3)
    for _ in range(400):
        k = rng.choice((2, 3))
        f = random_tablefun(k, rng, pool, outputs=rng.choice((None, k)))
        w = fresh(pool)
        for q in pool:
            changed = act(swap(q, w), f) != f
            assert changed == (q in support(f))


def test_monotone():
    rng = random.Random(22)
    pool = atoms(0, 1, 2)
    for _ in range(200):
        k = rng.choice((2, 3))
        f = random_tablefun(k, rng, pool, outputs=None)
        g = tf_meet(f, random_tablefun(k, rng, pool, outputs=None))
        # g <= f pointwise by construction
        u = random_tablefun(k, rng, pool, outputs=k)
        q = rng.choice(pool)
        assert tf_leq(tf_subst(g, q, u), tf_subst(f, q, u))


def test_freshmeet_is_meet_of_constant_instances():
    rng = random.Random(23)
    pool = atoms(0, 1, 2)
    for _ in range(200):
        k = rng.choice((2, 3))
        f = random_tablefun(k, rng, pool, outputs=None)
        q = rng.choice(pool)
        finite = tf_const(k, True)
        for x in range(k):
            finite = tf_meet(finite, tf_subst(f, q, tf_const(k, x)))
        assert tf_freshmeet(q, f) == finite


def test_agreement_examples():
    assert agreement_check(BOT, N2)
    taut = All(a, Or(Pred("P", (Var(a),)), Neg(Pred("P", (Var(a),)))))
    for k in (1, 2, 3):
        N = OrdinaryModel(sig1, k, {}, {"P": tuple(i % 2 == 0 for i in range(k))})
        assert agreement_check(taut, N)
    assert agreement_check(Pred("P", (Var(a),)), N2)


def test_model_file_roundtrip():
    sig2 = Signature((("z", 0), ("s", 1)), (("P", 1),))
    M = OrdinaryModel(sig2, 3, {"z": (0,), "s": (1, 2, 0)},
                      {"P": (True, False, True)})
    M2 = parse_model(M.format(), sig2)
    assert M2.k == 3 and M2.funcs == M.funcs and M2.preds == M.preds
    with pytest.raises(SyntaxError_):
        parse_model("fun z : 0", sig2)
    with pytest.raises(SyntaxError_):
        parse_model("domain 2\nfun nope : 0", sig2)
    with pytest.raises(ValueError):
        OrdinaryModel(sig2, 0, {}, {})


def test_iter_models_count():
    # one unary predicate over k=2: exactly 2^2 models, lexicographic
    models = list(iter_models(sig1, 2))
    assert len(models) == 4
    assert models[0].preds["P"] == (False, False)
    assert models[-1].preds["P"] == (True, True)


def test_valuation_action_renames_keys_only():
    vs = Valuation({a: 1, b: 2}, 0)
    out = act(swap(a, c3), vs)
    assert out.overrides == {c3: 1, b: 2}
    assert out.default == 0
