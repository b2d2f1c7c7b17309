import random

import pytest
from hypothesis import given, settings, strategies as st

from nomfol.nominal import Perm, act, atoms
from nomfol.syntax import (All, And, App, BOT, Eq, Iff, Imp, Neg, Or,
                           Pred, Signature, SyntaxError_, TOP, Var, all_atoms,
                           alpha_eq, alpha_key, default_signature, free_atoms,
                           free_atoms_term, parse_formula, parse_signature,
                           parse_term, pretty, pretty_term, random_formula,
                           random_term, subst_formula, subst_term)

sig = default_signature()
a, b, c3 = atoms(0, 1, 2)  # "c" is a constant in the default signature
x, y = Var(a), Var(b)


def P(t):
    return Pred("P", (t,))


def test_parse_examples():
    phi = parse_formula("forall a. P(a) /\\ Q(b, b)", sig)
    # the quantifier extends right as far as possible
    assert isinstance(phi, All)
    assert isinstance(phi.body, And)

    psi = parse_formula("~ (x = y)", sig)
    assert isinstance(psi, Neg) and isinstance(psi.body, Eq)

    chi = parse_formula("P(f(a))", sig)
    assert chi == P(App("f", (Var(a),)))


def test_parse_errors():
    with pytest.raises(SyntaxError_):
        parse_formula("P(a", sig)
    with pytest.raises(SyntaxError_):
        parse_formula("P(a, b)", sig)  # arity mismatch
    with pytest.raises(SyntaxError_):
        parse_formula("P(a) /\\", sig)
    with pytest.raises(SyntaxError_):
        parse_term("Q(a, b)", sig)  # predicate used as a term
    with pytest.raises(SyntaxError_):
        parse_formula("forall P. R", sig)


def test_sugar_desugars():
    assert parse_formula("top", sig) == TOP
    phi, psi = P(x), P(y)
    assert parse_formula("P(a) \\/ P(b)", sig) == Or(phi, psi)
    assert parse_formula("P(a) -> P(b)", sig) == Imp(phi, psi)
    assert parse_formula("P(a) <-> P(b)", sig) == Iff(phi, psi)


def test_precedence():
    # ~ > /\ > \/ > -> > <->
    phi = parse_formula("~P(a) /\\ P(b) \\/ R -> R <-> R", sig)
    r = Pred("R", ())
    expect = Iff(Imp(Or(And(Neg(P(x)), P(y)), r), r), r)
    assert phi == expect


def test_free_atoms():
    assert free_atoms(All(a, Pred("Q", (x, y)))) == {b}
    assert free_atoms(BOT) == frozenset()
    phi = And(Eq(x, y), All(b, P(y)))
    assert free_atoms(phi) == {a, b}
    assert all_atoms(phi) == {a, b}


def test_alpha_eq():
    assert alpha_eq(All(a, P(x)), All(b, P(y)))
    # forall a. Q(a,b) vs forall b. Q(b,b): swap both to fresh c gives
    # Q(c,b) vs Q(c,c)
    assert not alpha_eq(All(a, Pred("Q", (x, y))), All(b, Pred("Q", (y, y))))
    phi = random_formula(sig, random.Random(5), atoms(0, 1, 2), 4)
    assert alpha_eq(phi, phi)


def test_alpha_key_matches_alpha_eq():
    rng = random.Random(6)
    pool = atoms(0, 1, 2)
    fs = [random_formula(sig, rng, pool, 3) for _ in range(120)]
    for phi in fs:
        pi = Perm({pool[0]: pool[1], pool[1]: pool[2], pool[2]: pool[0]})
        renamed = act(pi, phi)
        if alpha_eq(phi, renamed):
            assert alpha_key(phi) == alpha_key(renamed)
    for phi in fs[:40]:
        for psi in fs[:40]:
            assert (alpha_key(phi) == alpha_key(psi)) == alpha_eq(phi, psi)


def test_subst_capture_avoiding():
    # (forall b. Q(a, b))[a := b] freshens the binder
    phi = All(b, Pred("Q", (x, y)))
    out = subst_formula(phi, a, y)
    assert isinstance(out, All)
    assert out.binder not in {a, b}
    assert alpha_eq(out, All(c3, Pred("Q", (y, Var(c3)))))


def test_subst_identity_and_garbage():
    rng = random.Random(7)
    pool = atoms(0, 1, 2)
    for _ in range(200):
        phi = random_formula(sig, rng, pool, 3)
        q = rng.choice(pool)
        assert alpha_eq(subst_formula(phi, q, Var(q)), phi)
    assert subst_formula(P(x), b, App("f", (App("c", ()),))) == P(x)


def test_supp_lemma_direction():
    rng = random.Random(8)
    pool = atoms(0, 1, 2, 3)
    for _ in range(300):
        phi = random_formula(sig, rng, pool, 3)
        r = random_term(sig, rng, pool, 2)
        q = rng.choice(pool)
        got = free_atoms(subst_formula(phi, q, r))
        assert got <= (free_atoms(phi) - {q}) | free_atoms_term(r)


def test_perm_commutes_with_subst():
    rng = random.Random(9)
    pool = atoms(0, 1, 2, 3)
    for _ in range(300):
        phi = random_formula(sig, rng, pool, 3)
        r = random_term(sig, rng, pool, 2)
        q = rng.choice(pool)
        ids = list(range(5))
        rng.shuffle(ids)
        pi = Perm({atoms(i)[0]: atoms(j)[0] for i, j in enumerate(ids)})
        lhs = act(pi, subst_formula(phi, q, r))
        rhs = subst_formula(act(pi, phi), pi(q), act(pi, r))
        assert alpha_eq(lhs, rhs)


def test_roundtrip_1000():
    rng = random.Random(10)
    pool = atoms(0, 1, 2, 3)
    for _ in range(1000):
        phi = random_formula(sig, rng, pool, 5)
        again = parse_formula(pretty(phi), sig)
        assert alpha_eq(again, phi)


def test_term_roundtrip():
    rng = random.Random(11)
    pool = atoms(0, 1, 2)
    for _ in range(200):
        t = random_term(sig, rng, pool, 3)
        assert parse_term(pretty_term(t), sig) == t


def test_signature_file():
    text = """
    # arithmetic-ish
    fun zero 0
    fun succ 1
    pred even 1
    """
    s2 = parse_signature(text)
    assert s2.fun_arity("succ") == 1
    assert s2.pred_arity("even") == 1
    assert s2.constants() == ["zero"]
    with pytest.raises(ValueError):
        Signature((("f", 1), ("f", 2)), ())
    with pytest.raises(SyntaxError_):
        parse_signature("fun f -1")


atom_st = st.integers(0, 4).map(lambda i: atoms(i)[0])
term_st = st.deferred(lambda: st.one_of(
    atom_st.map(Var),
    st.just(App("c", ())),
    st.builds(lambda t: App("f", (t,)), term_st),
    st.builds(lambda s, t: App("g", (s, t)), term_st, term_st),
))


@settings(max_examples=300)
@given(term_st, term_st, term_st, atom_st, atom_st)
def test_substitution_lemma_hypothesis(x, u, v, p, q):
    # the substitution-composition law, under its side conditions
    from hypothesis import assume
    assume(p != q)
    assume(p not in free_atoms_term(v))
    lhs = subst_term(subst_term(x, p, u), q, v)
    rhs = subst_term(subst_term(x, q, v), p, subst_term(u, q, v))
    assert lhs == rhs


@settings(max_examples=200)
@given(term_st, atom_st)
def test_subst_id_hypothesis(x, p):
    assert subst_term(x, p, Var(p)) == x


def test_parser_never_hangs_on_noise():
    # arbitrary token soup either parses or raises a positioned error
    rng = random.Random(12)
    vocab = ["P", "Q", "f", "g", "c", "a", "b", "x", "(", ")", ",", ".",
             "/\\", "\\/", "~", "->", "<->", "=", "forall", "bottom", "top"]
    outcomes = {"ok": 0, "err": 0}
    for _ in range(500):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12)))
        try:
            parse_formula(text, sig)
            outcomes["ok"] += 1
        except SyntaxError_:
            outcomes["err"] += 1
    assert outcomes["err"] > 0  # noise mostly fails, and never crashes


def test_nesting_limit():
    # each (, ~, forall, argument list and binary connective is one level
    for deep in ["~" * 100 + "R", "(" * 100 + "R" + ")" * 100,
                 "forall b. " * 100 + "R", " /\\ ".join(["R"] * 101),
                 " \\/ ".join(["R"] * 101), " -> ".join(["R"] * 101),
                 "P(" + "f(" * 99 + "a" + ")" * 100]:
        parse_formula(deep, sig)
    with pytest.raises(SyntaxError_, match="nesting deeper than 100 at position 100"):
        parse_formula("~" * 101 + "R", sig)
    with pytest.raises(SyntaxError_, match="at position 100"):
        parse_formula("(" * 101 + "R" + ")" * 101, sig)
    with pytest.raises(SyntaxError_, match="nesting deeper than 100"):
        parse_formula(" /\\ ".join(["R"] * 102), sig)
    with pytest.raises(SyntaxError_, match="nesting deeper than 100"):
        parse_formula("P(" + "f(" * 100 + "a" + ")" * 101, sig)
