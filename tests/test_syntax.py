import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from nomfol.nominal import Atom, Perm, act, atoms, fresh, swap
from nomfol.sequent import parse_sequent
from nomfol.syntax import (All, And, App, BOT, Eq, Iff, Imp, LimitExceeded,
                           MAX_FORMULA_NODES, Neg, Or, Pred, Signature,
                           SyntaxError_, TOP, Var, _alpha_key_walk, all_atoms,
                           alpha_eq, alpha_key, atom_id, default_signature,
                           free_atoms, free_atoms_term, parse_formula,
                           parse_shared, parse_signature, parse_term, pretty,
                           pretty_term, random_formula, random_term,
                           subst_formula, subst_term)

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
    # /\ and \/ group to the left, -> and <-> to the right
    for op, build, left in [("/\\", And, True), ("\\/", Or, True),
                            ("->", Imp, False), ("<->", Iff, False)]:
        got = parse_formula(f"P(a) {op} P(b) {op} R", sig)
        assert got == (build(build(P(x), P(y)), r) if left
                       else build(P(x), build(P(y), r))), op


def test_free_atoms():
    assert free_atoms(All(a, Pred("Q", (x, y)))) == {b}
    assert free_atoms(BOT) == frozenset()
    phi = And(Eq(x, y), All(b, P(y)))
    assert free_atoms(phi) == {a, b}
    assert all_atoms(phi) == {a, b}


def ref_alpha_eq(phi, psi):
    """Alpha-equivalence decided recursively, binders at a common fresh atom.

    The reference for ``alpha_key``, which ``alpha_eq`` compares.
    """
    if type(phi) is not type(psi):
        return False
    if isinstance(phi, (Eq, Pred)) or phi == BOT:
        return phi == psi
    if isinstance(phi, And):
        return ref_alpha_eq(phi.lhs, psi.lhs) and ref_alpha_eq(phi.rhs, psi.rhs)
    if isinstance(phi, Neg):
        return ref_alpha_eq(phi.body, psi.body)
    if free_atoms(phi) != free_atoms(psi):
        return False
    if phi.binder == psi.binder:
        return ref_alpha_eq(phi.body, psi.body)
    c = fresh(free_atoms(phi.body) | free_atoms(psi.body) | {phi.binder, psi.binder})
    return ref_alpha_eq(act(swap(c, phi.binder), phi.body), act(swap(c, psi.binder), psi.body))


def test_alpha_eq():
    # each case is decided by alpha_eq, by the keys and by the reference
    phi = random_formula(sig, random.Random(5), atoms(0, 1, 2), 4)
    cases = [(All(a, P(x)), All(b, P(y)), True),
             # forall a. Q(a,b) vs forall b. Q(b,b): swap both to fresh c
             # gives Q(c,b) vs Q(c,c)
             (All(a, Pred("Q", (x, y))), All(b, Pred("Q", (y, y))), False),
             (phi, phi, True)]
    for lhs, rhs, same in cases:
        assert alpha_eq(lhs, rhs) == same
        assert (alpha_key(lhs) == alpha_key(rhs)) == same
        assert ref_alpha_eq(lhs, rhs) == same


def test_alpha_key_matches_alpha_eq():
    rng = random.Random(6)
    pool = atoms(0, 1, 2)
    fs = [random_formula(sig, rng, pool, 3) for _ in range(120)]
    for phi in fs:
        pi = Perm({pool[0]: pool[1], pool[1]: pool[2], pool[2]: pool[0]})
        renamed = act(pi, phi)
        if ref_alpha_eq(phi, renamed):
            assert alpha_key(phi) == alpha_key(renamed)
    for phi in fs[:40]:
        for psi in fs[:40]:
            assert (alpha_key(phi) == alpha_key(psi)) == ref_alpha_eq(phi, psi)


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


NOISE_VOCAB = ["P", "Q", "f", "g", "c", "a", "b", "x", "(", ")", ",", ".",
               "/\\", "\\/", "~", "->", "<->", "=", "forall", "bottom", "top", "|-"]


def test_parser_never_hangs_on_noise():
    # arbitrary token soup either parses or raises a positioned error
    rng = random.Random(12)
    outcomes = {"ok": 0, "err": 0}
    for _ in range(500):
        text = " ".join(rng.choice(NOISE_VOCAB) for _ in range(rng.randint(1, 12)))
        for parse in (parse_formula, parse_sequent):
            try:
                parse(text, sig)
                outcomes["ok"] += 1
            except SyntaxError_:
                outcomes["err"] += 1
    assert outcomes["err"] > 0  # noise mostly fails, and never crashes


def test_atom_names_have_at_most_100_digits():
    assert parse_formula("P(a" + "9" * 100 + ")", sig) == P(Var(Atom(10 ** 100 - 1)))
    with pytest.raises(SyntaxError_, match=r"^atom name a0000000000\.\.\. has 101 "
                                           r"digits, more than 100$"):
        parse_formula("P(a" + "0" * 101 + ")", sig)
    with pytest.raises(SyntaxError_, match="has 5000 digits"):
        atom_id("a" + "9" * 5000)
    assert atom_id("a" + "0" * 100) == 0 and atom_id("a") is None


def test_lexer_names_the_bad_character():
    with pytest.raises(SyntaxError_, match=r"^unexpected character at 5: '\$'$"):
        parse_formula("P(a) $", sig)


def test_nesting_limit():
    # each (, ~, forall, argument list and binary connective is one level
    for deep in ["~" * 100 + "R", "(" * 100 + "R" + ")" * 100,
                 "forall b. " * 100 + "R", " /\\ ".join(["R"] * 101),
                 " \\/ ".join(["R"] * 101), " -> ".join(["R"] * 101),
                 "P(" + "f(" * 99 + "a" + ")" * 100]:
        parse_formula(deep, sig)
    # a chain's levels end with the chain: 1 + 60 levels, then 1 + 99
    for op in ("/\\", "\\/", "->"):
        parse_formula("(" + f" {op} ".join(["R"] * 61) + f") {op} " + "~" * 99 + "R", sig)
    with pytest.raises(SyntaxError_, match="nesting deeper than 100 at position 100"):
        parse_formula("~" * 101 + "R", sig)
    with pytest.raises(SyntaxError_, match="at position 100"):
        parse_formula("(" * 101 + "R" + ")" * 101, sig)
    with pytest.raises(SyntaxError_, match="nesting deeper than 100"):
        parse_formula(" /\\ ".join(["R"] * 102), sig)
    with pytest.raises(SyntaxError_, match="nesting deeper than 100"):
        parse_formula("P(" + "f(" * 100 + "a" + ")" * 101, sig)


# the keys fix the order of formulas in a sequent, and so the search order
# and every printed proof; a new format must show up here first
PINNED_KEYS = [
    ("bottom", "F"),
    ("top", "!(F)"),
    ("P(a)", "@P(f0,)"),
    ("Q(f(a), g(b, c))", "@Q(f(f0,),g(f1,c(),),)"),
    ("a = f(b)", "=f0,f(f1,)"),
    ("forall a. P(a)", "A(@P(b0,))"),
    ("forall a. forall b. Q(a, b) /\\ P(a3)", "A(A(&(@Q(b0,b1,))(@P(f3,))))"),
    ("~(a = b) -> R", "!(&(!(!(!(=f0,f1))))(!(@R())))"),
    ("forall a. (P(a) <-> P(b))",
     "A(&(!(&(!(!(@P(b0,))))(!(@P(f1,)))))(!(&(!(!(@P(f1,))))(!(@P(b0,))))))"),
    ("forall a. (forall a. P(a)) /\\ P(a)", "A(&(A(@P(b1,)))(@P(b0,)))"),
    ("forall b. b = f(a)", "A(=b0,f(f1,))"),
    ("forall x. forall y. g(x, f(y)) = g(y, z)", "A(A(=g(b0,f(b1,),),g(b1,f2,)))"),
]


def test_alpha_key_pinned():
    for text, key in PINNED_KEYS:
        phi = parse_formula(text, sig)
        assert _alpha_key_walk(phi) == key, text
        assert alpha_key(phi) == key, text
        assert alpha_key(phi) == key, text  # from the cache


def _subformulas(phi):
    yield phi
    if isinstance(phi, And):
        yield from _subformulas(phi.lhs)
        yield from _subformulas(phi.rhs)
    elif isinstance(phi, (Neg, All)):
        yield from _subformulas(phi.body)


def _free_reference(phi):
    # recomputed from the leaves, reading no cache
    if isinstance(phi, (Eq, Pred)) or phi == BOT:
        return phi._support_()
    if isinstance(phi, And):
        return _free_reference(phi.lhs) | _free_reference(phi.rhs)
    if isinstance(phi, Neg):
        return _free_reference(phi.body)
    return _free_reference(phi.body) - {phi.binder}


def _cache_corpus(seed):
    """Random formulas, and nodes built from them by subst_formula and act.

    Every other source formula has its caches filled before the new nodes
    are built from it, so a cache carried over to a new node would show.
    """
    rng = random.Random(seed)
    pool = atoms(0, 1, 2, 3)
    out = []
    for i in range(150):
        phi = random_formula(sig, rng, pool, rng.randint(0, 4))
        if i % 2:
            for f in _subformulas(phi):
                alpha_key(f), free_atoms(f)
        q, r = rng.choice(pool), rng.choice(pool)
        out += [phi, subst_formula(phi, q, random_term(sig, rng, pool, 2)),
                act(swap(q, r), phi), act(Perm({pool[0]: pool[3], pool[3]: pool[0]}), phi)]
    return out


def _shared_corpus(seed):
    """Formulas whose nodes are shared: parsed <-> chains, which use each
    operand twice, and subst_formula outputs of already keyed sources."""
    rng = random.Random(seed)
    pool = atoms(0, 1, 2, 3)
    texts = ["P(a) <-> Q(a, b)", "forall a. (P(a) <-> ~Q(a, b)) <-> R",
             "~(forall b. P(b) <-> a = f(b)) <-> (R <-> forall a. Q(a, a))",
             _iffs(4)]
    out = [parse_formula(t, sig) for t in texts]
    for i in range(200):
        phi = random_formula(sig, rng, pool, rng.randint(1, 5))
        if i % 2:
            for f in _subformulas(phi):
                alpha_key(f)
        out.append(subst_formula(phi, rng.choice(pool), random_term(sig, rng, pool, 2)))
        out.append(Iff(phi, out[-1]))
    return out


def test_cached_key_matches_reference_walk():
    # a conjunction's or a negation's key is put together from its
    # children's, which may be shared nodes keyed earlier
    shared = 0
    for phi in _cache_corpus(13) + _shared_corpus(16):
        subs = list(_subformulas(phi))
        shared += len(subs) - len({id(f) for f in subs})
        # ask the children first on half of the trees, the root first on the rest
        order = subs[::-1] if len(subs) % 2 else subs
        for f in order:
            assert alpha_key(f) == _alpha_key_walk(f)
        for f in subs:
            assert f._key == _alpha_key_walk(f)
    assert shared > 500


def test_cached_free_atoms_match_support():
    for phi in _cache_corpus(14):
        subs = list(_subformulas(phi))
        for f in (subs[::-1] if len(subs) % 2 else subs):
            assert free_atoms(f) == _free_reference(f) == f._support_()
        for f in subs:
            assert f._free == _free_reference(f)


def test_caches_take_no_part_in_equality():
    phi = parse_formula("forall a0. Q(a0, a1) /\\ P(c)", sig)
    psi = parse_formula("forall a0. Q(a0, a1) /\\ P(c)", sig)
    alpha_key(phi), free_atoms(phi)
    assert phi._key is not None and psi._key is None
    assert phi == psi and hash(phi) == hash(psi)
    assert repr(phi) == repr(psi)
    # an alpha-variant shares the key but stays a different tree
    renamed = parse_formula("forall a5. Q(a5, a1) /\\ P(c)", sig)
    assert alpha_key(renamed) == alpha_key(phi) and renamed != phi


def ref_subst_formula(phi, a, r):
    """Substitution rebuilding every node, as subst_formula once did.

    The reference for subst_formula, which returns a node where a is not
    free as it is.
    """
    if phi == BOT:
        return phi
    if isinstance(phi, Eq):
        return Eq(subst_term(phi.lhs, a, r), subst_term(phi.rhs, a, r))
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(subst_term(t, a, r) for t in phi.args))
    if isinstance(phi, And):
        return And(ref_subst_formula(phi.lhs, a, r), ref_subst_formula(phi.rhs, a, r))
    if isinstance(phi, Neg):
        return Neg(ref_subst_formula(phi.body, a, r))
    bnd, body = phi.binder, phi.body
    if bnd == a or a not in free_atoms(body):
        return phi
    if bnd in free_atoms_term(r):
        b2 = fresh(free_atoms(body) | free_atoms_term(r) | {a})
        body = act(swap(bnd, b2), body)
        bnd = b2
    return All(bnd, ref_subst_formula(body, a, r))


def _assert_shares_untouched(phi, out, a):
    """Every subformula of phi where a is not free comes back as itself."""
    if a not in free_atoms(phi):
        assert out is phi
    elif isinstance(phi, And):
        _assert_shares_untouched(phi.lhs, out.lhs, a)
        _assert_shares_untouched(phi.rhs, out.rhs, a)
    elif isinstance(phi, Neg):
        _assert_shares_untouched(phi.body, out.body, a)
    elif isinstance(phi, All) and out.binder == phi.binder:
        _assert_shares_untouched(phi.body, out.body, a)


def test_subst_formula_matches_the_rebuilding_reference():
    rng = random.Random(15)
    pool = atoms(0, 1, 2, 3)
    cases = [(phi, rng.choice(pool), random_term(sig, rng, pool, 2))
             for phi in _cache_corpus(15)]
    cases += [(random_formula(sig, rng, pool, rng.randint(0, 5)), rng.choice(pool),
               random_term(sig, rng, pool, rng.randint(0, 2))) for _ in range(600)]
    shared = untouched = 0
    for phi, q, r in cases:
        got, want = subst_formula(phi, q, r), ref_subst_formula(phi, q, r)
        assert got == want, (phi, q, r)
        assert alpha_key(got) == alpha_key(want) == _alpha_key_walk(got)
        assert free_atoms(got) == free_atoms(want) == _free_reference(got)
        _assert_shares_untouched(phi, got, q)
        if q not in free_atoms(phi):
            assert got is phi
            untouched += 1
        elif any(f is g for f in _subformulas(got) for g in _subformulas(phi)):
            shared += 1
    # both kinds of sharing are exercised: whole trees and untouched children
    assert untouched > 200 and shared > 100


def _iffs(levels):
    text = "P(a)"
    for _ in range(levels):
        text = f"P(a) <-> ({text})"
    return text


def test_formula_size_limit():
    # each level of <-> about doubles the tree: 9 levels fit, 10 do not
    parse_formula(_iffs(9), sig)
    with pytest.raises(LimitExceeded, match=f"formula expands to 14323 nodes, "
                                            f"more than {MAX_FORMULA_NODES}, "
                                            f"at position 5"):
        parse_formula(_iffs(10), sig)
    with pytest.raises(LimitExceeded, match="at position 155"):
        parse_formula(_iffs(25), sig)
    # trees that fit one by one still add up past the limit
    big = "(" + _iffs(8) + ")"
    parse_formula(" /\\ ".join([big] * 2), sig)
    with pytest.raises(LimitExceeded, match="formula expands to"):
        parse_formula(" /\\ ".join([big] * 4), sig)
    # 7155 + 1779 + 883 + 99 + 43 + 15 + 1 nodes and six conjunctions: 9981
    near = " /\\ ".join(f"({_iffs(n)})" for n in (9, 7, 6, 3, 2, 1, 0))
    parse_formula("~" * 19 + f"({near})", sig)
    with pytest.raises(LimitExceeded, match="expands to 10001 nodes, more than "
                                            "10000, at position 0"):
        parse_formula("~" * 20 + f"({near})", sig)


def _pin_corpus():
    """Lists of (reader, text) parts, each list read by one parse_shared call.

    Token noise read as a formula, as sequent sides and as a term; the
    round-trip texts; the nesting- and size-limit cases; lexer edge cases;
    and several texts sharing one atom map.
    """
    rng = random.Random(25)
    cases = []
    for i in range(2000):
        sep = " " if i % 3 else ""  # glued tokens lex differently
        text = sep.join(rng.choice(NOISE_VOCAB) for _ in range(rng.randint(1, 12)))
        cases += [[("formula", text)], [("sides", text)]]
        if i % 4 == 0:
            cases.append([("term", text)])
    rng, pool = random.Random(10), atoms(0, 1, 2, 3)
    cases += [[("formula", pretty(random_formula(sig, rng, pool, 5)))]
              for _ in range(1000)]
    near = " /\\ ".join(f"({_iffs(n)})" for n in (9, 7, 6, 3, 2, 1, 0))
    limits = [_iffs(n) for n in (8, 9, 10, 25)]
    limits += ["~" * 19 + f"({near})", "~" * 20 + f"({near})",
               " /\\ ".join(["(" + _iffs(8) + ")"] * 4)]
    for n in (99, 100, 101, 102):
        limits += ["~" * n + "R", "(" * n + "R" + ")" * n, "forall b. " * n + "R",
                   "P(" + "f(" * (n - 1) + "a" + ")" * n,
                   "Q(c, " + "g(c, " * (n - 1) + "a" + ")" * n]
        limits += [f" {op} ".join(["R"] * n) for op in ("/\\", "\\/", "->", "<->")]
        limits += ["(" + f" {op} ".join(["R"] * 61) + f") {op} " + "~" * (n - 1) + "R"
                   for op in ("/\\", "\\/", "->", "<->")]
        # chains inside the operands of a looser chain
        limits += [" \\/ ".join([" /\\ ".join(["R"] * 60)] * (n - 58)),
                   " -> ".join([" /\\ ".join(["R"] * 50)] * (n - 48))]
        limits += ["R -> " * 50 + "(" * (n - 50) + "R" + ")" * (n - 50),
                   "~R /\\ " * n + "R", "(R /\\ " * n + "R" + ")" * n,
                   "forall a. R -> " * (n // 2) + "R"]
    cases += [[("formula", t)] for t in limits]
    cases += [[("sides", f"R, {t} |- {t}")] for t in limits[::3]]
    edge = ["", "   ", "P(a) $", "$", "é", "P(é)", "Pé", "aé", "R $ é", "$é",
            "P(a) /\\ R", "P(a)\t/\\\nR", "-", "- >", "<-", "<- >", "< ->",
            "|", "| -", "|-|-", "/", "\\", "/\\/", "\\//\\", "R/\\R\\/R->R<->R",
            "9", "9a", "_x", "a_1 = b", "a007 = a7", "a0 = x, x = a0",
            "forall a12. P(a12) /\\ P(b)", "P(a) |- $", "|-", " |- ", "R |-", "|- R",
            "R, |- R", ",", "R,,R |- R", "forall", "forall P. R", "forall c. R",
            "forall x y. R", "forall x P(x)", "forall x. ", "top /\\ bottom", "c",
            "f(c)", "f(c", "f()", "f", "g(c,)", "g(c c)", "Q(c)", "P", "R()", "R(c)",
            "x = ", "= x", "c = c = c", "P(c) P(c)", "~", "~~~R", "((R))", "()",
            ")(", "Topp", "ForAll", "bottom1", "top(c)", "a" + "9" * 18,
            "P(a" + "0" * 30 + "1)", "P(x) -> Q(x, y) <-> ~R \\/ x = f(y) /\\ top"]
    for text in edge:
        cases += [[("formula", text)], [("sides", text)], [("term", text)]]
    cases += [
        [("sides", "x = y |- P(z)"), ("formula", "P(w) /\\ P(x)"), ("term", "f(v)")],
        [("formula", "P(b)"), ("term", "a1"), ("formula", "P(a0) /\\ Q(x, a2)")],
        [("formula", "P(a"), ("formula", "$")],
        [("formula", "P(a)"), ("sides", "P(é) |-")],
        [("sides", "|- R"), ("term", "P(c)")],
        [("term", "x"), ("formula", "~" * 101 + "R")],
    ]
    return cases


def _pin_outcome(parts):
    try:
        out = parse_shared(parts, sig)
    except SyntaxError_ as e:
        return f"{type(e).__name__}: {e}"
    shown = []
    for (reader, _), got in zip(parts, out):
        if reader == "sides":
            shown.append(", ".join(map(pretty, got[0])) + " |- "
                         + ", ".join(map(pretty, got[1])))
        else:
            shown.append(pretty(got) if reader == "formula" else pretty_term(got))
    return "; ".join(shown)


PARSER_PIN = "a4309b986fac77ac04b70985bf55e88fc817e0d69f54e3f8ef92a7cec95c1984"


def test_parser_outputs_are_pinned():
    # every tree, error message and position the parser gave before its
    # lexer and precedence-climbing rewrite, digested outcome by outcome
    digest = hashlib.sha256()
    for parts in _pin_corpus():
        digest.update(repr(parts).encode() + b"\0")
        digest.update(_pin_outcome(parts).encode() + b"\0")
    assert digest.hexdigest() == PARSER_PIN
