import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from nomfol.nominal import (Atom, FinCofinAtomSet, IDENTITY, Perm, act, atoms,
                            compose, fresh, fresh_distinct, new_check,
                            support, support_exact, swap)
from nomfol.syntax import (All, Pred, Var, alpha_eq, default_signature,
                           free_atoms, random_formula, random_term)

a, b, c = atoms(0, 1, 2)


def test_swap_basics():
    assert swap(a, b)(a) == b
    assert swap(a, b)(b) == a
    assert swap(a, b)(c) == c
    assert swap(a, a) == IDENTITY


def test_compose():
    assert compose(swap(a, b), swap(a, b)) == IDENTITY
    # hand-composed: (a b) after (b c) sends c -> b -> a
    assert compose(swap(a, b), swap(b, c))(c) == a
    pi = swap(a, c)
    assert compose(IDENTITY, pi) == pi
    assert compose(pi.inverse(), pi) == IDENTITY


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm({a: b, c: b})


def test_support_examples():
    assert support(a) == {a}
    assert support(frozenset({a, b})) == {a, b}
    assert support(All(a, Pred("P", (Var(a), Var(b))))) == {b}
    with pytest.raises(TypeError):
        support(object())


def test_atoms_hash_compare_and_order_by_index():
    ids = [3, 0, 7, 1]
    for i in ids:
        # the iteration order of atom sets, and so the prover's output,
        # follows this hash
        assert hash(Atom(i)) == hash((i,))
        assert Atom(i) == Atom(i) and Atom(i).id == i
    assert sorted(map(Atom, ids)) == [Atom(i) for i in sorted(ids)]
    assert Atom(0) < Atom(1) <= Atom(1) < Atom(7) and Atom(3) != Atom(1)
    assert len({Atom(1), Atom(1), Atom(2)}) == 2
    # by number, not by name: a9 < a10 < a100, though "a10" < "a9"
    assert sorted(map(Atom, (100, 10, 9))) == [Atom(9), Atom(10), Atom(100)]
    assert Atom(9) < Atom(10) < Atom(100) and not Atom(10) < Atom(9)


def test_tuples_of_atoms_are_tuples_of_atoms_not_of_indices():
    # an atom is a tuple, so act and support must see it before tuple
    assert support((a, b)) == {a, b}
    assert support(((a,), (b, c))) == {a, b, c}
    assert act(swap(a, b), (a, c, b)) == (b, c, a)
    assert all(type(x) is Atom for x in act(swap(a, b), (a, c, b)))
    assert act(swap(a, c), a) is c


def test_copies_and_pickles_of_atoms_are_the_same_atom():
    x = Atom(5)
    copies = [copy.copy(x), copy.deepcopy(x), copy.deepcopy((x, [x]))[0]]
    copies += [pickle.loads(pickle.dumps(x, protocol=p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is Atom and y == x and y.id == 5 and repr(y) == "a5"


def test_fresh_lowest_unused():
    assert fresh(set()) == Atom(0)
    assert fresh({Atom(0)}) == Atom(1)
    assert fresh({Atom(0), Atom(2)}) == Atom(1)
    assert fresh_distinct({Atom(1)}, 3) == (Atom(0), Atom(2), Atom(3))


def test_new_check():
    assert new_check({a}, lambda x: x not in {a})
    assert not new_check(set(), lambda x: False)


def test_new_check_freshness_lemma():
    # phi[a := b] is alpha-equivalent to (b a).phi at fresh b
    from nomfol.syntax import subst_formula
    phi = All(b, Pred("Q", (Var(a), Var(b))))
    ok = new_check(free_atoms(phi) | {a},
                   lambda d: alpha_eq(subst_formula(phi, a, Var(d)),
                                      act(swap(d, a), phi)))
    assert ok


def test_strict_support():
    # a tuple is strictly supported: its support is the union of its elements'
    assert support(()) == frozenset()
    assert support((a, b)) == {a, b}
    assert support((All(a, Pred("P", (Var(a), Var(b)))),
                    Pred("P", (Var(c),)))) == {b, c}


perm_st = st.permutations(list(range(5))).map(
    lambda p: Perm({Atom(i): Atom(j) for i, j in enumerate(p)}))
atom_st = st.integers(0, 6).map(Atom)
atomset_st = st.frozensets(atom_st, max_size=5)


@given(perm_st, perm_st, atom_st)
def test_group_action_atoms(pi, pi2, x):
    assert act(IDENTITY, x) == x
    assert act(pi, act(pi2, x)) == act(compose(pi, pi2), x)


@given(perm_st, perm_st, atomset_st)
def test_group_action_sets(pi, pi2, x):
    assert act(IDENTITY, x) == x
    assert act(pi, act(pi2, x)) == act(compose(pi, pi2), x)


@given(perm_st, atomset_st)
def test_pi_supp_sets(pi, x):
    assert support(act(pi, x)) == frozenset(pi(q) for q in support(x))


def _random_perm(rng, width=6):
    ids = list(range(width))
    rng.shuffle(ids)
    return Perm({Atom(i): Atom(j) for i, j in enumerate(ids)})


def test_group_action_laws_syntax_1000():
    sig = default_signature()
    rng = random.Random(11)
    pool = atoms(0, 1, 2, 3)
    for i in range(1000):
        x = (random_term(sig, rng, pool, 2) if i % 2
             else random_formula(sig, rng, pool, 3))
        pi, pi2 = _random_perm(rng), _random_perm(rng)
        assert act(IDENTITY, x) == x
        assert act(pi, act(pi2, x)) == act(compose(pi, pi2), x)


def test_agreement_on_support_determines_action():
    # Cor stuff(2): permutations agreeing on supp(x) act identically.
    # pi2 = sigma . pi with sigma fixing pi.supp(x) agrees with pi there.
    sig = default_signature()
    rng = random.Random(12)
    pool = atoms(0, 1, 2, 3)
    for _ in range(300):
        x = random_formula(sig, rng, pool, 3)
        pi = _random_perm(rng)
        moved = {pi(q) for q in support(x)}
        spare = [t for t in atoms(*range(10)) if t not in moved]
        rng.shuffle(spare)
        sigma = Perm(dict(zip(sorted(spare, key=lambda t: t.id), spare)))
        pi2 = compose(sigma, pi)
        assert all(pi(q) == pi2(q) for q in support(x))
        assert alpha_eq(act(pi, x), act(pi2, x))


def test_support_exactness_cor_stuff_3():
    sig = default_signature()
    rng = random.Random(13)
    pool = atoms(0, 1, 2, 3)
    for i in range(500):
        x = (random_term(sig, rng, pool, 2) if i % 2
             else random_formula(sig, rng, pool, 3))
        eq = alpha_eq if i % 2 == 0 else (lambda s, t: s == t)
        assert support_exact(x, eq, pool)


def test_fincofin_membership_and_action():
    x = FinCofinAtomSet(frozenset({a, b}), cofinite=False)
    y = FinCofinAtomSet(frozenset({a}), cofinite=True)
    assert x.member(a) and not x.member(c)
    assert not y.member(a) and y.member(c)
    assert support(x) == {a, b}
    assert support(y) == {a}
    assert act(swap(a, c), y) == FinCofinAtomSet(frozenset({c}), True)


@pytest.mark.parametrize("universe", [4, 5])
def test_precedent_exhaustive(universe):
    # removing a fresh atom's members reflects set equality, over all
    # finite and cofinite sets supported inside the universe
    import itertools
    base = atoms(*range(universe))
    witness = Atom(universe)
    sets = []
    for r in range(universe + 1):
        for combo in itertools.combinations(base, r):
            sets.append(FinCofinAtomSet(frozenset(combo), False))
            sets.append(FinCofinAtomSet(frozenset(combo), True))
    for x in sets:
        assert witness not in support(x)
        for y in sets:
            assert (x == y) == (x.remove(witness) == y.remove(witness))


def test_pi_supp_syntax_and_tables():
    from nomfol.tarski import random_tablefun
    sig2 = default_signature()
    rng = random.Random(14)
    pool = atoms(0, 1, 2, 3)
    for i in range(300):
        pi = _random_perm(rng)
        if i % 3 == 0:
            x = random_term(sig2, rng, pool, 3)
        elif i % 3 == 1:
            x = random_formula(sig2, rng, pool, 3)
        else:
            x = random_tablefun(rng.choice((2, 3)), rng, pool)
        assert support(act(pi, x)) == frozenset(pi(q) for q in support(x))


def test_group_action_laws_tablefuns():
    from nomfol.tarski import Valuation, random_tablefun
    rng = random.Random(15)
    pool = atoms(0, 1, 2, 3)
    for _ in range(300):
        k = rng.choice((2, 3))
        f = random_tablefun(k, rng, pool, outputs=rng.choice((None, k)))
        pi, pi2 = _random_perm(rng), _random_perm(rng)
        assert act(IDENTITY, f) == f
        assert act(pi, act(pi2, f)) == act(compose(pi, pi2), f)
        # conjugation action: (pi.f)(vs) = f(pi^-1 . vs)
        vs = Valuation({q: rng.randrange(k) for q in pool}, 0)
        assert act(pi, f)(vs) == f(act(pi.inverse(), vs))
