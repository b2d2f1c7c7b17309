import collections
import hashlib
import io
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from nomfol import tarski
from nomfol.cli import run
from nomfol.foleq import interpret
from nomfol.nominal import Atom, Perm, act, atoms, fresh, support, swap
from nomfol.samplers import tarski_sampler
from nomfol.sigma import sigma_axiom_suite
from nomfol.syntax import (All, BOT, Eq, Neg, Or, Pred, Signature,
                           SyntaxError_, Var, default_signature, random_formula)
from nomfol.tarski import (CACHE_SIZE, MAX_DEPS, MAX_ROWS, PLAN_CACHE_ROWS,
                           OrdinaryModel, TableFun, Valuation, agreement_check,
                           all_valuations, iter_models,
                           lift_interpretation, parse_model, random_model,
                           random_tablefun, standard_eval, tablefun,
                           tarski_termlike, tf_atm, tf_const, tf_eq, tf_freshmeet,
                           tf_meet, tf_neg, tf_subst)

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


def test_projection_at_one_value_is_the_constant_zero():
    # at k = 1 the projection reads nothing, so it has no dependencies, and
    # a permutation of it is itself
    assert tf_atm(1, a) == tf_const(1, 0) == TableFun(1, (), (0,))
    assert act(swap(a, b), tf_atm(1, a)) == tf_const(1, 0)
    assert support(tf_atm(1, a)) == frozenset()


def test_meet_with_a_constant_is_an_operand():
    f = tablefun(2, (a, b), (False, True, True, True))
    top, bot = tf_const(2, True), tf_const(2, False)
    assert tf_meet(top, f) is f and tf_meet(f, top) is f
    assert tf_meet(bot, f) is bot and tf_meet(f, bot) is bot
    # the domains are compared before either operand is returned
    with pytest.raises(ValueError, match="mismatched domains"):
        tf_meet(tf_const(3, True), f)
    with pytest.raises(ValueError, match="mismatched domains"):
        tf_meet(f, tf_const(3, False))


def test_tablefun_prunes_the_atoms_a_table_does_not_read():
    # constant in one coordinate: that dep is pruned
    raw = (False, True, False, True)  # over (a, b), reads only b
    g = tablefun(2, (a, b), raw)
    assert g.deps == (b,)
    assert g.table == (False, True)
    assert TableFun(2, g.deps, g.table) == g
    for vs in all_valuations((a, b), 2):
        assert g(vs) == raw[2 * vs.lookup(a) + vs.lookup(b)]
    # a tautological comparison collapses to a constant
    taut = tablefun(2, (a,), (True, True))
    assert taut == tf_const(2, True)


def test_the_constructor_refuses_a_table_that_is_not_canonical():
    # (a, b) with a table that reads only b
    with pytest.raises(ValueError, match="does not read every atom"):
        TableFun(2, (a, b), (False, True, False, True))
    # at k = 1 no atom is read
    with pytest.raises(ValueError, match="does not read every atom"):
        TableFun(1, (a,), (0,))
    diag = tf_eq(tf_atm(2, a), tf_atm(2, b))
    assert TableFun(2, (a, b), diag.table) == diag
    for order in ((b, a), (a, a), (Atom(10), Atom(9))):
        with pytest.raises(ValueError, match="not distinct and in id order"):
            TableFun(2, order, diag.table)
    # the order is by id, not by name: a9 comes before a10
    assert TableFun(2, (Atom(9), Atom(10)), diag.table).deps == (Atom(9), Atom(10))
    with pytest.raises(ValueError, match="table size does not match"):
        TableFun(2, (a,), diag.table)


def test_every_table_builder_refuses_more_than_max_rows():
    # only the refusal path runs: no table past MAX_ROWS is built
    too_many = f"table of {MAX_ROWS + 1} rows exceeds limit {MAX_ROWS}"
    with pytest.raises(ValueError, match=too_many):
        tf_atm(MAX_ROWS + 1, a)
    # the rows are refused before the values are read
    with pytest.raises(ValueError, match=too_many):
        tablefun(MAX_ROWS + 1, (a,), ())
    with pytest.raises(ValueError, match="table of 1002001 rows exceeds limit"):
        TableFun(1001, (a, b), ())

    class Widest(random.Random):
        def randrange(self, n):  # the widest table the pool allows
            return n - 1
    with pytest.raises(ValueError, match="table of 1030301 rows exceeds limit"):
        random_tablefun(101, Widest(0), (a, b, c3))
    # 101**2 rows each; a meet or substitution over three or four atoms is refused
    d = atoms(3)[0]
    f = tablefun(101, (a, b), [i % 2 == 0 for i in range(101 ** 2)])
    u = tablefun(101, (c3, d), [(i // 101 + i) % 101 for i in range(101 ** 2)])
    assert len(f.deps) == len(u.deps) == 2
    with pytest.raises(ValueError, match="table of 104060401 rows exceeds limit"):
        tf_meet(f, u)
    with pytest.raises(ValueError, match="table of 1030301 rows exceeds limit"):
        tf_subst(f, a, u)


def test_every_table_builder_refuses_an_empty_domain():
    # a domain below 1 is refused with OrdinaryModel's words, not by range()
    # or by building a table over no values
    for build in (lambda k: tablefun(k, (a,), range(k)),
                  lambda k: TableFun(k, (a,), tuple(range(k))),
                  lambda k: tf_atm(k, a), lambda k: random_tablefun(k, random.Random(1), (a,)),
                  lambda k: tf_const(k, True)):
        for k in (0, -1):
            with pytest.raises(ValueError, match="^domain must be non-empty$"):
                build(k)
        assert build(2).k == 2


def test_tf_freshmeet():
    f = tablefun(2, (a,), (False, True))
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
    f = tablefun(2, (a, b), (False, False, True, False))
    g = act(swap(a, c3), f)
    assert g.deps == (b, c3)
    for vs in all_valuations((b, c3), 2):
        assert g(vs) == (vs.lookup(c3) == 1 and vs.lookup(b) == 0)
    assert act(swap(a, c3), g) == f


def test_dep_width_limit():
    pool = atoms(*range(MAX_DEPS + 1))
    with pytest.raises(ValueError):
        tablefun(2, pool, (True,) * 2 ** len(pool))


def test_lift_interpretation_tables():
    I = lift_interpretation(N2)
    p_at = I.pred_interp("P", (a,))
    assert p_at == tablefun(2, (a,), (False, True))
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
        lo = tf_subst(g, q, u)
        assert tf_meet(lo, tf_subst(f, q, u)) == lo


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
    # blank lines, whole-line and trailing comments are skipped
    commented = "# a model of z and s\n\n" + M.format().replace("\n", "  # row\n", 1) + "\n#"
    M3 = parse_model(commented, sig2)
    assert M3.k == 3 and M3.funcs == M.funcs and M3.preds == M.preds
    with pytest.raises(SyntaxError_, match="line 3: bad domain size 'x'"):
        parse_model("# header\n\ndomain x  # trailing", sig2)
    with pytest.raises(SyntaxError_):
        parse_model("fun z : 0", sig2)
    with pytest.raises(SyntaxError_):
        parse_model("domain 2\nfun nope : 0", sig2)
    with pytest.raises(SyntaxError_, match="line 1: bad domain size 'x'"):
        parse_model("domain x", sig2)
    with pytest.raises(ValueError):
        OrdinaryModel(sig2, 0, {}, {})


def test_iter_models_count():
    # one unary predicate over k=2: exactly 2^2 models, lexicographic
    models = list(iter_models(sig1, 2))
    assert len(models) == 4
    assert models[0].preds["P"] == (False, False)
    assert models[-1].preds["P"] == (True, True)


def test_iter_models_order():
    # functions, then predicates, each in signature order, tables lexicographic
    mixed = Signature((("c", 0), ("f", 1)), (("P", 1), ("R", 0)))
    bits = (False, True)
    every = list(itertools.product(itertools.product(range(2), repeat=1),
                                   itertools.product(range(2), repeat=2),
                                   itertools.product(bits, repeat=2),
                                   itertools.product(bits, repeat=1)))
    tables = lambda m: (m.funcs["c"], m.funcs["f"], m.preds["P"], m.preds["R"])
    assert [tables(m) for m in iter_models(mixed, 2)] == every
    # a signature with no symbols has one model of each size
    empty = Signature((), ())
    assert [m.k for m in iter_models(empty, 3)] == [3]


def test_valuation_action_renames_keys_only():
    vs = Valuation({a: 1, b: 2}, 0)
    out = act(swap(a, c3), vs)
    assert out.overrides == {c3: 1, b: 2}
    assert out.default == 0


# ------------------------------------------------------------------
# The closure kernel that the row-index plans replaced, kept as a reference:
# every table is built by calling a function once per row, on a dict.

def _ref_rows(k, deps):
    for combo in itertools.product(range(k), repeat=len(deps)):
        yield dict(zip(deps, combo))


def ref_tablefun(k, deps, fn):
    deps = tuple(sorted(set(deps), key=lambda q: q.id))
    if len(deps) > MAX_DEPS:
        raise ValueError("too wide")
    return ref_canonicalise(k, deps, tuple(fn(m) for m in _ref_rows(k, deps)))


def _ref_reads(k, n, table, i):
    stride = k ** (n - 1 - i)
    block = stride * k
    for base in range(0, len(table), block):
        for off in range(stride):
            if len({table[base + off + v * stride] for v in range(k)}) > 1:
                return True
    return False


def ref_canonicalise(k, deps, table):
    """The canonical TableFun of a row-major table over deps in id order."""
    kept = [i for i in range(len(deps)) if _ref_reads(k, len(deps), table, i)]
    idxs = []
    for combo in itertools.product(range(k), repeat=len(kept)):
        full = [0] * len(deps)
        for slot, i in enumerate(kept):
            full[i] = combo[slot]
        idx = 0
        for v in full:
            idx = idx * k + v
        idxs.append(idx)
    return TableFun(k, tuple(deps[i] for i in kept), tuple(table[i] for i in idxs))


def ref_act(pi, f):
    back = {pi(q): q for q in f.deps}
    return ref_tablefun(f.k, back, lambda m: f(Valuation({back[q]: v for q, v in m.items()})))


def ref_subst(f, q, u):
    if q not in f.deps:
        return f
    return ref_tablefun(f.k, (set(f.deps) - {q}) | set(u.deps),
                        lambda m: f(Valuation(m).set(q, u(Valuation(m)))))


def ref_meet(f, g):
    return ref_tablefun(f.k, set(f.deps) | set(g.deps),
                        lambda m: f(Valuation(m)) and g(Valuation(m)))


def ref_neg(f):
    return ref_tablefun(f.k, f.deps, lambda m: not f(Valuation(m)))


def ref_eq(u, v):
    return ref_tablefun(u.k, set(u.deps) | set(v.deps),
                        lambda m: u(Valuation(m)) == v(Valuation(m)))


def ref_freshmeet(q, f):
    if q not in f.deps:
        return f
    return ref_tablefun(f.k, set(f.deps) - {q},
                        lambda m: all(f(Valuation(m).set(q, x)) for x in range(f.k)))


def ref_random_tablefun(k, rng, pool, outputs):
    # the width, then one of its subsets, then every row from one number's
    # digits, most significant first, in the rows' order over the deps by id
    n = rng.randrange(min(3, len(pool)) + 1)
    deps = rng.choice(list(itertools.combinations(pool, n)))
    rows = k ** n
    if outputs is None:
        x, base = rng.getrandbits(rows), 2
    else:
        x, base = rng.randrange(outputs ** rows), outputs
    digits = [x // base ** (rows - 1 - i) % base for i in range(rows)]
    values = iter(digits if outputs is not None else [d == 1 for d in digits])
    return ref_tablefun(k, deps, lambda m: next(values))


def _row(k, deps, m):
    idx = 0
    for q in deps:
        idx = idx * k + m[q]
    return idx


POOL = atoms(0, 1, 2, 3)


@st.composite
def raw_tables(draw, k, outputs=None, deps=st.lists(st.sampled_from(POOL), unique=True,
                                                       max_size=3)):
    """Atoms in any order, with row-major values over them."""
    ds = tuple(draw(deps))
    value = st.booleans() if outputs is None else st.integers(0, outputs - 1)
    return ds, draw(st.lists(value, min_size=k ** len(ds), max_size=k ** len(ds)))


def _canonical(k, raw):
    ds, values = raw
    return ref_tablefun(k, ds, lambda m: values[_row(k, ds, m)])


def _matches_closure_kernel(data, k, pool, width):
    """Every table operation on raw tables over at most width atoms of pool."""
    deps = st.lists(st.sampled_from(pool), unique=True, max_size=width)
    ds, values = raw = data.draw(raw_tables(k, deps=deps))
    order = tuple(sorted(ds, key=lambda q: q.id))
    rows = tuple(values[_row(k, ds, dict(zip(order, c)))]
                 for c in itertools.product(range(k), repeat=len(ds)))
    f, g = _canonical(k, raw), _canonical(k, data.draw(raw_tables(k, deps=deps)))
    u, v = (_canonical(k, data.draw(raw_tables(k, outputs=k, deps=deps))) for _ in range(2))
    q = data.draw(st.sampled_from(pool))
    # a term that may read q itself, as in f[q := g(q)]
    reads_q = st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=width).map(
        lambda xs: [q] + [x for x in xs if x != q][:width - 1])
    uq = _canonical(k, data.draw(raw_tables(k, outputs=k, deps=reads_q)))
    pi = Perm(dict(zip(pool, data.draw(st.permutations(pool)))))
    # each result equals the reference's, and is canonical: the operations
    # that skip the scan rely on their operands being so
    for got, want in ((tablefun(k, ds, values), _canonical(k, raw)),
                      (tablefun(k, order, rows), ref_canonicalise(k, order, rows)),
                      (act(pi, f), ref_act(pi, f)),
                      (act(pi, u), ref_act(pi, u)),
                      (tf_meet(f, g), ref_meet(f, g)),
                      (tf_meet(g, f), ref_meet(g, f)),
                      (tf_neg(f), ref_neg(f)),
                      (tf_eq(u, v), ref_eq(u, v)),
                      (tf_subst(f, q, u), ref_subst(f, q, u)),
                      (tf_subst(f, q, uq), ref_subst(f, q, uq)),
                      (tf_subst(u, q, uq), ref_subst(u, q, uq)),
                      (tf_freshmeet(q, f), ref_freshmeet(q, f)),
                      (tf_atm(k, q), ref_tablefun(k, (q,), lambda m: m[q])),
                      (tf_const(k, k - 1), ref_tablefun(k, (), lambda m: k - 1))):
        assert got == want
        assert TableFun(got.k, got.deps, got.table) == got


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stride_kernel_matches_closure_kernel(data):
    _matches_closure_kernel(data, data.draw(st.sampled_from((1, 2, 3))), POOL, 3)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_plans_of_every_width_match_closure_kernel(data):
    # a pool of MAX_DEPS atoms keeps every join, substitution and
    # permutation within the width limit, up to plans over MAX_DEPS columns
    _matches_closure_kernel(data, 2, atoms(*range(MAX_DEPS)), MAX_DEPS)


def test_subst_of_a_term_reading_the_substituted_atom():
    # f[a := g(a)] with both reading a: the output's a column is g's
    f = tablefun(2, (a, b), (False, True, True, True))
    g = tablefun(2, (a,), (1, 0))
    assert tf_subst(f, a, g) == tablefun(2, (a, b), (True, True, False, True))
    assert tf_subst(f, a, g) == ref_subst(f, a, g)


def test_lift_tables_and_random_tables_match_closure_kernel():
    rng = random.Random(31)
    sig = default_signature()
    for _ in range(60):
        k = rng.choice((1, 2, 3))
        model = random_model(sig, k, rng)
        interp = lift_interpretation(model)
        for symbols, value, lifted in ((sig.functions, model.fun_value, interp.fun_interp),
                                       (sig.predicates, model.pred_value, interp.pred_interp)):
            for name, ar in symbols:
                names = tuple(rng.sample(POOL, ar))
                want = ref_tablefun(k, names, lambda m: value(name, tuple(m[x] for x in names)))
                assert lifted(name, names) == want, (name, names)
        seed, outputs = rng.randrange(10 ** 6), rng.choice((None, k))
        assert random_tablefun(k, random.Random(seed), POOL, outputs) == \
            ref_random_tablefun(k, random.Random(seed), POOL, outputs)


def test_random_tables_are_uniform(monkeypatch):
    # the (deps, rows) that each draw hands to _canonical, from a pool in
    # reverse id order, so that the chosen atoms must be sorted
    draws = 40000
    for seed, (k, outputs) in enumerate(((2, None), (3, None), (2, 2), (3, 3))):
        raw = collections.defaultdict(list)  # width -> (deps, rows) of each draw
        canonical = tarski._canonical
        monkeypatch.setattr(tarski, "_canonical", lambda k, deps, rows: raw[len(deps)].append(
            (deps, rows)) or canonical(k, deps, rows))
        rng = random.Random(seed)
        tables = [random_tablefun(k, rng, POOL[::-1], outputs) for _ in range(draws)]
        monkeypatch.undo()
        assert all(TableFun(f.k, f.deps, f.table) == f for f in tables)
        values = (False, True) if outputs is None else tuple(range(outputs))
        for n in range(4):
            drawn = raw[n]
            assert abs(len(drawn) / draws - 1 / 4) <= 0.02
            # every n-subset of POOL, each in id order, about equally often
            subsets = collections.Counter(deps for deps, _ in drawn)
            assert set(subsets) == set(itertools.combinations(POOL, n))
            assert all(abs(c * len(subsets) / len(drawn) - 1) <= 0.1 for c in subsets.values())
            # each row's values about uniform; at width 1, each whole table
            # too, which needs the rows to be independent
            for row in zip(*(rows for _, rows in drawn)):
                counts = collections.Counter(row)
                assert set(counts) == set(values)
                assert all(abs(c * len(values) / len(drawn) - 1) <= 0.1 for c in counts.values())
            if n == 1:
                whole = collections.Counter(rows for _, rows in drawn)
                assert len(whole) == len(values) ** k
                assert all(abs(c * len(whole) / len(drawn) - 1) <= 0.25 for c in whole.values())


def test_random_tables_match_the_reference_sampler_on_pools_in_any_order():
    # the same tables as the reference sampler, and the same rng state
    # after each draw, at bases 1 to 5 and 17 and on 1 to 64 rows
    shuffled = list(POOL)
    random.Random(5).shuffle(shuffled)
    for pool in (POOL, POOL[::-1], tuple(shuffled)):
        for k in range(1, 5):
            for outputs in (None, k, 5, 17):
                for seed in range(12):
                    mine, ref = random.Random(seed), random.Random(seed)
                    assert random_tablefun(k, mine, pool, outputs) == \
                        ref_random_tablefun(k, ref, pool, outputs), (pool, k, outputs, seed)
                    # the same draws, so every later draw is the same too
                    assert mine.getstate() == ref.getstate()


def test_meet_and_tablefun_refuse_what_is_not_a_table():
    with pytest.raises(ValueError, match="mismatched domains"):
        tf_meet(tablefun(2, (a,), (0, 1)), tablefun(3, (a,), (0, 1, 1)))
    with pytest.raises(ValueError, match="repeated atom"):
        tablefun(2, (a, a), (False, True, True, True))
    parity = tuple(sum(c) % 2 == 0 for c in itertools.product(range(2), repeat=7))
    with pytest.raises(ValueError, match="dependency width 7 exceeds limit 6"):
        TableFun(2, atoms(*range(7)), parity)


def test_tables_longer_than_kept_plans_match_closure_kernel():
    # k = 4 over 5 atoms is 1024 rows, more than PLAN_CACHE_ROWS: such
    # plans are made on each call and never kept
    rng = random.Random(53)
    k, wide = 4, atoms(*range(5))

    def raw(outputs, width):
        # values over width atoms in any order that read only some of them
        ds = tuple(rng.sample(wide, width))
        read = rng.sample(ds, rng.randint(1, width))
        vals = {c: rng.randrange(outputs) for c in itertools.product(range(k), repeat=len(read))}
        return ds, [vals[tuple(m[q] for q in read)] for m in _ref_rows(k, ds)]

    for _ in range(12):
        ds, values = raw(2, 5)
        order = tuple(sorted(ds, key=lambda q: q.id))
        rows = tuple(values[_row(k, ds, dict(zip(order, c)))]
                     for c in itertools.product(range(k), repeat=5))
        assert tablefun(k, ds, values) == _canonical(k, (ds, values))
        assert tablefun(k, order, rows) == ref_canonicalise(k, order, rows)
        f, g = (_canonical(k, raw(2, rng.randint(3, 5))) for _ in range(2))
        u, v = (_canonical(k, raw(k, rng.randint(3, 5))) for _ in range(2))
        q = rng.choice(wide)
        pi = Perm(dict(zip(wide, rng.sample(wide, len(wide)))))
        assert act(pi, f) == ref_act(pi, f)
        assert tf_meet(f, g) == ref_meet(f, g)
        assert tf_eq(u, v) == ref_eq(u, v)
        assert tf_subst(f, q, u) == ref_subst(f, q, u)
        assert tf_freshmeet(q, f) == ref_freshmeet(q, f)


def test_gathers_of_one_row_and_of_plans_too_long_to_keep():
    # a getter of one row returns that row, not a 1-tuple: a table that
    # reads no column at k >= 2, a table re-ordered at k = 1, and a
    # substitution that reads nothing all have a one-row table
    for f, row in ((tablefun(2, (b, a), (True,) * 4), True),
                   (tablefun(3, (a,), (2, 2, 2)), 2),
                   (tablefun(1, (b, a), (True,)), True),
                   (tf_subst(tf_atm(3, a), a, tf_const(3, 2)), 2)):
        assert f.deps == () and f.table == (row,) and f == tf_const(f.k, row)
    assert tarski._gather(2, (a,), (5, 7), (), ()) == (5,)
    # plans longer than PLAN_CACHE_ROWS go through the getter as well, and
    # are not kept: each row of the gather is the source row it reads
    k, src = 4, atoms(3, 2, 1, 0)
    table = tuple(range(k ** len(src)))
    for deps, cols in ((atoms(0, 1, 2, 3, 9), (3, 2, 1, 0, -1)),
                       (atoms(9, 0, 1, 2, 3), (-1, 3, 2, 1, 0))):
        assert k ** len(deps) > PLAN_CACHE_ROWS
        want = tuple(_row(k, src, m) for m in _ref_rows(k, deps))
        before = tarski._kept_plan.cache_info()
        assert tarski._gather(k, src, table, deps, cols) == want
        # the cache is not even looked up
        assert tarski._kept_plan.cache_info() == before
    # nor by a substitution whose result is that long and reads every atom
    f, u = tablefun(k, atoms(0, 1, 2, 3, 4), range(k ** 5)), tf_atm(k, Atom(9))
    before = tarski._kept_plan.cache_info()
    got = tf_subst(f, f.deps[0], u)
    assert tarski._kept_plan.cache_info() == before
    assert len(got.table) == k ** 5 and got == ref_subst(f, f.deps[0], u)


def test_plan_cache_stays_bounded(monkeypatch):
    keep, kept = tarski._kept_plan, []

    def recording(k, n, cols):
        plan = keep(k, n, cols)
        kept.append((k, n, cols, plan))
        return plan

    keep.cache_clear()
    monkeypatch.setattr(tarski, "_kept_plan", recording)
    # a k = 10, width-4 table is re-indexed through a 10**4-row plan, which
    # is not kept
    parity = [sum(c) % 2 == 0 for c in itertools.product(range(10), repeat=4)]
    assert len(tablefun(10, atoms(3, 1, 0, 2), parity).table) == 10 ** 4
    assert not kept and keep.cache_info().currsize == 0
    tablefun(3, (b, a), range(9))
    assert [len(plan) for *_, plan in kept] == [9]
    # one shape per order of six atoms at k = 2 and k = 3, 1,438 in all,
    # each kept once, in a cache as large as the joins'
    keep.cache_clear()
    kept.clear()
    sizes = []
    for k in (2, 3):
        for order in itertools.permutations(atoms(*range(6))):
            tablefun(k, order, range(k ** 6))
            sizes.append(keep.cache_info().currsize)
    shapes = {(k, n, cols) for k, n, cols, _ in kept}
    assert keep.cache_info().maxsize == tarski._join.cache_info().maxsize == CACHE_SIZE
    assert max(sizes) == sizes[-1] == len(shapes) == 1438 <= CACHE_SIZE
    # every kept plan is its shape's, (k, source width, column map), of at
    # most PLAN_CACHE_ROWS rows
    for k, n, cols, plan in kept:
        assert len(plan) == k ** len(cols) <= PLAN_CACHE_ROWS and all(-1 <= c < n for c in cols)


def test_width_is_refused_before_rows_are_enumerated():
    # two disjoint width-4 tables at k = 10: their meet would have 10**8 rows
    parity = [sum(c) % 2 == 0 for c in itertools.product(range(10), repeat=4)]
    f, g = tablefun(10, atoms(0, 1, 2, 3), parity), tablefun(10, atoms(4, 5, 6, 7), parity)
    assert len(f.deps) == len(g.deps) == 4
    start = time.perf_counter()
    for op in (tf_meet, tf_eq):
        with pytest.raises(ValueError, match="dependency width 8 exceeds limit 6"):
            op(f, g)
    assert time.perf_counter() - start < 1.0


def test_refused_joins_are_not_kept():
    parity = [sum(c) % 2 == 0 for c in itertools.product(range(10), repeat=4)]
    f, g = tablefun(10, atoms(0, 1, 2, 3), parity), tablefun(10, atoms(4, 5, 6, 7), parity)
    tarski._join.cache_clear()
    tarski._subst_join.cache_clear()
    for op, args in ((tf_meet, (f, g)), (tf_eq, (f, g)), (tf_subst, (f, f.deps[0], g))):
        with pytest.raises(ValueError, match="dependency width [78] exceeds limit 6"):
            op(*args)
    assert tarski._join.cache_info().currsize == tarski._subst_join.cache_info().currsize == 0


# SHA-256 of the lift's answers, one per line: interpreted formulas, the
# table operations on seeded random tables up to MAX_DEPS atoms wide, and
# the axiom suites that run over the lift; pinned while every table
# operation still re-indexed its inputs by stride loops
LIFT_GOLDEN = "c74f712dd22aee9289af240ec24c42ab5487ef5b20cd95e9ab04f90781258779"


def _lift_answers():
    rng = random.Random(41)
    sig = default_signature()
    texts = []
    for i in range(240):
        k = 1 + i % 3
        phi = random_formula(sig, rng, POOL[:3], 4)
        texts.append(repr(interpret(phi, lift_interpretation(random_model(sig, k, rng)))))
    wide = atoms(*range(MAX_DEPS))

    def table(k, outputs):
        ds = rng.sample(wide, rng.randint(0, 3))
        return tablefun(k, ds, [rng.randrange(outputs) for _ in range(k ** len(ds))])
    for i in range(600):
        k = 1 + i % 3
        f, g = table(k, 2), table(k, 2)
        u, v = table(k, k), table(k, k)
        q = rng.choice(wide)
        pi = Perm(dict(zip(wide, rng.sample(wide, len(wide)))))
        texts += map(repr, (tf_meet(f, g), tf_eq(u, v), tf_subst(f, q, u),
                            tf_subst(u, q, v), tf_freshmeet(q, f), act(pi, f), act(pi, u)))
    for suite, n in (("sigma-tarski", 20), ("foleq-tarski", 4), ("eq-laws", 8)):
        for seed in (5, 7919):
            out = io.StringIO()
            code = run(["axioms", suite, "--n", str(n), "--seed", str(seed)], out)
            texts.append(f"{code}|{out.getvalue()}")
    return texts


def test_lift_output_is_pinned():
    digest = hashlib.sha256("\n".join(_lift_answers()).encode()).hexdigest()
    assert digest == LIFT_GOLDEN
