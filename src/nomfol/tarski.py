"""Finite ordinary models, brute-force evaluation, and the lifted algebra.

A TableFun is a function from valuations into a finite domain that reads
only finitely many atoms.  It is canonical by construction: it stores
exactly the atoms it reads, in id order, which makes support and equality
decidable, and its constructor refuses any other table.  ``tablefun``
builds the canonical table from row-major values over atoms in any order.
No table is wider than MAX_DEPS atoms or longer than MAX_ROWS rows, nor
over an empty domain: each builder refuses such a table before it builds
a row.

Every re-indexing of a table goes through a row-index plan: the tuple of
source rows for each output row, so moving a table onto other atoms, or
joining two tables, copies rows in one call, ``itemgetter(*plan)(table)``;
a getter of one row returns the row itself, so a one-row result is made a
1-tuple.
A column is read iff pinning it to 0 changes the table, so canonicalising
compares each column's blocks in place with their first rows, stopping at
the first block that differs.  Each operation canonicalises its result's
(deps, table) pair and builds one TableFun, without the public
constructor's checks, which that result passes already.

The operations may return an operand unchanged.  Three cases skip the
column scan, since their result's columns are known: a meet with an
operand over no atoms is the other operand or that constant; a negation
reads its operand's columns, and so does a permutation of it; and a table
over no atoms, or at k = 1, reads none.

Plans depend only on the table's shape: k, the source width and the
column map, never on atoms or contents.  A plan of at most PLAN_CACHE_ROWS
rows is kept in an ``lru_cache`` of CACHE_SIZE shapes; a longer one is
made on each call, and the getter holds its row indices for that call
only.  The merged dependency order of a join is keyed by atoms and sits
in an ``lru_cache`` of the same size, which never keeps a join wider than
MAX_DEPS atoms: that join is refused.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import add, and_, eq, itemgetter, not_
from typing import Iterable, Iterator

from .foleq import FoleqAlgebra, Interpretation, interpret
from .nominal import Atom, Perm
from .sigma import Carrier
from .syntax import (All, And, Bot, Eq, Formula, Neg, Pred, Signature,
                     SyntaxError_, Term, Var, free_atoms, read_decimal)

MAX_DEPS = 6  # dependency width of a table; keep constructions bounded
MAX_ROWS = 10 ** 6  # k**deps table rows, k = 10 at width MAX_DEPS
PLAN_CACHE_ROWS = 3 ** MAX_DEPS  # longest plan kept: k = 3 at width MAX_DEPS
CACHE_SIZE = 4096  # entries per cache (plans, joins, sampler pools), LRU out
_new = object.__new__  # a TableFun without __init__, for _made
_BIT = {"0": False, "1": True}  # a binary digit's truth value


class Valuation:
    """Finite overrides over a default domain element.

    Only the values at a TableFun's dependencies are ever read, so this
    represents exactly the distinguishable valuations.
    """

    __slots__ = ("overrides", "default")

    def __init__(self, overrides: dict[Atom, int] | None = None, default: int = 0):
        self.overrides = dict(overrides or {})
        self.default = default

    def lookup(self, a: Atom) -> int:
        return self.overrides.get(a, self.default)

    def set(self, a: Atom, x: int) -> "Valuation":
        out = dict(self.overrides)
        out[a] = x
        return Valuation(out, self.default)

    def _act_(self, pi: Perm) -> "Valuation":
        # renames override keys only; the default carries no atoms
        return Valuation({pi(a): v for a, v in self.overrides.items()}, self.default)

    def __repr__(self):
        ov = ", ".join(f"{a}={v}" for a, v in sorted(self.overrides.items()))
        return f"<{ov} | else {self.default}>"


@dataclass(frozen=True)
class TableFun:
    """Canonical finite-dependency function: every dep atom is genuinely read.

    The constructor refuses a table that is not canonical: atoms that are
    repeated or out of id order, an atom the table does not read, more
    than MAX_DEPS atoms, more than MAX_ROWS rows, or other than k ** n rows
    over n atoms.  ``tablefun`` gives the canonical table of any values.
    """

    k: int
    deps: tuple[Atom, ...]
    table: tuple

    def __post_init__(self):
        if len(self.table) != _rows(self.k, len(_narrow(self.deps))):
            raise ValueError("table size does not match dependency count")
        if any(p >= q for p, q in zip(self.deps, self.deps[1:])):
            raise ValueError(f"atoms {self.deps} are not distinct and in id order")
        if _canonical(self.k, self.deps, self.table).deps != self.deps:
            raise ValueError(f"table over {self.deps} does not read every atom")

    def _support_(self) -> frozenset[Atom]:
        return frozenset(self.deps)

    def _act_(self, pi: Perm) -> "TableFun":
        # a permutation of a canonical table reads every column: no scan
        return _made(self.k, *_ordered(self.k, tuple(map(pi, self.deps)), self.table))

    def __call__(self, vs: Valuation):
        idx = 0
        for a in self.deps:
            idx = idx * self.k + vs.lookup(a)
        return self.table[idx]

    def __repr__(self):
        ds = "[" + " ".join(a.name for a in self.deps) + "]"
        vals = " ".join(str(int(v)) if isinstance(v, bool) else str(v) for v in self.table)
        return f"TF{ds}({vals})"


def _plan(k: int, n: int, cols: tuple[int, ...]) -> tuple[int, ...]:
    """The row-index plan re-indexing an n-column table over k values.

    Output column j reads source column cols[j], or reads 0 where cols[j]
    is -1; the plan holds the source row of each output row, row-major.
    ``_kept_plan`` is this function behind the plan cache; callers use it
    for plans of at most PLAN_CACHE_ROWS rows only.
    """
    rows = [0]
    for c in cols:
        # the row offsets of the column's k values
        steps = range(0, k ** (n - c), k ** (n - 1 - c)) if c >= 0 else (0,) * k
        rows = [r + d for r in rows for d in steps]
    return tuple(rows)


_kept_plan = lru_cache(maxsize=CACHE_SIZE)(_plan)


def _narrow(deps: tuple[Atom, ...]) -> tuple[Atom, ...]:
    """deps, refused if wider than MAX_DEPS atoms."""
    if len(deps) > MAX_DEPS:
        raise ValueError(f"dependency width {len(deps)} exceeds limit {MAX_DEPS}")
    return deps


def _rows(k: int, n: int) -> int:
    """The k ** n rows of a table over n atoms, refused past MAX_ROWS or for k < 1."""
    if k < 1:
        raise ValueError("domain must be non-empty")
    rows = k ** n
    if rows > MAX_ROWS:
        raise ValueError(f"table of {rows} rows exceeds limit {MAX_ROWS}")
    return rows


def _gather(k: int, src: tuple[Atom, ...], table: tuple, deps: tuple[Atom, ...],
            cols: tuple[int, ...]) -> tuple:
    """A table over src on the rows of deps; column j of deps is src's cols[j].

    deps is a TableFun's, a subset of one, or a narrowed join's.  More than
    MAX_ROWS rows are refused before any plan is looked up or built.
    """
    if deps == src:
        return table
    rows = _rows(k, len(deps))
    plan = (_kept_plan if rows <= PLAN_CACHE_ROWS else _plan)(k, len(src), cols)
    got = itemgetter(*plan)(table)
    # a getter of one row gives that row, not a 1-tuple
    return got if rows > 1 else (got,)


def _ordered(k: int, atoms: tuple[Atom, ...],
             table: tuple) -> tuple[tuple[Atom, ...], tuple]:
    """A table over distinct atoms in any order, on those atoms by id: (deps, rows)."""
    cols = tuple(sorted(range(len(atoms)), key=atoms.__getitem__))
    deps = tuple(map(atoms.__getitem__, cols))
    return deps, _gather(k, atoms, table, deps, cols)


def _made(k: int, deps: tuple[Atom, ...], table: tuple) -> TableFun:
    """A TableFun built without the constructor's checks, for a table that passes them.

    Only for deps in id order that the table reads, a TableFun's own or
    fewer, or a join's, which ``_join`` and ``_subst_join`` have narrowed;
    and a table of k ** len(deps) rows, a TableFun's or ``_gather``'s.
    """
    f = _new(TableFun)
    fields = f.__dict__
    fields["k"], fields["deps"], fields["table"] = k, deps, table
    return f


def _canonical(k: int, deps: tuple[Atom, ...], table: tuple) -> TableFun:
    """The TableFun of a table over deps, less the columns it never reads.

    A column is read iff pinning it to 0 changes the table: iff some block
    of the column's stride times k rows differs from its first stride rows
    repeated k times.  The first block is compared on its own, and the
    others in place, up to the first that differs, only when it does not.
    A table over no atoms, or at k = 1, reads nothing and is not scanned.
    """
    n = len(deps)
    if not n or k == 1:
        return _made(k, (), table)
    kept = []
    for i in range(n):
        stride = k ** (n - 1 - i)
        block = stride * k
        if table[:block] != table[:stride] * k or any(
                table[j:j + block] != table[j:j + stride] * k
                for j in range(block, len(table), block)):
            kept.append(i)
    if len(kept) < n:
        read = tuple(map(deps.__getitem__, kept))
        deps, table = read, _gather(k, deps, table, read, tuple(kept))
    return _made(k, deps, table)


def tablefun(k: int, atoms: Iterable[Atom], values: Iterable) -> TableFun:
    """The canonical TableFun of row-major values over distinct atoms, in any order."""
    atoms = tuple(atoms)
    if len(set(atoms)) != len(_narrow(atoms)):
        raise ValueError(f"repeated atom in {atoms}")
    rows, values = _rows(k, len(atoms)), tuple(values)
    if len(values) != rows:
        raise ValueError("table size does not match dependency count")
    return _canonical(k, *_ordered(k, atoms, values))


def tf_const(k: int, v) -> TableFun:
    """The constant v over a domain of size k."""
    _rows(k, 0)  # refuses an empty domain
    return _made(k, (), (v,))


def tf_atm(k: int, a: Atom) -> TableFun:
    """The projection reading one atom; the atom injection of the lift.

    At k = 1 it reads nothing: it is the constant 0.
    """
    return _canonical(k, (a,), tuple(range(_rows(k, 1))))


def _columns(src: tuple[Atom, ...], deps: tuple[Atom, ...]) -> tuple[int, ...]:
    return tuple(src.index(d) if d in src else -1 for d in deps)


@lru_cache(maxsize=CACHE_SIZE)
def _join(fdeps: tuple[Atom, ...], gdeps: tuple[Atom, ...]):
    """The atoms either table reads, in order, and each table's column map.

    A join wider than MAX_DEPS atoms is refused, so it is never kept.
    """
    deps = _narrow(tuple(sorted(set(fdeps) | set(gdeps))))
    return deps, _columns(fdeps, deps), _columns(gdeps, deps)


def _joined(f: TableFun, g: TableFun):
    """Both tables over the atoms either reads: (deps, f's rows, g's rows).

    The callers have checked that f and g share one domain.
    """
    deps, fcols, gcols = _join(f.deps, g.deps)
    return (deps, _gather(f.k, f.deps, f.table, deps, fcols),
            _gather(g.k, g.deps, g.table, deps, gcols))


@lru_cache(maxsize=CACHE_SIZE)
def _subst_join(fdeps: tuple[Atom, ...], a: Atom, udeps: tuple[Atom, ...]):
    """The atoms of f[a := u], and f's (a read as 0) and u's column maps.

    A result wider than MAX_DEPS atoms is refused, so it is never kept.
    """
    deps = _narrow(tuple(sorted((set(fdeps) - {a}) | set(udeps))))
    fcols = tuple(-1 if d == a else c for d, c in zip(deps, _columns(fdeps, deps)))
    return deps, fcols, _columns(udeps, deps)


def tf_subst(f: TableFun, a: Atom, u: TableFun) -> TableFun:
    """(f[a := u])(vs) = f(vs[a |-> u(vs)]); exact on canonical tables."""
    if f.k != u.k:
        raise ValueError("mismatched domains")
    if a not in f.deps:
        return f
    k, n = f.k, len(f.deps)
    deps, fcols, ucols = _subst_join(f.deps, a, u.deps)
    # u's rows over deps, refused past MAX_ROWS before f's plan is made
    values = _gather(k, u.deps, u.table, deps, ucols)
    # the row of f with a read as 0, plus a's stride times u's value; u may
    # read a itself, so a's column of deps is never f's
    base = (_kept_plan if len(values) <= PLAN_CACHE_ROWS else _plan)(k, n, fcols)
    stride = k ** (n - 1 - f.deps.index(a))
    got = itemgetter(*map(add, base, map(stride.__mul__, values)))(f.table)
    return _canonical(k, deps, got if len(values) > 1 else (got,))


def tf_meet(f: TableFun, g: TableFun) -> TableFun:
    """Pointwise ``p and q``; a constant operand gives one of the operands."""
    if f.k != g.k:
        raise ValueError("mismatched domains")
    if not f.deps:
        return g if f.table[0] else f
    if not g.deps:
        return f if g.table[0] else g
    deps, x, y = _joined(f, g)
    return _canonical(f.k, deps, tuple(map(and_, x, y)))


def tf_neg(f: TableFun) -> TableFun:
    # a truth table and its negation read the same columns: no scan
    return _made(f.k, f.deps, tuple(map(not_, f.table)))


def tf_eq(u: TableFun, v: TableFun) -> TableFun:
    """Pointwise equality table; the lift's equality element applied to u, v."""
    if u.k != v.k:
        raise ValueError("mismatched domains")
    deps, x, y = _joined(u, v)
    return _canonical(u.k, deps, tuple(map(eq, x, y)))


def tf_freshmeet(a: Atom, f: TableFun) -> TableFun:
    """Meet of f over all domain values at a; the fresh-finite limit."""
    if a not in f.deps:
        return f
    k, n, i = f.k, len(f.deps), f.deps.index(a)
    deps = f.deps[:i] + f.deps[i + 1:]
    every = tuple(range(n))
    # f's rows with a's column moved last: each output row's k values are
    # one stride-1 run, and column x of the runs is t[x::k]
    t = _gather(k, f.deps, f.table, deps + (a,), every[:i] + every[i + 1:] + (i,))
    return _canonical(k, deps, tuple(map(all, zip(*(t[x::k] for x in range(k))))))


# ----------------------------------------------------- ordinary models

@dataclass
class OrdinaryModel:
    sig: Signature
    k: int
    funcs: dict[str, tuple[int, ...]]
    preds: dict[str, tuple[bool, ...]]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("domain must be non-empty")
        for kind, tables, symbols in (("function", self.funcs, self.sig.functions),
                                      ("predicate", self.preds, self.sig.predicates)):
            for name, ar in symbols:
                if name not in tables:
                    raise ValueError(f"no table for {name}")
                got, need = len(tables[name]), self.k ** ar
                if got != need:
                    raise ValueError(f"{kind} table for {name} has {got} values, "
                                     f"needs {self.k} ** {ar} = {need}")

    def _index(self, args: tuple[int, ...]) -> int:
        idx = 0
        for v in args:
            idx = idx * self.k + v
        return idx

    def fun_value(self, name: str, args: tuple[int, ...]) -> int:
        return self.funcs[name][self._index(args)]

    def pred_value(self, name: str, args: tuple[int, ...]) -> bool:
        return self.preds[name][self._index(args)]

    def format(self) -> str:
        lines = [f"domain {self.k}"]
        for name, _ in self.sig.functions:
            lines.append(f"fun {name} : " + " ".join(map(str, self.funcs[name])))
        for name, _ in self.sig.predicates:
            lines.append(f"pred {name} : " + " ".join("1" if v else "0" for v in self.preds[name]))
        return "\n".join(lines) + "\n"


def parse_model(text: str, sig: Signature) -> OrdinaryModel:
    """Parse the row-major model file format; arity comes from the signature."""
    k = None
    funcs: dict[str, tuple[int, ...]] = {}
    preds: dict[str, tuple[bool, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "domain" and len(parts) == 2:
            if k is not None:
                raise SyntaxError_(f"line {lineno}: second 'domain k' line")
            k = read_decimal(parts[1], f"line {lineno}: domain size ")
            if k is None:
                raise SyntaxError_(f"line {lineno}: bad domain size {parts[1]!r}")
        elif parts[0] in ("fun", "pred") and len(parts) >= 3 and parts[2] == ":":
            if k is None:
                raise SyntaxError_(f"line {lineno}: 'domain k' must come first")
            name, vals = parts[1], parts[3:]
            if name in funcs or name in preds:
                raise SyntaxError_(f"line {lineno}: second table for {name!r}")
            if parts[0] == "fun":
                if sig.fun_arity(name) is None:
                    raise SyntaxError_(f"line {lineno}: unknown function {name!r}")
                what = f"line {lineno}: function value "
                values = tuple(read_decimal(v, what) for v in vals)
                bad = [v for v, x in zip(vals, values) if x is None or x >= k]
                if bad:
                    raise SyntaxError_(f"line {lineno}: function value {bad[0]!r} "
                                       f"is not in 0..{k - 1}")
                funcs[name] = values
            else:
                if sig.pred_arity(name) is None:
                    raise SyntaxError_(f"line {lineno}: unknown predicate {name!r}")
                bad = [v for v in vals if v not in ("0", "1")]
                if bad:
                    raise SyntaxError_(f"line {lineno}: predicate value {bad[0]!r} "
                                       f"is not 0 or 1")
                preds[name] = tuple(v == "1" for v in vals)
        else:
            raise SyntaxError_(f"line {lineno}: cannot parse {raw!r}")
    if k is None:
        raise SyntaxError_("missing 'domain k' line")
    return OrdinaryModel(sig, k, funcs, preds)


def standard_eval_term(t: Term, model: OrdinaryModel, vs: Valuation) -> int:
    if isinstance(t, Var):
        return vs.lookup(t.atom)
    return model.fun_value(t.fn, tuple(standard_eval_term(s, model, vs) for s in t.args))


def standard_eval(phi: Formula, model: OrdinaryModel, vs: Valuation) -> bool:
    """Brute-force Tarski semantics; the quantifier enumerates the domain."""
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Eq):
        return standard_eval_term(phi.lhs, model, vs) == standard_eval_term(phi.rhs, model, vs)
    if isinstance(phi, Pred):
        return model.pred_value(phi.name, tuple(standard_eval_term(t, model, vs) for t in phi.args))
    if isinstance(phi, And):
        return standard_eval(phi.lhs, model, vs) and standard_eval(phi.rhs, model, vs)
    if isinstance(phi, Neg):
        return not standard_eval(phi.body, model, vs)
    if isinstance(phi, All):
        return all(standard_eval(phi.body, model, vs.set(phi.binder, x))
                   for x in range(model.k))
    raise TypeError(f"not a formula: {phi!r}")


# ----------------------------------------------------------- the lift

def tarski_termlike(k: int) -> Carrier:
    return Carrier(subst=tf_subst, equal=lambda f, g: f == g,
                   atm=lambda a: tf_atm(k, a))


def tarski_algebra(k: int) -> FoleqAlgebra:
    return FoleqAlgebra(
        subst=tf_subst,
        equal=lambda f, g: f == g,
        terms=tarski_termlike(k),
        top=tf_const(k, True),
        meet=tf_meet,
        neg=tf_neg,
        freshmeet=tf_freshmeet,
        eq=tf_eq,
    )


def lift_interpretation(model: OrdinaryModel) -> Interpretation:
    """Tables for the model's symbols at distinct atoms, as an Interpretation."""
    k = model.k
    return Interpretation(tarski_algebra(k),
                          lambda name, atoms: tablefun(k, atoms, model.funcs[name]),
                          lambda name, atoms: tablefun(k, atoms, model.preds[name]))


def all_valuations(atoms: Iterable[Atom], k: int) -> Iterator[Valuation]:
    """Every assignment of the given atoms, for every default element."""
    atoms = tuple(sorted(set(atoms)))
    for default in range(k):
        for combo in itertools.product(range(k), repeat=len(atoms)):
            yield Valuation(dict(zip(atoms, combo)), default)


def agreement_check(phi: Formula, model: OrdinaryModel) -> bool:
    """Lifted absolute semantics vs brute-force semantics, at every valuation."""
    table = interpret(phi, lift_interpretation(model))
    return all(table(vs) == standard_eval(phi, model, vs)
               for vs in all_valuations(free_atoms(phi), model.k))


def iter_models(sig: Signature, k: int) -> Iterator[OrdinaryModel]:
    """All models of size k over sig, in lexicographic order of their tables.

    The tables are the functions' and then the predicates', each in
    signature order, and each symbol's tables come in lexicographic
    order, 0 (false) first.
    """
    _rows(k, 0)  # refuses an empty domain, which has no model
    names = [name for name, _ in sig.functions + sig.predicates]
    n = len(sig.functions)
    tables = ([itertools.product(range(k), repeat=k ** ar) for _, ar in sig.functions]
              + [itertools.product((False, True), repeat=k ** ar)
                 for _, ar in sig.predicates])
    for combo in itertools.product(*tables):
        yield OrdinaryModel(sig, k, dict(zip(names[:n], combo)), dict(zip(names[n:], combo[n:])))


def random_model(sig: Signature, k: int, rng: random.Random) -> OrdinaryModel:
    funcs = {name: tuple(rng.randrange(k) for _ in range(k ** ar))
             for name, ar in sig.functions}
    preds = {name: tuple(rng.random() < 0.5 for _ in range(k ** ar))
             for name, ar in sig.predicates}
    return OrdinaryModel(sig, k, funcs, preds)


@lru_cache(maxsize=CACHE_SIZE)
def _subsets(pool: tuple[Atom, ...]) -> tuple[tuple[tuple[Atom, ...], ...], ...]:
    """Per width n from 0 to min(3, len(pool)), the n-subsets of pool, each in id order.

    They come in the order of the n-subsets of pool's indices, so a choice
    among them picks the atoms that the same choice among those would.
    """
    return tuple(tuple(tuple(sorted(c)) for c in itertools.combinations(pool, n))
                 for n in range(min(3, len(pool)) + 1))


def _digits(x: int, base: int, rows: int) -> tuple[int, ...]:
    """The rows base-``base`` digits of x < base ** rows, most significant first."""
    digits = [0] * rows
    for i in range(rows - 1, -1, -1):
        x, digits[i] = divmod(x, base)
    return tuple(digits)


def random_tablefun(k: int, rng: random.Random, pool: tuple[Atom, ...],
                    outputs: int | None = None) -> TableFun:
    """Random canonical TableFun on at most 3 atoms; outputs=None gives truth values.

    pool holds distinct atoms.  The number of atoms n is uniform on
    0..min(3, len(pool)), the n-subset of pool is uniform, and each of the
    k ** n rows is uniform on {False, True}, or on range(outputs), and
    independent of the others.  Each part is one draw: n is one randrange;
    the subset is one choice among the n-subsets of pool, which are kept
    per pool, so pools should be small; and the rows are the binary digits
    of one getrandbits(k ** n), or the base-outputs digits of one
    randrange(outputs ** k ** n), most significant first.
    """
    subsets = _subsets(pool)
    deps = rng.choice(subsets[rng.randrange(len(subsets))])
    rows = _rows(k, len(deps))
    if outputs is None:
        bits = format(rng.getrandbits(rows), f"0{rows}b")
        return _canonical(k, deps, tuple(map(_BIT.__getitem__, bits)))
    return _canonical(k, deps, _digits(rng.randrange(outputs ** rows), outputs, rows))
