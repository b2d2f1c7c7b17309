"""Finite ordinary models, brute-force evaluation, and the lifted algebra.

A TableFun is a function from valuations into a finite domain that reads
only finitely many atoms; the canonical form stores exactly the atoms that
are genuinely read, which makes support and equality decidable.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .foleq import FoleqAlgebra, Interpretation, interpret
from .nominal import Atom, Perm
from .sigma import Carrier
from .syntax import (All, And, Bot, Eq, Formula, Neg, Pred, Signature,
                     SyntaxError_, Term, Var, free_atoms)

MAX_DEPS = 6  # dependency width of a table; keep constructions bounded
MAX_ROWS = 10 ** 6  # k**deps table rows, k = 10 at width MAX_DEPS


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
    """Canonical finite-dependency function: every dep atom is genuinely read."""

    k: int
    deps: tuple[Atom, ...]
    table: tuple

    def __post_init__(self):
        if len(self.table) != self.k ** len(self.deps):
            raise ValueError("table size does not match dependency count")

    def _support_(self) -> frozenset[Atom]:
        return frozenset(self.deps)

    def _act_(self, pi: Perm) -> "TableFun":
        return tablefun(self.k, map(pi, self.deps), self.table)

    def __call__(self, vs: Valuation):
        idx = 0
        for a in self.deps:
            idx = idx * self.k + vs.lookup(a)
        return self.table[idx]

    def __repr__(self):
        ds = "[" + " ".join(a.name for a in self.deps) + "]"
        vals = " ".join(str(int(v)) if isinstance(v, bool) else str(v) for v in self.table)
        return f"TF{ds}({vals})"


def _gather(f: TableFun, deps: tuple[Atom, ...]) -> tuple:
    """f's table over the rows of deps: f's atoms outside deps read 0."""
    if len(deps) > MAX_DEPS:
        raise ValueError(f"dependency width {len(deps)} exceeds limit {MAX_DEPS}")
    if deps == f.deps:
        return f.table
    if f.k ** len(deps) > MAX_ROWS:
        raise ValueError(f"table of {f.k ** len(deps)} rows exceeds limit {MAX_ROWS}")
    stride = {a: f.k ** (len(f.deps) - 1 - i) for i, a in enumerate(f.deps)}
    idxs = [0]
    for d in deps:
        s = stride.get(d, 0)
        idxs = [i + v * s for i in idxs for v in range(f.k)]
    return tuple(f.table[i] for i in idxs)


def _by_id(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    return tuple(sorted(atoms, key=lambda a: a.id))


def tablefun(k: int, atoms: Iterable[Atom], values: Iterable) -> TableFun:
    """The canonical TableFun of row-major values over atoms, in any order."""
    raw = TableFun(k, tuple(atoms), tuple(values))
    deps = _by_id(raw.deps)
    return tf_canonicalise(TableFun(k, deps, _gather(raw, deps)))


def _reads(f: TableFun, i: int) -> bool:
    # the column reads its atom iff some block's k sub-slices differ
    t, k = f.table, f.k
    stride = k ** (len(f.deps) - 1 - i)
    block = stride * k
    return any(t[base + v * stride:base + (v + 1) * stride] != t[base:base + stride]
               for base in range(0, len(t), block) for v in range(1, k))


def tf_canonicalise(f: TableFun) -> TableFun:
    """Prune dependencies the table never reads; idempotent."""
    deps = tuple(a for i, a in enumerate(f.deps) if _reads(f, i))
    return f if deps == f.deps else TableFun(f.k, deps, _gather(f, deps))


def tf_const(k: int, v) -> TableFun:
    return TableFun(k, (), (v,))


def tf_atm(k: int, a: Atom) -> TableFun:
    """The projection reading one atom; the atom injection of the lift."""
    return TableFun(k, (a,), tuple(range(k)))


def tf_subst(f: TableFun, a: Atom, u: TableFun) -> TableFun:
    """(f[a := u])(vs) = f(vs[a |-> u(vs)]); exact on canonical tables."""
    if f.k != u.k:
        raise ValueError("mismatched domains")
    if a not in f.deps:
        return f
    k, rest = f.k, tuple(d for d in f.deps if d != a)
    deps = _by_id(set(rest) | set(u.deps))
    # f's row index with a read as 0, spread onto the output rows; u may
    # read a itself, so a's column of deps is never f's
    base = TableFun(k, rest, _gather(TableFun(k, f.deps, range(len(f.table))), rest))
    stride = k ** (len(rest) - f.deps.index(a))
    return tablefun(k, deps, [f.table[i + x * stride] for i, x in
                              zip(_gather(base, deps), _gather(u, deps))])


def tf_meet(f: TableFun, g: TableFun) -> TableFun:
    deps = _by_id(set(f.deps) | set(g.deps))
    return tablefun(f.k, deps, [x and y for x, y in zip(_gather(f, deps), _gather(g, deps))])


def tf_neg(f: TableFun) -> TableFun:
    return TableFun(f.k, f.deps, tuple(not v for v in f.table))


def tf_eq(u: TableFun, v: TableFun) -> TableFun:
    """Pointwise equality table; the lift's equality element applied to u, v."""
    if u.k != v.k:
        raise ValueError("mismatched domains")
    deps = _by_id(set(u.deps) | set(v.deps))
    return tablefun(u.k, deps, [x == y for x, y in zip(_gather(u, deps), _gather(v, deps))])


def tf_freshmeet(a: Atom, f: TableFun) -> TableFun:
    """Meet of f over all domain values at a; the fresh-finite limit."""
    if a not in f.deps:
        return f
    k, deps = f.k, tuple(d for d in f.deps if d != a)
    t = _gather(f, deps + (a,))
    return tablefun(k, deps, [all(t[i:i + k]) for i in range(0, len(t), k)])


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
        for name, ar in self.sig.functions:
            if len(self.funcs.get(name, ())) != self.k ** ar:
                raise ValueError(f"function table for {name} has wrong size")
        for name, ar in self.sig.predicates:
            if len(self.preds.get(name, ())) != self.k ** ar:
                raise ValueError(f"predicate table for {name} has wrong size")

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


def _decimal(v: str) -> bool:
    return v.isascii() and v.isdigit()


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
            if not _decimal(parts[1]):
                raise SyntaxError_(f"line {lineno}: bad domain size {parts[1]!r}")
            k = int(parts[1])
        elif parts[0] in ("fun", "pred") and len(parts) >= 3 and parts[2] == ":":
            if k is None:
                raise SyntaxError_(f"line {lineno}: 'domain k' must come first")
            name, vals = parts[1], parts[3:]
            if parts[0] == "fun":
                if sig.fun_arity(name) is None:
                    raise SyntaxError_(f"line {lineno}: unknown function {name!r}")
                bad = [v for v in vals if not (_decimal(v) and int(v) < k)]
                if bad:
                    raise SyntaxError_(f"line {lineno}: function value {bad[0]!r} "
                                       f"is not in 0..{k - 1}")
                funcs[name] = tuple(map(int, vals))
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
    return Carrier(
        name=f"Tarski[{k},{k}]",
        subst=tf_subst,
        equal=lambda f, g: f == g,
        atm=lambda a: tf_atm(k, a),
    )


def tarski_algebra(k: int) -> FoleqAlgebra:
    return FoleqAlgebra(
        name=f"Tarski[{k},2]",
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
    atoms = _by_id(set(atoms))
    for default in range(k):
        for combo in itertools.product(range(k), repeat=len(atoms)):
            yield Valuation(dict(zip(atoms, combo)), default)


def agreement_check(phi: Formula, model: OrdinaryModel) -> bool:
    """Lifted absolute semantics vs brute-force semantics, at every valuation."""
    table = interpret(phi, lift_interpretation(model))
    return all(table(vs) == standard_eval(phi, model, vs)
               for vs in all_valuations(free_atoms(phi), model.k))


def iter_models(sig: Signature, k: int) -> Iterator[OrdinaryModel]:
    """All models of size k, tables in lexicographic order."""
    fun_spaces = [list(itertools.product(range(k), repeat=k ** ar))
                  for _, ar in sig.functions]
    pred_spaces = [list(itertools.product((False, True), repeat=k ** ar))
                   for _, ar in sig.predicates]
    for fun_choice in itertools.product(*fun_spaces):
        for pred_choice in itertools.product(*pred_spaces):
            funcs = {name: tab for (name, _), tab in zip(sig.functions, fun_choice)}
            preds = {name: tab for (name, _), tab in zip(sig.predicates, pred_choice)}
            yield OrdinaryModel(sig, k, funcs, preds)


def random_model(sig: Signature, k: int, rng: random.Random) -> OrdinaryModel:
    funcs = {name: tuple(rng.randrange(k) for _ in range(k ** ar))
             for name, ar in sig.functions}
    preds = {name: tuple(rng.random() < 0.5 for _ in range(k ** ar))
             for name, ar in sig.predicates}
    return OrdinaryModel(sig, k, funcs, preds)


def random_tablefun(k: int, rng: random.Random, pool: tuple[Atom, ...],
                    outputs: int | None = None) -> TableFun:
    """Random canonical TableFun on at most 3 atoms; outputs=None gives truth values."""
    n = rng.randint(0, min(3, len(pool)))
    deps = _by_id(rng.sample(pool, n))
    return tablefun(k, deps, [rng.randrange(outputs) if outputs is not None
                              else rng.random() < 0.5 for _ in range(k ** n)])
