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

MAX_DEPS = 6  # k**deps table rows; keep constructions bounded


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
        new_deps = tuple(sorted((pi(a) for a in self.deps), key=lambda a: a.id))
        back = {pi(a): a for a in self.deps}
        return tablefun(self.k, new_deps,
                        lambda m: self(Valuation({back[a]: v for a, v in m.items()})))

    def __call__(self, vs: Valuation):
        idx = 0
        for a in self.deps:
            idx = idx * self.k + vs.lookup(a)
        return self.table[idx]

    def __repr__(self):
        ds = "[" + " ".join(a.name for a in self.deps) + "]"
        vals = " ".join(str(int(v)) if isinstance(v, bool) else str(v) for v in self.table)
        return f"TF{ds}({vals})"


def _rows(k: int, deps: tuple[Atom, ...]) -> Iterator[dict[Atom, int]]:
    for combo in itertools.product(range(k), repeat=len(deps)):
        yield dict(zip(deps, combo))


def tablefun(k: int, deps: Iterable[Atom], fn) -> TableFun:
    """Build and canonicalise a TableFun; fn maps a dep-assignment dict to a value."""
    deps = tuple(sorted(set(deps), key=lambda a: a.id))
    if len(deps) > MAX_DEPS:
        raise ValueError(f"dependency width {len(deps)} exceeds limit {MAX_DEPS}")
    table = tuple(fn(m) for m in _rows(k, deps))
    return tf_canonicalise(TableFun(k, deps, table))


def _reads(f: TableFun, i: int) -> bool:
    n, k = len(f.deps), f.k
    stride = k ** (n - 1 - i)
    block = stride * k
    for base in range(0, len(f.table), block):
        for off in range(stride):
            column = {f.table[base + off + v * stride] for v in range(k)}
            if len(column) > 1:
                return True
    return False


def tf_canonicalise(f: TableFun) -> TableFun:
    """Prune dependencies the table never reads; idempotent."""
    kept = [i for i in range(len(f.deps)) if _reads(f, i)]
    if len(kept) == len(f.deps):
        return f
    deps = tuple(f.deps[i] for i in kept)
    idxs = []
    for combo in itertools.product(range(f.k), repeat=len(deps)):
        full = [0] * len(f.deps)
        for slot, i in enumerate(kept):
            full[i] = combo[slot]
        idx = 0
        for v in full:
            idx = idx * f.k + v
        idxs.append(idx)
    return TableFun(f.k, deps, tuple(f.table[i] for i in idxs))


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
    deps = (set(f.deps) - {a}) | set(u.deps)
    return tablefun(f.k, deps, lambda m: f(Valuation(m).set(a, u(Valuation(m)))))


def tf_meet(f: TableFun, g: TableFun) -> TableFun:
    return tablefun(f.k, set(f.deps) | set(g.deps),
                    lambda m: f(Valuation(m)) and g(Valuation(m)))


def tf_neg(f: TableFun) -> TableFun:
    return TableFun(f.k, f.deps, tuple(not v for v in f.table))


def tf_eq(u: TableFun, v: TableFun) -> TableFun:
    """Pointwise equality table; the lift's equality element applied to u, v."""
    if u.k != v.k:
        raise ValueError("mismatched domains")
    return tablefun(u.k, set(u.deps) | set(v.deps),
                    lambda m: u(Valuation(m)) == v(Valuation(m)))


def tf_freshmeet(a: Atom, f: TableFun) -> TableFun:
    """Meet of f over all domain values at a; the fresh-finite limit."""
    if a not in f.deps:
        return f
    deps = tuple(d for d in f.deps if d != a)
    return tablefun(f.k, deps,
                    lambda m: all(f(Valuation(m).set(a, x)) for x in range(f.k)))


def tf_leq(f: TableFun, g: TableFun) -> bool:
    return tf_meet(f, g) == f


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
            k = int(parts[1])
        elif parts[0] in ("fun", "pred") and len(parts) >= 3 and parts[2] == ":":
            if k is None:
                raise SyntaxError_(f"line {lineno}: 'domain k' must come first")
            name, vals = parts[1], parts[3:]
            if parts[0] == "fun":
                if sig.fun_arity(name) is None:
                    raise SyntaxError_(f"line {lineno}: unknown function {name!r}")
                funcs[name] = tuple(int(v) for v in vals)
                if any(not 0 <= v < k for v in funcs[name]):
                    raise SyntaxError_(f"line {lineno}: value out of domain")
            else:
                if sig.pred_arity(name) is None:
                    raise SyntaxError_(f"line {lineno}: unknown predicate {name!r}")
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

    def fun_interp(name: str, atoms: tuple[Atom, ...]) -> TableFun:
        return tablefun(k, atoms, lambda m: model.fun_value(name, tuple(m[a] for a in atoms)))

    def pred_interp(name: str, atoms: tuple[Atom, ...]) -> TableFun:
        return tablefun(k, atoms, lambda m: model.pred_value(name, tuple(m[a] for a in atoms)))

    return Interpretation(tarski_algebra(k), fun_interp, pred_interp)


def all_valuations(atoms: Iterable[Atom], k: int) -> Iterator[Valuation]:
    """Every assignment of the given atoms, for every default element."""
    atoms = tuple(sorted(set(atoms), key=lambda a: a.id))
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
    deps = tuple(rng.sample(pool, n))
    space = outputs if outputs is not None else 2
    f = tablefun(k, deps,
                 lambda m: rng.randrange(space) if outputs is not None else rng.random() < 0.5)
    return f
