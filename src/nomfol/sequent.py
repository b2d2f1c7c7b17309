"""Sequent calculus: proof checking, bounded search, countermodel search.

Sequents are finite alpha-aware sets, so contraction is implicit.
``decide`` gives a sequent one verdict: a proof, a countermodel, or
neither.  It proves a root that hyp or botL closes, and otherwise looks
for a countermodel of size 1, or of size 2 for a sequent with an
equation, as far as the countermodel search's limit allows, and returns
it without searching, since no depth could prove a sequent that has one;
only then does the bounded search run, which is sound by construction.
``prove`` returns just the verdict's proof, so its None covers both a
refutation and a search that ran out of depth.
Countermodels are exhaustive up to the size bound, so a found model is a
certificate, which ``check_countermodel`` re-evaluates where it leaves
the library; a size too large to search or to pad is refused.  The
countermodel search decides size 1 on the truth bits of the predicate
assignments, and every larger size on bits with one per (model,
valuation) pair, each formula evaluated once.
"""
from __future__ import annotations

import itertools
import math
import random
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .nominal import Atom, act, atoms, fresh, swap
from .syntax import (All, And, App, BOT, Bot, Eq, Formula, LimitExceeded,
                     MAX_NESTING, Neg, Pred, Signature, SyntaxError_, Term,
                     Var, all_atoms, alpha_key, atom_id, free_atoms,
                     free_atoms_term, parse_shared, parse_sides, pretty,
                     pretty_term, random_formula, random_term, subst_formula,
                     subterms)
from .tarski import MAX_ROWS, OrdinaryModel, Valuation, standard_eval


class Side(tuple):
    """One side of a sequent, a finite set of formulas up to alpha.

    It is a tuple of one formula per alpha class, the first one seen, in
    key order.  ``keys`` holds their alpha keys in that order, so
    membership up to alpha and the memo key read keys, not formulas.
    ``Side(formulas)`` keys every formula; ``plus`` and ``without`` build a
    side from this one's keys, keying only the formulas they add or drop.
    """

    def __new__(cls, formulas: Iterable[Formula]) -> "Side":
        seen: dict[str, Formula] = {}
        for f in formulas:
            seen.setdefault(alpha_key(f), f)
        keys = tuple(sorted(seen))
        return _side([seen[k] for k in keys], keys)

    def has(self, phi: Formula) -> bool:
        """Whether phi is on this side, up to alpha."""
        return alpha_key(phi) in self.keys

    def plus(self, *formulas: Formula) -> "Side":
        """This side with formulas added, up to alpha, as Side(self + formulas)."""
        side = self
        for f in formulas:
            k, keys = alpha_key(f), side.keys
            i = bisect_left(keys, k)
            if i == len(keys) or keys[i] != k:
                side = _side(side[:i] + (f,) + side[i:], keys[:i] + (k,) + keys[i:])
        return side

    def without(self, phi: Formula) -> "Side":
        """This side less phi, up to alpha."""
        k, keys = alpha_key(phi), self.keys
        i = bisect_left(keys, k)
        if i == len(keys) or keys[i] != k:
            return self
        return _side(self[:i] + self[i + 1:], keys[:i] + keys[i + 1:])


def _side(formulas, keys: tuple[str, ...]) -> Side:
    """The Side of formulas already deduplicated and sorted by their keys."""
    side = tuple.__new__(Side, formulas)
    side.keys = keys
    return side


@dataclass(frozen=True)
class Sequent:
    """Build with ``sequent``, which makes each side a Side.

    ``prove`` builds its premises as ``Sequent`` values directly, from the
    sides of their conclusion.
    """

    left: Side
    right: Side

    def key(self) -> tuple:
        return (self.left.keys, self.right.keys)

    def free_atoms(self) -> frozenset[Atom]:
        return frozenset().union(*map(free_atoms, self.left + self.right))

    def __repr__(self):
        return format_sequent(self)


def sequent(left, right) -> Sequent:
    """The sequent left |- right; a side that is already a Side is kept as is."""
    return Sequent(left if isinstance(left, Side) else Side(left),
                   right if isinstance(right, Side) else Side(right))


def format_sequent(s: Sequent) -> str:
    lhs = ", ".join(pretty(f) for f in s.left)
    rhs = ", ".join(pretty(f) for f in s.right)
    return f"{lhs} |- {rhs}".strip()


def parse_sequent(text: str, sig: Signature) -> Sequent:
    return sequent(*parse_sides(text, sig))


# -------------------------------------------------------------- proofs

@dataclass(frozen=True)
class Proof:
    rule: str
    conclusion: Sequent
    witnesses: tuple = ()
    premises: tuple["Proof", ...] = ()


# rule: (premise count, witness kinds), a kind being a key of _KINDS
_RULES = {"hyp": (0, ""), "botL": (0, ""), "eqR": (1, "t"), "andL": (1, "f"),
          "andR": (2, "f"), "negL": (1, "f"), "negR": (1, "f"),
          "allL": (1, "ft"), "allR": (1, "fa"), "eqL": (1, "ffa")}


def _read_atom(name: str) -> Atom:
    i = atom_id(name)
    if i is None:
        raise SyntaxError_(f"bad atom name {name!r} in proof")
    return Atom(i)


# witness kind: (type, writer, reader), the reader of an atom being _read_atom
_KINDS = {"f": (Formula, pretty, "formula"),
          "t": (Term, pretty_term, "term"),
          "a": (Atom, lambda a: a.name, None)}


_BOT_KEY = alpha_key(BOT)

MAX_BRANCHING = 64  # moves tried per sequent, in rule order


@dataclass(frozen=True)
class ProverBudget:
    max_depth: int = 8

    def __post_init__(self):
        # a proof found at depth d nests up to d + 1 nodes; parse_proof
        # refuses nesting past MAX_NESTING
        if not 0 <= self.max_depth < MAX_NESTING:
            raise ValueError(f"prover depth {self.max_depth} is not in 0..{MAX_NESTING - 1}")


def default_universe(s: Sequent, sig: Signature) -> tuple[Term, ...]:
    """Subterms of the sequent, signature constants, and one fresh atom."""
    terms: dict[str, Term] = {}
    for t in formula_terms(s.left + s.right):
        terms.setdefault(pretty_term(t), t)
    for c in sig.constants():
        t = App(c, ())
        terms.setdefault(pretty_term(t), t)
    t = Var(fresh(s.free_atoms()))
    terms.setdefault(pretty_term(t), t)
    return tuple(terms[k] for k in sorted(terms))


def _safe_abstract(phi: Formula, r: Term, hole: Atom, picks: set[int] | None):
    """Replace occurrences of r in phi by the hole atom.

    Occurrences under a binder that captures an atom of r are never
    touched; ``picks`` selects safe-occurrence indices in leftmost-outermost
    order (None means all).  Returns (template, count of safe occurrences).
    """
    ratoms = free_atoms_term(r)
    counter = [0]

    def term(t: Term, bound: frozenset[Atom]) -> Term:
        if t == r and not (bound & ratoms):
            i = counter[0]
            counter[0] += 1
            if picks is None or i in picks:
                return Var(hole)
            return t
        if isinstance(t, App):
            return App(t.fn, tuple(term(s, bound) for s in t.args))
        return t

    def go(f: Formula, bound: frozenset[Atom]) -> Formula:
        if isinstance(f, Bot):
            return f
        if isinstance(f, Eq):
            return Eq(term(f.lhs, bound), term(f.rhs, bound))
        if isinstance(f, Pred):
            return Pred(f.name, tuple(term(t, bound) for t in f.args))
        if isinstance(f, And):
            return And(go(f.lhs, bound), go(f.rhs, bound))
        if isinstance(f, Neg):
            return Neg(go(f.body, bound))
        if isinstance(f, All):
            return All(f.binder, go(f.body, bound | {f.binder}))
        raise TypeError(f"not a formula: {f!r}")

    out = go(phi, frozenset())
    return out, counter[0]


def _allR_context(s: Sequent, principal: All) -> frozenset[Atom]:
    """The atoms an allR witness must avoid: those free in the context."""
    return frozenset().union(*map(free_atoms, s.left + s.right.without(principal)))


def _allR_witness(s: Sequent, principal: All) -> Atom:
    blocked = _allR_context(s, principal)
    a = principal.binder
    if a not in blocked:
        return a
    return fresh(blocked | free_atoms(principal.body) | {a})


# ------------------------------------------------------------- checker

def check_proof(p: Proof) -> tuple[bool, str]:
    """Validate every node against its rule, matching up to alpha."""
    try:
        _check_node(p)
        return True, "ok"
    except _CheckFail as e:
        return False, str(e)


class _CheckFail(Exception):
    pass


def _fail(p: Proof, why: str):
    raise _CheckFail(f"{p.rule} at '{format_sequent(p.conclusion)}': {why}")


_PRINCIPALS = {And: "principal conjunction", Neg: "principal negation",
               All: "principal quantifier", Eq: "equation"}


def _from_formulas(s: Sequent) -> Sequent:
    """s keyed afresh from its formulas, so the checker reads no stored key."""
    return sequent(tuple(s.left), tuple(s.right))


def _principal(p: Proof, s: Sequent, cls: type, on_left: bool) -> Formula:
    """The first witness, which must be a cls on the given side of s."""
    f = p.witnesses[0]
    if not isinstance(f, cls) or not (s.left if on_left else s.right).has(f):
        _fail(p, f"{_PRINCIPALS[cls]} is not on the {'left' if on_left else 'right'}")
    return f


def _expect_premises(p: Proof, s: Sequent, principal: Formula, on_left: bool,
                     *adds, why: str = "") -> None:
    """Premise i is the conclusion s plus adds[i], a (left, right) pair.

    The principal may also occur in the context, so the premise may keep
    it or drop it: both are instances of the literal rule.  Both are built
    from scratch by ``sequent``, sharing no code with the prover's moves.
    """
    k = alpha_key(principal)
    ctx = tuple(f for f in (s.left if on_left else s.right) if alpha_key(f) != k)
    drop = (ctx, s.right) if on_left else (s.left, ctx)
    for i, (left, right) in enumerate(adds):
        wants = [sequent(ctx_l + left, ctx_r + right)
                 for ctx_l, ctx_r in (drop, (s.left, s.right))]
        got = _from_formulas(p.premises[i].conclusion)
        if got.key() not in (wants[0].key(), wants[1].key()):
            _fail(p, why or f"premise {i + 1} should be '{format_sequent(wants[0])}', "
                            f"got '{format_sequent(got)}'")


def _check_node(p: Proof) -> None:
    s = _from_formulas(p.conclusion)
    if p.rule not in _RULES:
        _fail(p, "unknown rule")
    arity, kinds = _RULES[p.rule]
    if len(p.premises) != arity:
        _fail(p, f"expected {arity} premises, got {len(p.premises)}")
    if len(p.witnesses) != len(kinds) or not all(
            isinstance(w, _KINDS[k][0]) for w, k in zip(p.witnesses, kinds)):
        _fail(p, f"witnesses should be of kinds '{kinds}'")

    if p.rule == "hyp":
        if not any(map(s.right.keys.__contains__, s.left.keys)):
            _fail(p, "no shared formula between the two sides")
    elif p.rule == "botL":
        if not s.left.has(BOT):
            _fail(p, "bottom is not on the left")
    elif p.rule == "eqR":
        refl = Eq(p.witnesses[0], p.witnesses[0])
        # no principal: naming refl makes the drop variant the keep variant
        _expect_premises(p, s, refl, True, ((refl,), ()))
    elif p.rule == "andL":
        f = _principal(p, s, And, True)
        _expect_premises(p, s, f, True, ((f.lhs, f.rhs), ()))
    elif p.rule == "andR":
        f = _principal(p, s, And, False)
        _expect_premises(p, s, f, False, ((), (f.lhs,)), ((), (f.rhs,)))
    elif p.rule == "negL":
        f = _principal(p, s, Neg, True)
        _expect_premises(p, s, f, True, ((), (f.body,)))
    elif p.rule == "negR":
        f = _principal(p, s, Neg, False)
        _expect_premises(p, s, f, False, ((f.body,), ()))
    elif p.rule == "allL":
        f, r = _principal(p, s, All, True), p.witnesses[1]
        _expect_premises(p, s, f, True, ((subst_formula(f.body, f.binder, r),), ()),
                         why=f"premise should instantiate with {pretty_term(r)}")
    elif p.rule == "allR":
        f, c = _principal(p, s, All, False), p.witnesses[1]
        if c in _allR_context(s, f):
            _fail(p, f"witness atom {c} is free in the context")
        if c in free_atoms(f):
            _fail(p, f"witness atom {c} is free in the quantified body")
        _expect_premises(p, s, f, False, ((), (act(swap(c, f.binder), f.body),)))
    elif p.rule == "eqL":
        _, template, a = p.witnesses
        e = _principal(p, s, Eq, True)
        inst_old = subst_formula(template, a, e.rhs)
        if not s.left.has(inst_old):
            _fail(p, "rewritten formula is not on the left")
        _expect_premises(p, s, inst_old, True, ((subst_formula(template, a, e.lhs),), ()),
                         why="premise does not match the rewrite")
    for q in p.premises:
        _check_node(q)


# -------------------------------------------------------------- search

@dataclass(frozen=True)
class Verdict:
    """What ``decide`` settled about a sequent: a proof, a countermodel, or neither.

    A proof certifies that the sequent is valid, and a countermodel (a
    model and a valuation that make every left formula true and every
    right formula false) that it is not, so a verdict never holds both.
    Neither is unknown: the search ran out of depth.
    """

    proof: Proof | None = None
    countermodel: tuple[OrdinaryModel, Valuation] | None = None

    def __post_init__(self):
        if self.proof is not None and self.countermodel is not None:
            raise ValueError("a verdict holds a proof or a countermodel, not both")


def decide(s: Sequent, budget: ProverBudget = ProverBudget(),
           sig: Signature | None = None) -> Verdict:
    """A proof of s, a small countermodel of s, or neither.

    A root that hyp or botL closes is proved at once, as the search would
    prove it.  Otherwise a small countermodel is looked for first, of size
    1, and of size 2 when s has an equation, as far as find_countermodel's
    limit lets ``_small_countermodel`` reach.  A
    sequent that has one is not valid, so no search could prove it: the
    model is returned without searching.  The check is made at the root
    only: a model that falsifies a premise falsifies its conclusion, so if
    the root has no small countermodel, no node below it has one.
    Otherwise the bounded backward search decides, and a search that runs
    out of depth leaves the verdict unknown.
    """
    leaf = _closing(s)
    if leaf is not None:
        return Verdict(proof=leaf)
    found = _small_countermodel(s, sig)
    if found is not None:
        return Verdict(countermodel=found)
    return Verdict(proof=_search(s, budget, sig))


def prove(s: Sequent, budget: ProverBudget = ProverBudget(),
          sig: Signature | None = None) -> Proof | None:
    """Bounded backward search over the rules; sound by construction.

    This is ``decide(s, budget, sig).proof``.  None is "not found": a
    refuted sequent and a search that ran out of depth both give None,
    and ``decide`` tells them apart.
    """
    return decide(s, budget, sig).proof


def _small_countermodel(s: Sequent, sig: Signature | None = None
                        ) -> tuple[OrdinaryModel, Valuation] | None:
    """A countermodel of s of size 1, or of size 2, if it has one.

    Both sizes are decided bit-parallel by find_countermodel, with no
    model built before the answer.  Size 2 is searched only when s has an
    equation, since every equation holds in a model of size 1; searching
    it for every sequent made the filters benchmark slower.  How far the
    search reaches is find_countermodel's own limit: COUNTERMODEL_SPACE_LIMIT
    pairs over sizes 1 and 2 together, and MAX_ROWS rows a table.  The
    model is find_countermodel's over sig.  None, without a search, when
    the symbols s uses make no Signature (a name at two arities, or as
    both a function and a predicate) or when find_countermodel refuses a
    size; decide then just searches.
    """
    funcs, preds, has_equation = _symbols(s.left + s.right)
    try:
        return find_countermodel(s, sig, 2 if has_equation else 1,
                                 symbols=(funcs, preds, has_equation))
    except (SearchRefused, ValueError):
        return None


def _closing(sq: Sequent) -> Proof | None:
    """The hyp or botL leaf that closes sq, if one does."""
    if any(map(sq.right.keys.__contains__, sq.left.keys)):
        return Proof("hyp", sq)
    if _BOT_KEY in sq.left.keys:
        return Proof("botL", sq)
    return None


def _search(s: Sequent, budget: ProverBudget, sig: Signature | None) -> Proof | None:
    """The bounded backward search of decide, without its countermodel check.

    No side is keyed from scratch: the root's come keyed with s, and each
    premise's are built from its conclusion's with ``Side.plus`` and
    ``Side.without``, which key just the formulas they add or drop.

    allL instances, eqR equations and eqL rewrites are built and keyed once
    per principal and witness and reused at every node that offers the
    move again; the atoms of each eqL target are gathered once too.  These
    tables are locals of the call and live and die with it.  They are
    keyed by the formulas' identities, not their alpha keys, so that a
    principal's own binder names print, and they hold the formulas, so
    that no id is reused while the call runs.
    """
    sig = sig or Signature((), ())
    universe = default_universe(s, sig)
    memo_ok: dict[tuple, Proof] = {}
    memo_fail: dict[tuple, int] = {}
    refls: list[tuple[Term, Eq, str]] = []
    instances: dict[int, tuple[All, list[tuple[Formula, str]]]] = {}
    rewrites: dict[tuple[int, int, Atom], tuple[Eq, Formula, list]] = {}
    target_atoms: dict[int, tuple[Formula, frozenset[Atom]]] = {}

    def allL_instances(f: All) -> list[tuple[Formula, str]]:
        """(instance, its key) for each universe term, in universe order."""
        got = instances.get(id(f))
        if got is None:
            insts = [subst_formula(f.body, f.binder, r) for r in universe]
            got = instances[id(f)] = (f, [(i, alpha_key(i)) for i in insts])
        return got[1]

    def eqL_hole(blocked: frozenset[Atom], target: Formula) -> Atom:
        """An atom fresh for blocked and for every atom of target."""
        got = target_atoms.get(id(target))
        if got is None:
            got = target_atoms[id(target)] = (target, all_atoms(target))
        return fresh(blocked | got[1])

    def eqL_rewrites(e: Eq, target: Formula, hole: Atom) -> list[tuple[Formula, Formula, str]]:
        """(template, rewritten target, its key) triples, the hole standing for e.rhs."""
        got = rewrites.get((id(e), id(target), hole))
        if got is None:
            every, total = _safe_abstract(target, e.rhs, hole, None)
            # every safe occurrence; from two on, also the first and second alone
            templates = [every] if total else []
            templates += (_safe_abstract(target, e.rhs, hole, {i})[0]
                          for i in range(2 if total >= 2 else 0))
            insts = [subst_formula(t, hole, e.lhs) for t in templates]
            got = rewrites[id(e), id(target), hole] = (e, target, [
                (t, i, alpha_key(i)) for t, i in zip(templates, insts)])
        return got[2]

    def moves(sq: Sequent):
        """Each move as (rule, witnesses, premises), in rule order, built lazily."""
        left, right = sq.left, sq.right
        for f in left:
            if isinstance(f, And):
                yield "andL", (f,), [Sequent(left.without(f).plus(f.lhs, f.rhs), right)]
            elif isinstance(f, Neg):
                yield "negL", (f,), [Sequent(left.without(f), right.plus(f.body))]
        for f in right:
            if isinstance(f, Neg):
                yield "negR", (f,), [Sequent(left.plus(f.body), right.without(f))]
            elif isinstance(f, All):
                c = _allR_witness(sq, f)
                body = act(swap(c, f.binder), f.body)
                yield "allR", (f, c), [Sequent(left, right.without(f).plus(body))]
        for f in right:
            if isinstance(f, And):
                rest = right.without(f)
                yield "andR", (f,), [Sequent(left, rest.plus(f.lhs)),
                                     Sequent(left, rest.plus(f.rhs))]
        for f in left:
            if isinstance(f, All):
                for r, (inst, k) in zip(universe, allL_instances(f)):
                    if k not in left.keys:
                        yield "allL", (f, r), [Sequent(left.plus(inst), right)]
        if not any(isinstance(f, Eq) for f in left + right):
            return
        if not refls:
            for r in universe:
                refl = Eq(r, r)
                refls.append((r, refl, alpha_key(refl)))
        for r, refl, k in refls:
            if k not in left.keys:
                yield "eqR", (r,), [Sequent(left.plus(refl), right)]
        sq_atoms = sq.free_atoms()
        for e in left:
            if not isinstance(e, Eq) or e.lhs == e.rhs:
                continue
            blocked = sq_atoms | free_atoms_term(e.rhs) | free_atoms_term(e.lhs)
            for target in left:
                if target is e:
                    continue
                hole = eqL_hole(blocked, target)
                for template, inst_new, k in eqL_rewrites(e, target, hole):
                    if k not in left.keys:
                        yield "eqL", (e, template, hole), [Sequent(
                            left.without(target).plus(inst_new), right)]

    def search(sq: Sequent, depth: int) -> Proof | None:
        key = sq.key()
        if key in memo_ok:
            p = memo_ok[key]
            return Proof(p.rule, sq, p.witnesses, p.premises)
        leaf = _closing(sq)
        if leaf is not None:
            memo_ok[key] = leaf
            return leaf
        if depth <= 0 or memo_fail.get(key, -1) >= depth:
            return None
        for rule, wits, prems in itertools.islice(moves(sq), MAX_BRANCHING):
            subproofs = []
            for prem in prems:
                sub = search(prem, depth - 1)
                if sub is None:
                    break
                subproofs.append(sub)
            else:
                proof = Proof(rule, sq, wits, tuple(subproofs))
                memo_ok[key] = proof
                return proof
        memo_fail[key] = depth
        return None

    proof = search(s, budget.max_depth)
    # search refers to itself, so the call's tables would wait for the cycle
    # collector; dropping the name frees them now
    del search
    return proof


COUNTERMODEL_SPACE_LIMIT = 10 ** 6


def _atomic(formulas: Iterable[Formula]) -> Iterator[Formula]:
    """The atomic subformulas of formulas, left to right: equations, predicates and bottom."""
    todo = list(formulas)[::-1]
    while todo:
        f = todo.pop()
        if isinstance(f, And):
            todo += (f.rhs, f.lhs)
        elif isinstance(f, (Neg, All)):
            todo.append(f.body)
        else:
            yield f


def formula_terms(formulas: Iterable[Formula]) -> Iterator[Term]:
    """The subterms of the atoms of formulas, left to right, each before its arguments."""
    for f in _atomic(formulas):
        args = (f.lhs, f.rhs) if isinstance(f, Eq) else f.args if isinstance(f, Pred) else ()
        for t in args:
            yield from subterms(t)


def _symbols(formulas: Iterable[Formula]
             ) -> tuple[set[tuple[str, int]], set[tuple[str, int]], bool]:
    """(funcs, preds, has_equation): the symbols formulas use, from one walk.

    funcs and preds are (name, arity) pairs; has_equation is whether
    formulas have an equation.
    """
    atomic = list(_atomic(formulas))
    funcs = {(t.fn, len(t.args)) for t in formula_terms(atomic) if isinstance(t, App)}
    preds = {(f.name, len(f.args)) for f in atomic if isinstance(f, Pred)}
    return funcs, preds, any(isinstance(f, Eq) for f in atomic)


def _size_space(functions: Iterable[tuple[str, int]], predicates: Iterable[tuple[str, int]],
                n_free: int, k: int) -> int | float:
    """The (model, valuation) pairs of size k, or its log10 from 10**29 up."""
    lk = math.log10(k)
    try:
        digits = (n_free * lk + sum(float(k) ** ar * lk for _, ar in functions)
                  + sum(float(k) ** ar * math.log10(2) for _, ar in predicates))
    except OverflowError:
        return math.inf
    if digits >= 29:
        return digits
    n = k ** n_free
    for _, ar in functions:
        n *= k ** (k ** ar)
    for _, ar in predicates:
        n *= 2 ** (k ** ar)
    return n


def _count(n: int | float) -> str:
    """n in full, or as mantissa and exponent once it has 30 digits or more.

    A float n is already the log10 of the count.
    """
    if isinstance(n, int):
        if n < 10 ** 29:
            return str(n)
        n = math.log10(n)
    if math.isinf(n):
        return "inf"
    return f"{10 ** (n % 1):.2f}e{int(n)}"


class SearchRefused(Exception):
    """Sizes 1 to k hold more (model, valuation) pairs than COUNTERMODEL_SPACE_LIMIT.

    Or a model of size k would hold a table past MAX_ROWS; the message
    states k and the count or the rows.
    """


def _digit_masks(radices: list[int]) -> list[list[int]]:
    """Each digit's nonzero values across the numerals over radices, as bits.

    Index i is a mixed-radix numeral whose j-th digit has radix
    radices[j], the first digit the most significant.  Bit i of the
    (v - 1)-th int of the j-th list is set when digit j of i is v.  Each
    digit's mask for 1 repeats a block of zeros and ones by
    shift-doubling, not by dividing a big int; its mask for v is that
    mask shifted up by v - 1 times the digit's place value.
    """
    n = math.prod(radices)
    full, w, out = (1 << n) - 1, n, []
    for r in radices:
        w //= r  # the digit's place value
        m, span = ((1 << w) - 1) << w, w * r
        while span < n:
            m |= m << span
            span *= 2
        if span > n:
            m &= full
        out.append([m] + [m << (v * w) for v in range(1, r - 1)])
    return out


def _lowest(s: Sequent, truth: Callable[[Formula], int], full: int) -> int | None:
    """The lowest index where every left formula of s is true and every right one false.

    truth(f) is f's truth as bits over the indices of full's bits.  Every
    left formula's truth is ANDed in and every right formula's
    complement, stopping once no index is left; None then.  The
    complement of x is ``full ^ x``, which keeps every int nonnegative,
    and so cheaper than ``~x``.
    """
    rest = full
    for flip, formulas in ((0, s.left), (full, s.right)):
        for f in formulas:
            rest &= truth(f) ^ flip
            if not rest:
                return None
    return (rest & -rest).bit_length() - 1


def _truth_bits(f: Formula, masks: dict[str, int], full: int) -> int:
    """f's truth in the size-1 models, as bits over the assignments of masks.

    In a model of size 1 every term is 0, so every equation holds, a
    quantifier is its body, and a predicate reads its one row.  full has
    a bit for every assignment.
    """
    if isinstance(f, Pred):
        return masks[f.name]
    if isinstance(f, And):
        return _truth_bits(f.lhs, masks, full) & _truth_bits(f.rhs, masks, full)
    if isinstance(f, Neg):
        return full ^ _truth_bits(f.body, masks, full)
    if isinstance(f, All):
        return _truth_bits(f.body, masks, full)
    return full if isinstance(f, Eq) else 0


def _size_1_tables(s: Sequent, preds: tuple[tuple[str, int], ...], free: tuple[Atom, ...]
                   ) -> tuple[dict, dict[str, tuple[bool]], Valuation] | None:
    """The tables and valuation of s's first countermodel of size 1, or None.

    preds are the predicates s uses, in iter_models order.  Each formula
    is evaluated once as an int whose bits are the predicate assignments,
    assignment i the binary numeral of i, predicate 0 the most
    significant.  iter_models tries False before True, predicate by
    predicate, so it reaches the assignments in numeral order: the lowest
    one left is its first countermodel.  The valuation is all 0.
    """
    p = len(preds)
    masks = {name: m for (name, _), (m,) in zip(preds, _digit_masks([2] * p))}
    full = (1 << (1 << p)) - 1
    i = _lowest(s, lambda f: _truth_bits(f, masks, full), full)
    if i is None:
        return None
    return ({}, {name: (i >> (p - 1 - j) & 1 == 1,) for j, (name, _) in enumerate(preds)},
            Valuation(dict.fromkeys(free, 0), 0))


def _read_row(rows: list[list[int]], args: list[list[int]], k: int, full: int) -> list[int]:
    """Where a symbol with these rows takes each nonzero value, at these arguments.

    rows[r] holds, for each nonzero value v, the pairs where row r of the
    symbol's table is v; an argument holds the same for a term, and its
    value 0 is the complement of the union of the others.  Row r is read
    where the arguments spell r in base k, the first argument the most
    significant digit: the pairs that select each row are built argument
    by argument, keeping only the rows some pair selects, and each
    selected row's values, ANDed with its pairs, are ORed.
    """
    select = [(0, full)]
    for x in args:
        zero = full
        for m in x:
            zero ^= m  # the values are disjoint, so XOR is union
        values = [(0, zero), *enumerate(x, 1)]
        select = [(r * k + v, both) for r, pairs in select for v, m in values
                  if (both := pairs & m)]
    if select[0][1] == full:  # one row in every pair
        return rows[select[0][0]]
    out = [0] * len(rows[0])
    for r, pairs in select:
        out = [o | m & pairs for o, m in zip(out, rows[r])]
    return out


def _term_bits_k(t: Term, rows: dict[str, list[list[int]]], env: dict[Atom, list[int]],
                 k: int, full: int) -> list[int]:
    """The pairs where t is each nonzero value, as bits; env holds the atoms' values."""
    if isinstance(t, Var):
        return env[t.atom]
    return _read_row(rows[t.fn], [_term_bits_k(u, rows, env, k, full) for u in t.args], k, full)


def _truth_bits_k(f: Formula, rows: dict[str, list[list[int]]], env: dict[Atom, list[int]],
                  k: int, full: int) -> int:
    """f's truth across the (model, valuation) pairs of size k, as bits.

    env maps each free atom to its digit masks, and each bound atom to
    one value in every pair.  An equation holds where no nonzero value
    is taken by one side only, and a quantifier ANDs its body at each of
    the k values.
    """
    if isinstance(f, Pred):
        return _read_row(rows[f.name], [_term_bits_k(t, rows, env, k, full) for t in f.args],
                         k, full)[0]
    if isinstance(f, And):
        lhs = _truth_bits_k(f.lhs, rows, env, k, full)
        return lhs and lhs & _truth_bits_k(f.rhs, rows, env, k, full)
    if isinstance(f, Neg):
        return full ^ _truth_bits_k(f.body, rows, env, k, full)
    if isinstance(f, All):
        out = full
        for v in range(k):
            value = [full if w == v else 0 for w in range(1, k)]
            out &= _truth_bits_k(f.body, rows, {**env, f.binder: value}, k, full)
            if not out:
                break
        return out
    if isinstance(f, Eq):
        differ = 0
        for x, y in zip(_term_bits_k(f.lhs, rows, env, k, full),
                        _term_bits_k(f.rhs, rows, env, k, full)):
            differ |= x ^ y
        return full ^ differ
    return 0


def _size_k_tables(s: Sequent, functions: tuple[tuple[str, int], ...],
                   predicates: tuple[tuple[str, int], ...], free: tuple[Atom, ...], k: int
                   ) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[bool, ...]],
                              Valuation] | None:
    """The tables and valuation of s's first countermodel of size k >= 2, or None.

    functions and predicates hold the (name, arity) pairs s uses, in
    iter_models order.  A (model, valuation) pair's index is a mixed-radix
    numeral with one digit per row of their tables, base k for a
    function's and base 2 for a predicate's, the functions' rows first,
    then the predicates', in that order and row-major, and then one digit
    of base k per free atom, in order; the first digit is the most
    significant.  iter_models tries tables in lexicographic order, 0
    (false) first, and every valuation is tried in order within a model,
    so the pairs are reached in the order of their indices.  Each formula
    of s is evaluated once, as an int whose bits are the pairs
    (``_truth_bits_k``), and the lowest pair left is the first
    countermodel.
    """
    radices = ([k] * sum(k ** ar for _, ar in functions)
               + [2] * sum(k ** ar for _, ar in predicates) + [k] * len(free))
    masks = iter(_digit_masks(radices))
    rows = {name: [next(masks) for _ in range(k ** ar)]
            for name, ar in functions + predicates}
    env = dict(zip(free, masks))
    full = (1 << math.prod(radices)) - 1
    i = _lowest(s, lambda f: _truth_bits_k(f, rows, env, k, full), full)
    if i is None:
        return None
    digits = []
    for r in reversed(radices):
        i, d = divmod(i, r)
        digits.append(d)
    digits = iter(digits[::-1])
    funcs = {name: tuple(next(digits) for _ in range(k ** ar)) for name, ar in functions}
    preds = {name: tuple(next(digits) == 1 for _ in range(k ** ar))
             for name, ar in predicates}
    return funcs, preds, Valuation(dict(zip(free, digits)), 0)


def _padded(sig: Signature, k: int, funcs: dict[str, tuple[int, ...]],
            preds: dict[str, tuple[bool, ...]]) -> OrdinaryModel:
    """The model of size k over sig with these tables, and all 0 or all false for the rest."""
    funcs = {**{name: (0,) * k ** ar for name, ar in sig.functions}, **funcs}
    preds = {**{name: (False,) * k ** ar for name, ar in sig.predicates}, **preds}
    return OrdinaryModel(sig, k, funcs, preds)


def find_countermodel(s: Sequent, sig: Signature | None, max_k: int, *,
                      symbols: tuple[set[tuple[str, int]], set[tuple[str, int]], bool]
                      | None = None) -> tuple[OrdinaryModel, Valuation] | None:
    """Exhaustive deterministic search for a falsifying model and valuation.

    The model is over sig when sig has every symbol s uses, and otherwise
    (sig may be None) over just those symbols, sorted by name; ValueError,
    before any search, when they make no Signature.  symbols is
    ``_symbols`` of s's formulas, for a caller that has walked them
    already.  Sizes are searched in order, and each is checked just
    before it is searched: the first size that takes the running count
    past the limit, or whose model would hold a table of more than
    MAX_ROWS rows, raises SearchRefused.  Only the symbols that occur in s
    are enumerated; every other symbol keeps its first table in
    iter_models order (all 0, all false).  Such a symbol cannot change the
    verdict, so the result is the first countermodel of an enumeration of
    the whole signature.

    Size 1 is decided bit-parallel, with no model built.  There every
    function is constant, every equation holds and a quantifier is its
    body, so s is a propositional formula over the p predicates it uses.
    Each formula of s is evaluated once, as an int whose 2**p bits are the
    predicate assignments (``_size_1_tables``); the lowest assignment left
    is the one iter_models reaches first, and the valuation is all 0.  At
    p = 19, the most the limit lets through, that takes about 1 ms.

    From size 2 each formula of s is evaluated once too, as an int with
    one bit per (model, valuation) pair (``_size_k_tables``).  A pair's
    index is a mixed-radix numeral: one digit per row of the used
    symbols' tables, base k for a function's and base 2 for a
    predicate's, functions first, then predicates, in used order and
    row-major, and then one digit of base k per free atom; the first
    digit is the most significant.  That is the order of the
    model-by-valuation loop over iter_models, so the lowest bit left is
    its first countermodel.  A term is k - 1 ints, the pairs where it is
    1 to k - 1; it is 0 in the rest.  The running count is within the
    limit, so an int holds at most COUNTERMODEL_SPACE_LIMIT bits (125 KB).
    """
    fs, ps, _ = _symbols(s.left + s.right) if symbols is None else symbols
    if sig is None or not (fs <= set(sig.functions) and ps <= set(sig.predicates)):
        sig = Signature(tuple(sorted(fs)), tuple(sorted(ps)))
        used = sig.functions, sig.predicates
    else:
        used = (tuple(x for x in sig.functions if x in fs),
                tuple(x for x in sig.predicates if x in ps))
    free = tuple(sorted(s.free_atoms()))
    total = 0
    for k in range(1, max_k + 1):
        n = _size_space(*used, len(free), k)
        # the total so far is within the limit: beside 10**29 it is lost
        total = n if isinstance(n, float) else total + n
        if isinstance(total, float) or total > COUNTERMODEL_SPACE_LIMIT:
            raise SearchRefused(f"search space {_count(total)} at size {k} "
                                f"exceeds {COUNTERMODEL_SPACE_LIMIT}")
        for name, ar in sig.functions + sig.predicates:
            if k ** ar > MAX_ROWS:
                raise SearchRefused(f"table of {k ** ar} rows for {name} "
                                    f"at size {k} exceeds limit {MAX_ROWS}")
        found = (_size_1_tables(s, used[1], free) if k == 1
                 else _size_k_tables(s, *used, free, k))
        if found is not None:
            funcs, preds, vs = found
            return _padded(sig, k, funcs, preds), vs
    return None


class CountermodelError(Exception):
    """A countermodel that standard_eval finds does not falsify its sequent.

    The countermodel search is then at fault, not its input.
    """


def check_countermodel(s: Sequent, found: tuple[OrdinaryModel, Valuation]) -> None:
    """Raise CountermodelError unless found makes s's left true and its right false.

    Each formula of s is evaluated once with standard_eval, on the model
    and valuation found.  find_countermodel and decide's guard decide on
    bits and never evaluate a model; this check is made where a
    countermodel leaves the library: the CLI's printed models and
    herbrand_equiv's distinct answer.
    """
    model, vs = found
    for want, formulas in ((True, s.left), (False, s.right)):
        for f in formulas:
            if standard_eval(f, model, vs) != want:
                raise CountermodelError(
                    f"countermodel of size {model.k} makes {pretty(f)} "
                    f"{'false' if want else 'true'} in {format_sequent(s)}")


# ----------------------------------------------- forward generation

def _random_context(sig: Signature, rng, pool) -> list[Formula]:
    out = []
    for _ in range(rng.randint(0, 2)):
        out.append(random_formula(sig, rng, pool, rng.randint(0, 2)))
    return out


def _leaf(sig: Signature, rng, pool) -> Proof:
    roll = rng.random()
    left = _random_context(sig, rng, pool)
    right = _random_context(sig, rng, pool)
    if roll < 0.15:
        return Proof("botL", sequent(left + [BOT], right))
    chi = random_formula(sig, rng, pool, rng.randint(0, 2))
    if roll < 0.35:
        # seed an equation so the forward equality rules can fire
        r = random_term(sig, rng, pool, 1)
        left.append(Eq(r, r))
    return Proof("hyp", sequent(left + [chi], right + [chi]))


def _forward_step(p: Proof, sig: Signature, rng, pool) -> Proof | None:
    s = p.conclusion
    moves = ["andL", "negL", "negR", "andR", "allR", "allL", "eqR", "eqL"]
    rng.shuffle(moves)
    for rule in moves:
        if rule == "andL" and len(s.left) >= 1:
            f1, f2 = rng.choice(s.left), rng.choice(s.left)
            conc = sequent(tuple(f for f in s.left
                                 if f is not f1 and f is not f2) + (And(f1, f2),),
                           s.right)
            return Proof("andL", conc, (And(f1, f2),), (p,))
        if rule == "negL" and s.right:
            psi = rng.choice(s.right)
            conc = sequent(s.left + (Neg(psi),), s.right.without(psi))
            return Proof("negL", conc, (Neg(psi),), (p,))
        if rule == "negR" and s.left:
            phi = rng.choice(s.left)
            conc = sequent(s.left.without(phi), s.right + (Neg(phi),))
            return Proof("negR", conc, (Neg(phi),), (p,))
        if rule == "andR" and s.right:
            psi1 = rng.choice(s.right)
            rest = s.right.without(psi1)
            if s.left.has(BOT):
                psi2 = random_formula(sig, rng, pool, 1)
                second = Proof("botL", sequent(s.left, rest + (psi2,)))
            elif s.left:
                # putting a left formula on the right closes by hyp
                psi2 = rng.choice(s.left)
                second = Proof("hyp", sequent(s.left, rest + (psi2,)))
            else:
                psi2 = psi1
                second = p
            conc = sequent(s.left, rest + (And(psi1, psi2),))
            return Proof("andR", conc, (And(psi1, psi2),), (p, second))
        if rule == "allR" and s.right:
            psi = rng.choice(s.right)
            blocked = _allR_context(s, psi)
            options = [a for a in free_atoms(psi) if a not in blocked]
            a = rng.choice(options) if options else fresh(blocked | free_atoms(psi))
            conc = sequent(s.left, s.right.without(psi) + (All(a, psi),))
            return Proof("allR", conc, (All(a, psi), a), (p,))
        if rule == "allL" and s.left:
            xi = rng.choice(s.left)
            cands = list(formula_terms((xi,)))
            if not cands:
                continue
            r = rng.choice(cands)
            hole = fresh(s.free_atoms() | all_atoms(xi) | free_atoms_term(r))
            template, total = _safe_abstract(xi, r, hole, None)
            if total == 0:
                continue
            principal = All(hole, template)
            conc = sequent(s.left.without(xi) + (principal,), s.right)
            return Proof("allL", conc, (principal, r), (p,))
        if rule == "eqR":
            refl = [f for f in s.left if isinstance(f, Eq) and f.lhs == f.rhs]
            if not refl:
                continue
            e = rng.choice(refl)
            conc = sequent(s.left.without(e), s.right)
            return Proof("eqR", conc, (e.lhs,), (p,))
        if rule == "eqL":
            eqs = [f for f in s.left if isinstance(f, Eq) and f.lhs != f.rhs]
            others = [f for f in s.left if not (isinstance(f, Eq) and f.lhs != f.rhs)]
            if not eqs or not others:
                continue
            e = rng.choice(eqs)
            xi = rng.choice(others)
            hole = fresh(s.free_atoms() | all_atoms(xi)
                         | free_atoms_term(e.lhs) | free_atoms_term(e.rhs))
            template, total = _safe_abstract(xi, e.lhs, hole, None)
            if total == 0:
                continue
            inst_old = subst_formula(template, hole, e.rhs)
            conc = sequent(s.left.without(xi) + (inst_old,), s.right)
            return Proof("eqL", conc, (e, template, hole), (p,))
    return None


def generate_derivable(sig: Signature, seed: int, steps: int,
                       pool: tuple[Atom, ...] | None = None) -> list[tuple[Sequent, Proof]]:
    """Leaves plus forward rule applications; every pair checks."""
    rng = random.Random(seed)
    pool = pool or atoms(0, 1, 2)
    p = _leaf(sig, rng, pool)
    out = [(p.conclusion, p)]
    for _ in range(steps):
        nxt = _forward_step(p, sig, rng, pool)
        if nxt is None:
            break
        p = nxt
        out.append((p.conclusion, p))
    return out


# ------------------------------------------------------------ herbrand

@dataclass(frozen=True)
class HerbrandResult:
    status: str  # equivalent | distinct | unknown
    countermodel: tuple[OrdinaryModel, Valuation] | None = None


def herbrand_equiv(phi: Formula, psi: Formula, sig: Signature,
                   budget: ProverBudget = ProverBudget(),
                   max_k: int = 2) -> HerbrandResult:
    """Interprovability, refutation by countermodel, or unknown.

    Each direction, phi |- psi and psi |- phi, gets a ``decide`` verdict.
    Both proved is equivalent.  A refuted direction, the forward one first,
    is distinct with its model.  Only a direction left unknown is searched
    for a countermodel up to max_k over sig; a refused search leaves that
    direction unknown, and unknown is the answer when no direction is
    refuted.  A distinct answer's model is re-checked by
    check_countermodel, which raises CountermodelError if it fails.
    """
    directions = (sequent([phi], [psi]), sequent([psi], [phi]))
    verdicts = [decide(s, budget, sig) for s in directions]
    if all(v.proof is not None for v in verdicts):
        return HerbrandResult("equivalent")
    for s, v in zip(directions, verdicts):
        if v.countermodel is not None:
            check_countermodel(s, v.countermodel)
            return HerbrandResult("distinct", v.countermodel)
    for s, v in zip(directions, verdicts):
        if v.proof is None:
            try:
                found = find_countermodel(s, sig, max_k)
            except SearchRefused:
                continue
            if found is not None:
                check_countermodel(s, found)
                return HerbrandResult("distinct", found)
    return HerbrandResult("unknown")


# -------------------------------------------------------- serialisation

def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_proof(p: Proof) -> str:
    parts = [p.rule, _quote(format_sequent(p.conclusion))]
    parts += (_quote(_KINDS[k][1](w))
              for k, w in zip(_RULES[p.rule][1], p.witnesses, strict=True))
    parts += map(format_proof, p.premises)
    return "(" + " ".join(parts) + ")"


# a parenthesis, a quoted string with backslash escapes, a symbol, a stray quote
_TOKEN = re.compile(r'([()])|"((?:[^"\\]|\\.)*)"|([^\s()"]+)|(")', re.S)


def _sexpr_tokens(text: str) -> list[tuple[str, str]]:
    found = _TOKEN.findall(text)
    if any(stray for *_, stray in found):
        raise SyntaxError_("unterminated string in proof file")
    return [(paren, paren) if paren else ("sym", sym) if sym
            else ("str", re.sub(r"\\(.)", r"\1", string, flags=re.S))
            for paren, string, sym, _ in found]


def parse_proof(text: str, sig: Signature) -> Proof:
    toks = _sexpr_tokens(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else ("eof", "")

    def take(kind):
        k, v = peek()
        if k != kind:
            raise SyntaxError_(f"expected {kind} in proof, got {v!r}")
        pos[0] += 1
        return v

    def node(depth: int) -> Proof:
        if depth > MAX_NESTING:
            raise LimitExceeded(f"proof nesting deeper than {MAX_NESTING}")
        take("(")
        rule = take("sym")
        if rule not in _RULES:
            raise SyntaxError_(f"unknown rule {rule!r} in proof")
        conclusion_text = take("str")
        kinds = _RULES[rule][1]
        raws = [take("str") for _ in kinds]
        # atom witnesses are canonical names, read without the atom map
        read = iter(parse_shared([("sides", conclusion_text)] + [
            (_KINDS[k][2], r) for k, r in zip(kinds, raws) if k != "a"], sig))
        conclusion = sequent(*next(read))
        wits = tuple(_read_atom(r) if k == "a" else next(read)
                     for k, r in zip(kinds, raws))
        premises = []
        while peek()[0] == "(":
            premises.append(node(depth + 1))
        take(")")
        return Proof(rule, conclusion, wits, tuple(premises))

    p = node(1)
    if peek()[0] != "eof":
        raise SyntaxError_("trailing input after proof")
    return p
