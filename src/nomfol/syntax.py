"""First-order syntax: signatures, terms, predicates, parser and printer.

Binders are named atoms; alpha-equivalence and capture-avoiding
substitution do the renaming on demand, always choosing the lowest fresh
atom so results are reproducible.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .nominal import Atom, Perm, act, fresh, swap


class SyntaxError_(ValueError):
    """Lexing, parsing or arity error, with position information."""


class LimitExceeded(SyntaxError_):
    """Input refused because it is nested too deeply or expands too far."""


# Symbol names are identifiers that are neither keywords nor atom names.
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_KEYWORDS = ("forall", "bottom", "top")


@dataclass(frozen=True)
class Signature:
    functions: tuple[tuple[str, int], ...]
    predicates: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.functions] + [n for n, _ in self.predicates]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol name in signature")
        for n, ar in self.functions + self.predicates:
            if ar < 0:
                raise ValueError(f"negative arity for {n}")
            if not _IDENT.fullmatch(n):
                raise ValueError(f"symbol {n!r} is not an identifier {_IDENT.pattern}")
            if n in _KEYWORDS:
                raise ValueError(f"symbol {n!r} is a keyword")
            if atom_id(n) is not None:
                raise ValueError(f"symbol {n!r} is a canonical atom name")

    def fun_arity(self, name: str) -> int | None:
        for n, ar in self.functions:
            if n == name:
                return ar
        return None

    def pred_arity(self, name: str) -> int | None:
        for n, ar in self.predicates:
            if n == name:
                return ar
        return None

    def constants(self) -> list[str]:
        return [n for n, ar in self.functions if ar == 0]


def is_decimal(v: str) -> bool:
    """Whether v is a nonempty run of ASCII digits: a number in a signature or model file."""
    return v.isascii() and v.isdigit()


def atom_id(name: str) -> int | None:
    """K when name is the canonical atom name aK, K in ASCII digits; else None."""
    return int(name[1:]) if name[:1] == "a" and is_decimal(name[1:]) else None


def parse_signature(text: str) -> Signature:
    """Parse signature file lines: ``fun name arity`` / ``pred name arity``."""
    funs, preds = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("fun", "pred"):
            raise SyntaxError_(f"line {lineno}: expected 'fun|pred name arity'")
        name, arity = parts[1], parts[2]
        if not is_decimal(arity):
            raise SyntaxError_(f"line {lineno}: bad arity {arity!r}")
        (funs if parts[0] == "fun" else preds).append((name, int(arity)))
    return Signature(tuple(funs), tuple(preds))


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Term:
    def __repr__(self):
        return pretty_term(self)


@dataclass(frozen=True, repr=False)
class Var(Term):
    atom: Atom

    def _act_(self, pi: Perm) -> "Var":
        return Var(pi(self.atom))

    def _support_(self) -> frozenset[Atom]:
        return frozenset((self.atom,))


@dataclass(frozen=True, repr=False)
class App(Term):
    fn: str
    args: tuple[Term, ...]

    def _act_(self, pi: Perm) -> "App":
        return App(self.fn, tuple(act(pi, t) for t in self.args))

    def _support_(self) -> frozenset[Atom]:
        out: frozenset[Atom] = frozenset()
        for t in self.args:
            out |= t._support_()
        return out


def free_atoms_term(t: Term) -> frozenset[Atom]:
    return t._support_()


def subst_term(t: Term, a: Atom, r: Term) -> Term:
    if isinstance(t, Var):
        return r if t.atom == a else t
    return App(t.fn, tuple(subst_term(s, a, r) for s in t.args))


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for s in t.args:
            yield from subterms(s)


# ------------------------------------------------------------- formulas

@dataclass(frozen=True)
class Formula:
    """Base of the formula nodes.

    A node computes its alpha key and its free atoms on first request and
    keeps them in two fields that take no part in equality or hashing.
    """

    _key: str | None = field(default=None, init=False, repr=False, compare=False)
    _free: frozenset[Atom] | None = field(default=None, init=False, repr=False,
                                          compare=False)

    def __repr__(self):
        return pretty(self)


@dataclass(frozen=True, repr=False)
class Bot(Formula):
    def _act_(self, pi):
        return self

    def _support_(self):
        return frozenset()


@dataclass(frozen=True, repr=False)
class Eq(Formula):
    lhs: Term
    rhs: Term

    def _act_(self, pi):
        return Eq(act(pi, self.lhs), act(pi, self.rhs))

    def _support_(self):
        return self.lhs._support_() | self.rhs._support_()


@dataclass(frozen=True, repr=False)
class Pred(Formula):
    name: str
    args: tuple[Term, ...]

    def _act_(self, pi):
        return Pred(self.name, tuple(act(pi, t) for t in self.args))

    def _support_(self):
        out: frozenset[Atom] = frozenset()
        for t in self.args:
            out |= t._support_()
        return out


@dataclass(frozen=True, repr=False)
class And(Formula):
    lhs: Formula
    rhs: Formula

    def _act_(self, pi):
        return And(act(pi, self.lhs), act(pi, self.rhs))

    def _support_(self):
        return free_atoms(self.lhs) | free_atoms(self.rhs)


@dataclass(frozen=True, repr=False)
class Neg(Formula):
    body: Formula

    def _act_(self, pi):
        return Neg(act(pi, self.body))

    def _support_(self):
        return free_atoms(self.body)


@dataclass(frozen=True, repr=False)
class All(Formula):
    binder: Atom
    body: Formula

    def _act_(self, pi):
        return All(pi(self.binder), act(pi, self.body))

    def _support_(self):
        return free_atoms(self.body) - {self.binder}


BOT = Bot()
TOP = Neg(BOT)


def Or(a: Formula, b: Formula) -> Formula:
    return Neg(And(Neg(a), Neg(b)))


def Imp(a: Formula, b: Formula) -> Formula:
    return Or(Neg(a), b)


def Iff(a: Formula, b: Formula) -> Formula:
    return And(Imp(a, b), Imp(b, a))


def free_atoms(phi: Formula) -> frozenset[Atom]:
    """Free atoms; equals the nominal support of the alpha-class."""
    out = phi._free
    if out is None:
        out = phi._support_()
        object.__setattr__(phi, "_free", out)
    return out


def all_atoms(phi: Formula) -> frozenset[Atom]:
    """Every atom occurring in the tree, binders and bound occurrences included."""
    if isinstance(phi, (Bot, Eq, Pred)):
        return phi._support_()
    if isinstance(phi, And):
        return all_atoms(phi.lhs) | all_atoms(phi.rhs)
    if isinstance(phi, Neg):
        return all_atoms(phi.body)
    if isinstance(phi, All):
        return all_atoms(phi.body) | {phi.binder}
    raise TypeError(f"not a formula: {phi!r}")


def subst_formula(phi: Formula, a: Atom, r: Term) -> Formula:
    """Capture-avoiding substitution of the term r for the atom a.

    Clashing binders are renamed, by a swap, to the lowest atom fresh for
    (body, r, a), so outputs are canonical.
    """
    if isinstance(phi, Bot):
        return phi
    if isinstance(phi, Eq):
        return Eq(subst_term(phi.lhs, a, r), subst_term(phi.rhs, a, r))
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(subst_term(t, a, r) for t in phi.args))
    if isinstance(phi, And):
        return And(subst_formula(phi.lhs, a, r), subst_formula(phi.rhs, a, r))
    if isinstance(phi, Neg):
        return Neg(subst_formula(phi.body, a, r))
    if isinstance(phi, All):
        b, body = phi.binder, phi.body
        if b == a:
            return phi
        if a not in free_atoms(body):
            return phi
        if b in free_atoms_term(r):
            b2 = fresh(free_atoms(body) | free_atoms_term(r) | {a})
            body = act(swap(b, b2), body)
            b = b2
        return All(b, subst_formula(body, a, r))
    raise TypeError(f"not a formula: {phi!r}")


def alpha_eq(phi: Formula, psi: Formula) -> bool:
    """Alpha-equivalence, deciding binders at a common fresh atom."""
    if type(phi) is not type(psi):
        return False
    if isinstance(phi, Bot):
        return True
    if isinstance(phi, (Eq, Pred)):
        return phi == psi
    if isinstance(phi, And):
        return alpha_eq(phi.lhs, psi.lhs) and alpha_eq(phi.rhs, psi.rhs)
    if isinstance(phi, Neg):
        return alpha_eq(phi.body, psi.body)
    if isinstance(phi, All):
        if free_atoms(phi) != free_atoms(psi):
            return False
        if phi.binder == psi.binder:
            return alpha_eq(phi.body, psi.body)
        c = fresh(free_atoms(phi.body) | free_atoms(psi.body) | {phi.binder, psi.binder})
        return alpha_eq(act(swap(c, phi.binder), phi.body), act(swap(c, psi.binder), psi.body))
    raise TypeError(f"not a formula: {phi!r}")


def alpha_key(phi: Formula) -> str:
    """A string key equal on exactly the alpha-equivalence class of phi.

    Bound atoms are written as the depth of their binder and free atoms by
    index, so the key also fixes the order of formulas in a sequent.  Each
    node walks its tree once, on the first request.
    """
    key = phi._key
    if key is None:
        key = _alpha_key_walk(phi)
        object.__setattr__(phi, "_key", key)
    return key


def _alpha_key_walk(phi: Formula) -> str:
    parts: list[str] = []

    def term(t: Term, env: dict[Atom, int]) -> None:
        if isinstance(t, Var):
            i = env.get(t.atom)
            parts.append(f"b{i}" if i is not None else f"f{t.atom.id}")
        else:
            parts.append(t.fn)
            parts.append("(")
            for s in t.args:
                term(s, env)
                parts.append(",")
            parts.append(")")

    def go(f: Formula, env: dict[Atom, int], depth: int) -> None:
        if isinstance(f, Bot):
            parts.append("F")
        elif isinstance(f, Eq):
            parts.append("=")
            term(f.lhs, env)
            parts.append(",")
            term(f.rhs, env)
        elif isinstance(f, Pred):
            parts.append("@" + f.name)
            parts.append("(")
            for t in f.args:
                term(t, env)
                parts.append(",")
            parts.append(")")
        elif isinstance(f, And):
            parts.append("&(")
            go(f.lhs, env, depth)
            parts.append(")(")
            go(f.rhs, env, depth)
            parts.append(")")
        elif isinstance(f, Neg):
            parts.append("!(")
            go(f.body, env, depth)
            parts.append(")")
        elif isinstance(f, All):
            parts.append("A(")
            env2 = dict(env)
            env2[f.binder] = depth
            go(f.body, env2, depth + 1)
            parts.append(")")
        else:
            raise TypeError(f"not a formula: {f!r}")

    go(phi, {}, 0)
    return "".join(parts)


# ------------------------------------------------------------ printing

# precedence levels: forall 0 < eq 1 < and 4 < neg 5 < atomic 6
def pretty_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.atom.name
    if not t.args:
        return t.fn
    return f"{t.fn}({', '.join(pretty_term(s) for s in t.args)})"


def _level(phi: Formula) -> int:
    if isinstance(phi, All):
        return 0
    if isinstance(phi, Eq):
        return 1
    if isinstance(phi, And):
        return 4
    if isinstance(phi, Neg):
        return 5
    return 6


def _pp(phi: Formula, min_level: int) -> str:
    if isinstance(phi, Bot):
        s = "bottom"
    elif isinstance(phi, Pred):
        s = f"{phi.name}({', '.join(map(pretty_term, phi.args))})" if phi.args else phi.name
    elif isinstance(phi, Eq):
        s = f"{pretty_term(phi.lhs)} = {pretty_term(phi.rhs)}"
    elif isinstance(phi, And):
        s = f"{_pp(phi.lhs, 4)} /\\ {_pp(phi.rhs, 5)}"
    elif isinstance(phi, Neg):
        s = f"~{_pp(phi.body, 5)}"
    elif isinstance(phi, All):
        s = f"forall {phi.binder.name}. {_pp(phi.body, 0)}"
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if _level(phi) < min_level:
        return f"({s})"
    return s


def pretty(phi: Formula) -> str:
    return _pp(phi, 0)


# ------------------------------------------------------------- parsing

_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<lpar>\()|(?P<rpar>\))|(?P<comma>,)|(?P<dot>\.)"
    r"|(?P<turnstile>\|-)|(?P<and>/\\)|(?P<or>\\/)|(?P<iff><->)|(?P<imp>->)"
    rf"|(?P<neg>~)|(?P<eq>=)|(?P<ident>{_IDENT.pattern})|(?P<bad>.)"
)


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, position) tokens of text, read in one pass."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind, val = m.lastgroup, m.group()
        if kind == "bad":
            raise SyntaxError_(f"unexpected character at {m.start()}: {val!r}")
        if kind != "space":
            toks.append((val if kind == "ident" and val in _KEYWORDS else kind,
                         val, m.start()))
    return toks


def _atom_map(toks: Iterable[tuple[str, str, int]], sig: Signature) -> dict[str, int]:
    """One name-to-atom assignment for the identifiers among toks.

    Canonical names aK map to K; other undeclared identifiers get the
    lowest unused indices in order of first appearance.
    """
    names = [val for kind, val, _ in toks if kind == "ident"
             and sig.fun_arity(val) is None and sig.pred_arity(val) is None]
    mapping: dict[str, int] = {}
    used: set[int] = set()
    for n in names:
        i = atom_id(n)
        if i is not None and n not in mapping:
            mapping[n] = i
            used.add(i)
    nxt = 0
    for n in names:
        if n not in mapping:
            while nxt in used:
                nxt += 1
            mapping[n] = nxt
            used.add(nxt)
    return mapping


MAX_NESTING = 100
MAX_FORMULA_NODES = 10_000

# binary connectives, loosest first: (token, constructor, right-associative)
_BINARY = (("iff", Iff, True), ("imp", Imp, True), ("or", Or, False),
           ("and", And, False))


class _Parser:
    """Precedence: ~ > /\\ > \\/ > -> > <-> > forall; forall extends right.

    Each ``(``, ``~``, ``forall`` and binary connective opens one level of
    nesting; past MAX_NESTING levels the input is refused, so that neither
    the parser nor the recursions over the parsed tree run out of stack.
    ``<->`` uses each operand twice, so the tree it stands for doubles with
    each level of nesting.  A formula whose tree, counting a shared part at
    each of its occurrences, has more than MAX_FORMULA_NODES formula nodes
    is refused too, since every walk over it (printing, keys, evaluation)
    visits that many nodes.
    """

    def __init__(self, toks: list[tuple[str, str, int]], end: int, sig: Signature,
                 atom_ids: dict[str, int]):
        self.toks = toks
        self.i = 0
        self.end = end
        self.sig = sig
        self.atom_ids = atom_ids  # holds every undeclared identifier of toks
        self.depth = 0
        self.sizes: dict[int, tuple[Formula, int]] = {}

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", self.end)

    def next(self) -> tuple[str, str, int]:
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind: str) -> tuple[str, str, int]:
        t = self.next()
        if t[0] != kind:
            raise SyntaxError_(f"expected {kind} at position {t[2]}, got {t[1]!r}")
        return t

    def _enter(self, pos: int) -> int:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise LimitExceeded(f"nesting deeper than {MAX_NESTING} at position {pos}")
        return pos

    def _size(self, phi: Formula) -> int:
        # memoised by identity: hashing or comparing the nodes would walk
        # the shared parts once per occurrence
        hit = self.sizes.get(id(phi))
        if hit is not None:
            return hit[1]
        if isinstance(phi, And):
            n = 1 + self._size(phi.lhs) + self._size(phi.rhs)
        elif isinstance(phi, (Neg, All)):
            n = 1 + self._size(phi.body)
        else:
            n = 1
        self.sizes[id(phi)] = (phi, n)
        return n

    def _sized(self, phi: Formula, pos: int) -> Formula:
        n = self._size(phi)
        if n > MAX_FORMULA_NODES:
            raise LimitExceeded(f"formula expands to {n} nodes, more than "
                                f"{MAX_FORMULA_NODES}, at position {pos}")
        return phi

    def _undeclared(self, name: str) -> bool:
        return self.sig.fun_arity(name) is None and self.sig.pred_arity(name) is None

    def term(self) -> Term:
        kind, val, pos = self.next()
        if kind != "ident":
            raise SyntaxError_(f"expected a term at position {pos}, got {val!r}")
        ar = self.sig.fun_arity(val)
        if ar is None:
            if self.sig.pred_arity(val) is not None:
                raise SyntaxError_(f"predicate symbol {val!r} used as a term at {pos}")
            return Var(Atom(self.atom_ids[val]))
        return App(val, self._args(val, ar, pos))

    def _args(self, name: str, arity: int, pos: int) -> tuple[Term, ...]:
        args: list[Term] = []
        if self.peek()[0] == "lpar":
            self._enter(self.next()[2])
            if self.peek()[0] != "rpar":
                args.append(self.term())
                while self.peek()[0] == "comma":
                    self.next()
                    args.append(self.term())
            self.expect("rpar")
            self.depth -= 1
        if len(args) != arity:
            raise SyntaxError_(f"{name!r} has arity {arity}, got {len(args)} args at {pos}")
        return tuple(args)

    def formula(self, level: int = 0) -> Formula:
        """A formula whose connectives bind no looser than _BINARY[level]; a
        left chain keeps its nesting levels until it ends, a right operand
        until it is read."""
        if level == len(_BINARY):
            return self.unary()
        kind, build, right = _BINARY[level]
        depth = self.depth
        out = self.formula(level + 1)
        while self.peek()[0] == kind:
            pos = self._enter(self.next()[2])
            out = self._sized(build(out, self.formula(level + (not right))), pos)
        self.depth = depth
        return out

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "neg":
            self._enter(self.next()[2])
            out = self._sized(Neg(self.unary()), pos)
        elif kind == "forall":
            self._enter(self.next()[2])
            k2, v2, p2 = self.expect("ident")
            if not self._undeclared(v2):
                raise SyntaxError_(f"binder {v2!r} clashes with a signature symbol at {p2}")
            a = Atom(self.atom_ids[v2])
            self.expect("dot")
            out = self._sized(All(a, self.formula()), pos)
        else:
            return self.atomic()
        self.depth -= 1
        return out

    def atomic(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "lpar":
            self._enter(self.next()[2])
            out = self.formula()
            self.expect("rpar")
            self.depth -= 1
            return out
        if kind == "bottom":
            self.next()
            return BOT
        if kind == "top":
            self.next()
            return TOP
        if kind == "ident" and self.sig.pred_arity(val) is not None:
            self.next()
            return Pred(val, self._args(val, self.sig.pred_arity(val), pos))
        # otherwise it must start a term equation
        lhs = self.term()
        self.expect("eq")
        rhs = self.term()
        return Eq(lhs, rhs)

    def formulas(self) -> list[Formula]:
        """A comma-separated list, empty right before ``|-`` or the end."""
        if self.peek()[0] in ("turnstile", "eof"):
            return []
        out = [self.formula()]
        while self.peek()[0] == "comma":
            self.next()
            out.append(self.formula())
        return out

    def sides(self) -> tuple[list[Formula], list[Formula]]:
        """The two formula lists of a sequent ``phi1, phi2 |- psi1``."""
        left = self.formulas()
        if self.peek()[0] != "turnstile":
            self.done()
            raise SyntaxError_("a sequent needs exactly one '|-'")
        self.next()
        right = self.formulas()
        if self.peek()[0] == "turnstile":
            raise SyntaxError_("a sequent needs exactly one '|-'")
        return left, right

    def done(self) -> None:
        t = self.peek()
        if t[0] != "eof":
            raise SyntaxError_(f"trailing input at position {t[2]}: {t[1]!r}")


def parse_shared(parts: Iterable[tuple[str, str]], sig: Signature) -> list:
    """Read each (reader, text) part, the reader being "formula", "term" or
    "sides", with one atom map for all the texts; each text is lexed once."""
    parts = list(parts)
    toks = [_tokens(text) for _, text in parts]
    atom_ids = _atom_map([t for ts in toks for t in ts], sig)
    out = []
    for (reader, text), ts in zip(parts, toks):
        p = _Parser(ts, len(text), sig, atom_ids)
        out.append(getattr(p, reader)())
        p.done()
    return out


def parse_formula(text: str, sig: Signature) -> Formula:
    return parse_shared([("formula", text)], sig)[0]


def parse_term(text: str, sig: Signature) -> Term:
    return parse_shared([("term", text)], sig)[0]


def parse_sides(text: str, sig: Signature) -> tuple[list[Formula], list[Formula]]:
    """The two formula lists of a sequent ``phi1, phi2 |- psi1``."""
    return parse_shared([("sides", text)], sig)[0]


# ------------------------------------------------------------- sampling

def random_term(sig: Signature, rng, pool: tuple[Atom, ...], depth: int) -> Term:
    funs = [f for f in sig.functions if depth > 0 or f[1] == 0]
    if depth <= 0 or not funs or rng.random() < 0.45:
        return Var(rng.choice(pool))
    name, ar = rng.choice(funs)
    return App(name, tuple(random_term(sig, rng, pool, depth - 1) for _ in range(ar)))


def random_formula(sig: Signature, rng, pool: tuple[Atom, ...], depth: int) -> Formula:
    if depth <= 0:
        kinds = ["bot", "pred", "eq"]
    else:
        kinds = ["pred", "eq", "and", "neg", "all", "pred", "and", "neg", "all"]
    kind = rng.choice(kinds)
    if kind == "bot":
        return BOT
    if kind == "eq":
        td = max(depth - 1, 0)
        return Eq(random_term(sig, rng, pool, td), random_term(sig, rng, pool, td))
    if kind == "pred":
        if not sig.predicates:
            return BOT
        name, ar = rng.choice(sig.predicates)
        td = max(depth - 1, 0)
        return Pred(name, tuple(random_term(sig, rng, pool, td) for _ in range(ar)))
    if kind == "and":
        return And(random_formula(sig, rng, pool, depth - 1), random_formula(sig, rng, pool, depth - 1))
    if kind == "neg":
        return Neg(random_formula(sig, rng, pool, depth - 1))
    return All(rng.choice(pool), random_formula(sig, rng, pool, depth - 1))


def default_signature() -> Signature:
    return Signature(
        functions=(("c", 0), ("f", 1), ("g", 2)),
        predicates=(("P", 1), ("Q", 2), ("R", 0)),
    )
