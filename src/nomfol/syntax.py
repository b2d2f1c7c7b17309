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


MAX_DIGITS = 100


def read_decimal(v: str, what: str) -> int | None:
    """v's value when it is a nonempty run of ASCII digits, else None.

    This is how a number in a signature file, a model file or an atom
    name is read.  One of more than MAX_DIGITS digits is refused, well
    before Python's own limit on reading long ints; the message is what,
    then its first ten digits.
    """
    if not (v.isascii() and v.isdigit()):
        return None
    if len(v) > MAX_DIGITS:
        raise SyntaxError_(f"{what}{v[:10]}... has {len(v)} digits, more than {MAX_DIGITS}")
    return int(v)


def atom_id(name: str) -> int | None:
    """K when name is the canonical atom name aK, K in ASCII digits; else None.

    K is read by read_decimal, so it has at most MAX_DIGITS digits.
    """
    return read_decimal(name[1:], "atom name a") if name[:1] == "a" else None


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
        arity = read_decimal(parts[2], f"line {lineno}: arity ")
        if arity is None:
            raise SyntaxError_(f"line {lineno}: bad arity {parts[2]!r}")
        (funs if parts[0] == "fun" else preds).append((parts[1], arity))
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
    """Alpha-equivalence: whether phi and psi have the same ``alpha_key``."""
    return alpha_key(phi) == alpha_key(psi)


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

# one token per match, whitespace skipped; a match that is neither a key of
# _KIND nor an identifier is a character that starts no token
_LEX = re.compile(rf"{_IDENT.pattern}|\|-|/\\|\\/|<->|->|\S")
# the kind of every token that is not an identifier, "" closing the tokens
_KIND = {"(": "lpar", ")": "rpar", ",": "comma", ".": "dot", "|-": "turnstile",
         "/\\": "and", "\\/": "or", "<->": "iff", "->": "imp", "~": "neg",
         "=": "eq", "forall": "forall", "bottom": "bottom", "top": "top",
         "": "eof"}
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


def _tokens(text: str) -> list[str]:
    """The tokens of text, read in one pass and closed by "" for its end.

    Every token that is not a key of _KIND is an identifier.
    """
    toks = _LEX.findall(text)
    if not all(t[0] in _LETTERS for t in set(toks).difference(_KIND)):
        for m in _LEX.finditer(text):
            t = m.group()
            if t not in _KIND and t[0] not in _LETTERS:
                raise SyntaxError_(f"unexpected character at {m.start()}: {t!r}")
    toks.append("")
    return toks


def _atom_map(toks: Iterable[str], funs: dict[str, int],
              preds: dict[str, int]) -> dict[str, Var]:
    """One name-to-atom assignment for the identifiers among toks, each
    atom given as the one variable term that all its occurrences share.

    Canonical names aK map to K; other undeclared identifiers get the
    lowest unused indices in order of first appearance.
    """
    names = [t for t in dict.fromkeys(toks)
             if t not in _KIND and t not in funs and t not in preds]
    mapping: dict[str, int] = {}
    for n in names:
        i = atom_id(n)
        if i is not None:
            mapping[n] = i
    used = set(mapping.values())
    nxt = 0
    for n in names:
        if n not in mapping:
            while nxt in used:
                nxt += 1
            mapping[n] = nxt
            used.add(nxt)
    return {n: Var(Atom(i)) for n, i in mapping.items()}


MAX_NESTING = 100
MAX_FORMULA_NODES = 10_000


# binary connectives: token -> (level, right-associative, constructor, size
# of the tree it builds from operand sizes), loosest level first
_BINARY = {
    "<->": (0, True, Iff, lambda a, b: 2 * (a + b) + 11),
    "->": (1, True, Imp, lambda a, b: a + b + 5),
    "\\/": (2, False, Or, lambda a, b: a + b + 4),
    "/\\": (3, False, And, lambda a, b: a + b + 1),
}


class _Parser:
    """Precedence: ~ > /\\ > \\/ > -> > <-> > forall; forall extends right.

    Each ``(``, ``~``, ``forall``, argument list and binary connective opens
    one level of nesting; past MAX_NESTING levels the input is refused, so
    that neither the parser nor the recursions over the parsed tree run out
    of stack.  A chain of connectives of one level keeps its levels until
    it ends.  ``<->`` uses each operand twice, so the tree it stands for
    doubles with each level of nesting.  A formula whose tree, counting a
    shared part at each of its occurrences, has more than MAX_FORMULA_NODES
    formula nodes is refused too, since every walk over it (printing, keys,
    evaluation) visits that many nodes.  The private readers return each
    formula with that count of its nodes.
    """

    def __init__(self, text: str, toks: list[str], funs: dict[str, int],
                 preds: dict[str, int], variables: dict[str, Var]):
        self.text = text
        self.toks = toks
        self.i = 0
        self.funs = funs
        self.preds = preds
        self.vars = variables  # holds every undeclared identifier of toks
        self.depth = 0

    def _at(self, i: int) -> int:
        """The position of token i, lexed again since only a message needs it."""
        starts = [m.start() for m in _LEX.finditer(self.text)]
        return starts[i] if i < len(starts) else len(self.text)

    def _expect(self, tok: str) -> None:
        t = self.toks[self.i]
        if t != tok:
            raise SyntaxError_(f"expected {_KIND[tok]} at position {self._at(self.i)}, "
                               f"got {t!r}")
        self.i += 1

    def _enter(self, i: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise LimitExceeded(f"nesting deeper than {MAX_NESTING} at position {self._at(i)}")

    def _sized(self, n: int, i: int) -> int:
        if n > MAX_FORMULA_NODES:
            raise LimitExceeded(f"formula expands to {n} nodes, more than "
                                f"{MAX_FORMULA_NODES}, at position {self._at(i)}")
        return n

    def term(self) -> Term:
        i = self.i
        t = self.toks[i]
        ar = self.funs.get(t)
        if ar is None:
            x = self.vars.get(t)
            if x is None:
                if t in self.preds:
                    raise SyntaxError_(f"predicate symbol {t!r} used as a term at {self._at(i)}")
                raise SyntaxError_(f"expected a term at position {self._at(i)}, got {t!r}")
            self.i = i + 1
            return x
        self.i = i + 1
        return App(t, self._args(ar, i))

    def _args(self, arity: int, at: int) -> tuple[Term, ...]:
        toks = self.toks
        args: list[Term] = []
        if toks[self.i] == "(":
            self._enter(self.i)
            self.i += 1
            if toks[self.i] != ")":
                args.append(self.term())
                while toks[self.i] == ",":
                    self.i += 1
                    args.append(self.term())
            self._expect(")")
            self.depth -= 1
        if len(args) != arity:
            raise SyntaxError_(f"{toks[at]!r} has arity {arity}, got {len(args)} "
                               f"args at {self._at(at)}")
        return tuple(args)

    def formula(self) -> Formula:
        return self._formula(0)[0]

    def _formula(self, level: int) -> tuple[Formula, int]:
        """A formula whose connectives have at least the given level.

        The levels of the connectives read by one call never rise: a
        tighter one is read by the right operand.  A chain of one level
        nests one deeper per connective, and a right operand starts at the
        depth of its connective.
        """
        out, n = self._unary()
        toks = self.toks
        op = _BINARY.get(toks[self.i])
        depth = self.depth
        chain, run = -1, 0
        while op is not None and op[0] >= level:
            at, (lv, right, build, size) = self.i, op
            run = run + 1 if lv == chain else 1
            chain = lv
            self.depth = depth + run - 1
            self._enter(at)
            self.i = at + 1
            rhs, m = self._formula(lv if right else lv + 1)
            out, n = build(out, rhs), self._sized(size(n, m), at)
            op = _BINARY.get(toks[self.i])
        self.depth = depth
        return out, n

    def _unary(self) -> tuple[Formula, int]:
        i = self.i
        t = self.toks[i]
        if t == "~":
            self._enter(i)
            self.i = i + 1
            body, n = self._unary()
            self.depth -= 1
            return Neg(body), self._sized(n + 1, i)
        if t == "forall":
            self._enter(i)
            v = self.toks[i + 1]
            x = self.vars.get(v)
            if x is None:
                if v in _KIND:
                    raise SyntaxError_(f"expected ident at position {self._at(i + 1)}, "
                                       f"got {v!r}")
                raise SyntaxError_(f"binder {v!r} clashes with a signature symbol "
                                   f"at {self._at(i + 1)}")
            self.i = i + 2
            self._expect(".")
            body, n = self._formula(0)
            self.depth -= 1
            return All(x.atom, body), self._sized(n + 1, i)
        if t == "(":
            self._enter(i)
            self.i = i + 1
            out = self._formula(0)
            self._expect(")")
            self.depth -= 1
            return out
        if t == "bottom":
            self.i = i + 1
            return BOT, 1
        if t == "top":
            self.i = i + 1
            return TOP, 2
        ar = self.preds.get(t)
        if ar is not None:
            self.i = i + 1
            return Pred(t, self._args(ar, i)), 1
        # otherwise it must start a term equation
        lhs = self.term()
        self._expect("=")
        return Eq(lhs, self.term()), 1

    def _formulas(self) -> list[Formula]:
        """A comma-separated list, empty right before ``|-`` or the end."""
        toks = self.toks
        if toks[self.i] in ("|-", ""):
            return []
        out = [self._formula(0)[0]]
        while toks[self.i] == ",":
            self.i += 1
            out.append(self._formula(0)[0])
        return out

    def sides(self) -> tuple[list[Formula], list[Formula]]:
        """The two formula lists of a sequent ``phi1, phi2 |- psi1``."""
        left = self._formulas()
        if self.toks[self.i] != "|-":
            self.done()
            raise SyntaxError_("a sequent needs exactly one '|-'")
        self.i += 1
        right = self._formulas()
        if self.toks[self.i] == "|-":
            raise SyntaxError_("a sequent needs exactly one '|-'")
        return left, right

    def done(self) -> None:
        t = self.toks[self.i]
        if t:
            raise SyntaxError_(f"trailing input at position {self._at(self.i)}: {t!r}")


def parse_shared(parts: Iterable[tuple[str, str]], sig: Signature) -> list:
    """Read each (reader, text) part, the reader being "formula", "term" or
    "sides", with one atom map for all the texts; each text is lexed once."""
    parts = list(parts)
    toks = [_tokens(text) for _, text in parts]
    funs, preds = dict(sig.functions), dict(sig.predicates)
    variables = _atom_map([t for ts in toks for t in ts], funs, preds)
    out = []
    for (reader, text), ts in zip(parts, toks):
        p = _Parser(text, ts, funs, preds, variables)
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
