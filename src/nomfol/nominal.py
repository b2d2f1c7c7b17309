"""Atoms, finite permutations, support, freshness and the new-quantifier.

Everything downstream (syntax, table functions, predicate sets) plugs into
the two generic operations here, ``act`` and ``support``, either because it
is one of the built-in shapes (atoms, frozensets, tuples) or because it
implements ``_act_``/``_support_``.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable


class Atom(tuple):
    """A primitive name, stored as the 1-tuple of its index.

    Equality, ordering and hashing are the tuple's, in C, so they go by
    index only, and ``hash(Atom(i)) == hash((i,))``.  That hash must stay:
    the order in which a set of atoms is iterated follows it, and the
    prover's output follows that order.  An atom is a tuple, so ``act``
    and ``support`` test for Atom before they test for tuple.
    """

    __slots__ = ()

    def __new__(cls, id: int) -> "Atom":
        return tuple.__new__(cls, (id,))

    id = property(itemgetter(0), doc="The atom's index.")

    def __getnewargs__(self) -> tuple[int]:
        # copy and pickle rebuild an atom from its index, not its tuple
        return (self[0],)

    @property
    def name(self) -> str:
        return f"a{self.id}"

    def __repr__(self) -> str:
        return self.name


def atoms(*ids: int) -> tuple[Atom, ...]:
    return tuple(Atom(i) for i in ids)


class Perm:
    """A finite permutation of atoms, stored fixpoint-free.

    The representation is canonical: two permutations are equal iff they
    have the same graph, and no pair (a, a) is ever stored.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[Atom, Atom] | None = None):
        m = {a: b for a, b in (mapping or {}).items() if a != b}
        if set(m.keys()) != set(m.values()):
            raise ValueError(f"not a bijection on its domain: {m}")
        object.__setattr__(self, "_map", m)

    def __call__(self, a: Atom) -> Atom:
        return self._map.get(a, a)

    def inverse(self) -> "Perm":
        return Perm({b: a for a, b in self._map.items()})

    def domain(self) -> frozenset[Atom]:
        return frozenset(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self._map == other._map

    def __repr__(self) -> str:
        if not self._map:
            return "id"
        pairs = sorted(self._map.items())
        return "(" + " ".join(f"{a}>{b}" for a, b in pairs) + ")"


IDENTITY = Perm()


def swap(a: Atom, b: Atom) -> Perm:
    """The transposition (a b); swap(a, a) is the identity."""
    if a == b:
        return IDENTITY
    return Perm({a: b, b: a})


def compose(pi: Perm, pi2: Perm) -> Perm:
    """compose(pi, pi2)(a) = pi(pi2(a)); pi2 acts first."""
    m = {a: pi(pi2(a)) for a in pi2.domain() | pi.domain()}
    return Perm({a: b for a, b in m.items() if a != b})


def act(pi: Perm, x):
    """Apply a permutation to any permutable value."""
    if isinstance(x, Atom):
        return pi(x)
    meth = getattr(x, "_act_", None)
    if meth is not None:
        return meth(pi)
    if isinstance(x, frozenset):
        return frozenset(act(pi, y) for y in x)
    if isinstance(x, tuple):
        return tuple(act(pi, y) for y in x)
    if isinstance(x, (int, bool, str, float, type(None))):
        return x
    raise TypeError(f"no permutation action for {type(x).__name__}")


def support(x) -> frozenset[Atom]:
    """The least finite supporting atom set, computed per type.

    Frozensets and tuples are treated as strictly supported, so their
    support is the union of their elements' supports.
    """
    if isinstance(x, Atom):
        return frozenset((x,))
    meth = getattr(x, "_support_", None)
    if meth is not None:
        return meth()
    if isinstance(x, (frozenset, tuple)):
        out: frozenset[Atom] = frozenset()
        for y in x:
            out |= support(y)
        return out
    if isinstance(x, (int, bool, str, float, type(None))):
        return frozenset()
    raise TypeError(f"no support procedure for {type(x).__name__}")


def fresh(avoid) -> Atom:
    """Lowest-indexed atom outside ``avoid``.  Pure and deterministic."""
    used = {a.id for a in avoid}
    i = 0
    while i in used:
        i += 1
    return Atom(i)


def fresh_distinct(avoid, n: int) -> tuple[Atom, ...]:
    """n distinct fresh atoms for ``avoid``, lowest indices first."""
    used = {a.id for a in avoid}
    out = []
    i = 0
    while len(out) < n:
        if i not in used:
            out.append(Atom(i))
        i += 1
    return tuple(out)


def new_check(context, pred: Callable[[Atom], bool]) -> bool:
    """Decide a new-quantified statement by testing one fresh atom.

    The caller must ensure ``pred`` does not depend on atoms outside
    ``context`` (then the some/any property makes one witness enough).
    """
    return pred(fresh(context))


def support_exact(x, equal, atom_pool=None) -> bool:
    """Independent check that the computed support of x is exact.

    For every atom in support(x), swapping it with a fresh atom must
    change x; for atoms outside (sampled from atom_pool), swapping with a
    fresh atom must fix x.  ``equal`` is the carrier's element equality.
    """
    supp = support(x)
    b = fresh(supp | support(tuple(atom_pool or ())))
    for a in supp:
        if equal(act(swap(a, b), x), x):
            return False
    for a in atom_pool or ():
        if a in supp or a == b:
            continue
        if not equal(act(swap(a, b), x), x):
            return False
    return True


@dataclass(frozen=True)
class FinCofinAtomSet:
    """A finite or cofinite set of atoms.

    These are the two classic nominal powerset examples: finite atom sets
    (support = the set) and their complements (support = the removed
    atoms).  ``cofinite=True`` means the set is all atoms except ``base``.
    """

    base: frozenset[Atom]
    cofinite: bool = False

    def member(self, a: Atom) -> bool:
        return (a in self.base) != self.cofinite

    def _support_(self) -> frozenset[Atom]:
        return self.base

    def _act_(self, pi: Perm) -> "FinCofinAtomSet":
        return FinCofinAtomSet(frozenset(pi(a) for a in self.base), self.cofinite)

    def remove(self, a: Atom) -> "FinCofinAtomSet":
        """The subset of members x with a # x, i.e. x != a."""
        if self.cofinite:
            return FinCofinAtomSet(self.base | {a}, True)
        return FinCofinAtomSet(self.base - {a}, False)

    def __repr__(self) -> str:
        names = "{" + ",".join(a.name for a in sorted(self.base)) + "}"
        return f"~{names}" if self.cofinite else names
