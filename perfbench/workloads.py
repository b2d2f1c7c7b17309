"""The three benchmark workloads: corpus generation, one op, one check.

Each workload builds a fixed-length corpus from the run seed during
set-up; the timed loop then cycles through it.  ``run`` is the timed op and
touches the library only through the inputs the corpus holds.  After the
timer stops, ``answer`` renders the op's output as text for the run digest
and ``verify`` checks it, returning what failed ("" if nothing) and
whether the op gave a definite answer.

Why the seed does different things per workload:

* ``decide`` and ``filters`` draw their formula shapes from fixed generator
  seeds and let the run seed pick an atom permutation, applied to every
  input (an equivariant renaming).  Op costs there are heavy-tailed: with
  fresh shapes per seed, ten seeds spread ops/s by about 15% and the
  median latency by about 30-50% (interquartile range over the median),
  beyond any admissible bound.  A renaming changes every input text, the
  order of the formulas inside each sequent and hence the prover's search
  order, but keeps the cost profile.
* ``lift`` draws fresh inputs from the run seed: its op costs vary by
  about 20% per op, so fresh draws keep runs steady.
"""
from __future__ import annotations

import importlib
import io
import random
import sys
from types import SimpleNamespace

MODULES = ("nominal", "syntax", "sigma", "foleq", "tarski", "sequent",
           "filters", "cli")


def load_library() -> SimpleNamespace:
    """Import nomfol afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "nomfol" or m.startswith("nomfol.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("nomfol." + m)
                              for m in MODULES})


def renaming(lib, seed: int):
    """The seed's atom permutation: a shuffle of a0..a7."""
    ids = list(range(8))
    random.Random(seed).shuffle(ids)
    Atom = lib.nominal.Atom
    return lib.nominal.Perm({Atom(i): Atom(j) for i, j in enumerate(ids)})


def _cli(lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = lib.cli.run(argv, out)
    return code, out.getvalue()


# ---------------------------------------------------------------- decide

class Decide:
    """Time to a verdict: ``prove`` then ``countermodel`` on one sequent."""

    name = "decide"
    VALID_SEEDS = range(7000, 7012)   # generate_derivable seeds, one per block
    SHAPE_SEED = 8                    # random sequents
    PROVE = ["--depth", "6"]
    COUNTERMODEL = ["--max-k", "2"]

    def build(self, lib, seed: int) -> list:
        self.lib = lib
        self.sig = sig = lib.syntax.default_signature()
        pool = lib.nominal.atoms(0, 1)
        pi = renaming(lib, seed)
        rng = random.Random(self.SHAPE_SEED)
        ops = []
        for gseed in self.VALID_SEEDS:
            valid, _ = lib.sequent.generate_derivable(sig, gseed, steps=4, pool=pool)[-1]
            ops.append(self._op(pi, valid.left, valid.right, True))
            for _ in range(2):
                left = [lib.syntax.random_formula(sig, rng, pool, 2)
                        for _ in range(rng.randint(0, 1))]
                right = [lib.syntax.random_formula(sig, rng, pool, 2)]
                ops.append(self._op(pi, left, right, False))
        return ops

    def _op(self, pi, left, right, valid: bool) -> tuple[str, bool]:
        act, seq = self.lib.nominal.act, self.lib.sequent
        s = seq.sequent([act(pi, f) for f in left], [act(pi, f) for f in right])
        return seq.format_sequent(s), valid

    def run(self, op):
        text, _ = op
        return (_cli(self.lib, ["prove", text] + self.PROVE),
                _cli(self.lib, ["countermodel", text] + self.COUNTERMODEL))

    def answer(self, op, result) -> str:
        (c1, proof_text), (c2, model_text) = result
        return f"{c1}|{c2}|{proof_text}|{model_text}"

    def verify(self, op, result) -> tuple[str, bool]:
        (c1, _), (c2, _) = result
        return self._why(op, result), c1 == 0 or c2 == 0

    def _why(self, op, result) -> str:
        lib, sig = self.lib, self.sig
        text, valid = op
        (c1, proof_text), (c2, model_text) = result
        if c1 not in (0, 2) or c2 not in (0, 2):
            return f"exit codes {c1}, {c2}"
        s = lib.sequent.parse_sequent(text, sig)
        if c1 == 0:
            proof = lib.sequent.parse_proof(proof_text, sig)
            ok, diag = lib.sequent.check_proof(proof)
            if not ok:
                return f"proof does not check: {diag}"
            if proof.conclusion.key() != s.key():
                return "proof concludes another sequent"
        if c2 == 0:
            if c1 == 0:
                return "sequent both proved and refuted"
            if valid:
                return "derivable sequent refuted"
            model = lib.tarski.parse_model(model_text, sig)
            vs = self._valuation(model_text)
            ev = lib.tarski.standard_eval
            if not (all(ev(f, model, vs) for f in s.left)
                    and not any(ev(f, model, vs) for f in s.right)):
                return "countermodel does not falsify the sequent"
        return ""

    def _valuation(self, model_text: str):
        line = next(ln for ln in model_text.splitlines() if ln.startswith("# valuation"))
        overrides, default = {}, None
        for item in line.split()[2:]:
            name, value = item.split("=")
            if name == "default":
                default = int(value)
            else:
                overrides[self.lib.nominal.Atom(int(name[1:]))] = int(value)
        return self.lib.tarski.Valuation(overrides, default)


# --------------------------------------------------------------- filters

GOLDEN_SKETCH = [
    "STEP 0 PAIR (a0, P(a1)) SIDE filter",
    "STEP 1 PAIR (a1, P(c)) SIDE filter",
    "STEP 2 PAIR (a2, R) SIDE filter",
    "STEP 3 PAIR (a0, R) SIDE filter",
]


class Filters:
    """Prover-backed membership: sigma-iff pairs, filter checks, sketches.

    Pairs and checks are drawn as in acceptance criterion 10, from its
    random seed 110, so the pairs are that criterion's first 300.  The
    prover depth is 5, not the criterion's 6: at depth 6 one of these pairs
    takes 6 s, 41% of them all, while at depth 5 they give the same 50 yes
    answers and the slowest takes under 1 s.
    """

    name = "filters"
    SHAPE_SEED = 110
    DEPTH = 5
    PAIRS = 300
    CHECK_EVERY = 15                  # one filter_check per 15 pairs
    SEEDS = ("P(a)", "P(a) /\\ Q(a, b)", "forall x. P(x)", "Q(c, c)")
    UNIVERSE = ("P(a)", "Q(a, b)", "P(a) /\\ Q(a, b)", "P(b)", "top",
                "P(a) \\/ Q(a, b)")
    SKETCHES = (("P(c)", 4, 6), ("P(c)", 8, 5))   # the second reaches the ideal side

    def build(self, lib, seed: int) -> list:
        self.lib = lib
        self.sig = sig = lib.syntax.default_signature()
        self.budget = lib.sequent.ProverBudget(max_depth=self.DEPTH)
        pi = renaming(lib, seed)
        act, syn = lib.nominal.act, lib.syntax
        self.seeds = [act(pi, syn.parse_formula(t, sig)) for t in self.SEEDS]
        self.universe = [act(pi, syn.parse_formula(t, sig)) for t in self.UNIVERSE]
        self._capture_sketches()
        rng = random.Random(self.SHAPE_SEED)
        pool = lib.nominal.atoms(0, 1, 2)
        pairs = [(syn.random_formula(sig, rng, pool, 2),
                  syn.random_term(sig, rng, pool, 1), rng.choice(pool))
                 for _ in range(self.PAIRS)]
        checks = [(syn.random_term(sig, rng, pool, 1), rng.choice(pool))
                  for _ in range(self.PAIRS // self.CHECK_EVERY)]
        ops: list = [("sketch",) + self.SKETCHES[0]]
        for i, (phi, u, q) in enumerate(pairs):
            ops.append(("pair", i % 4, act(pi, phi), act(pi, u), pi(q)))
            if i % self.CHECK_EVERY == self.CHECK_EVERY - 1:
                u, q = checks[i // self.CHECK_EVERY]
                ops.append(("check", i % 4, act(pi, u), pi(q)))
            if i == self.PAIRS // 2:
                ops.append(("sketch",) + self.SKETCHES[1])
        return ops

    def _capture_sketches(self) -> None:
        # `sketch` prints only the transcript; the check also needs the
        # PointSketch, so keep the one the command built
        self.sketches = []
        original = self.lib.filters.point_sketch

        def point_sketch(*args, **kwargs):
            sk = original(*args, **kwargs)
            self.sketches.append(sk)
            return sk
        self.lib.filters.point_sketch = point_sketch

    def run(self, op):
        lib, kind = self.lib, op[0]
        if kind == "pair":
            _, i, phi, u, q = op
            p = lib.filters.upset(self.seeds[i], self.budget, self.sig)
            return (lib.filters.points_amgis(p, u, q).member(phi),
                    p.member(lib.syntax.subst_formula(phi, q, u)))
        if kind == "check":
            _, i, u, q = op
            p = lib.filters.upset(self.seeds[i], self.budget, self.sig)
            restricted = [phi for phi in self.universe
                          if p.member(lib.syntax.subst_formula(phi, q, u))]
            return lib.filters.filter_check(lib.filters.points_amgis(p, u, q),
                                            restricted, self.budget, self.sig)
        _, text, steps, depth = op
        self.sketches.clear()
        return _cli(lib, ["sketch", text, "--steps", str(steps),
                          "--depth", str(depth)]), self.sketches.pop()

    def answer(self, op, result) -> str:
        if op[0] == "pair":
            return "%d%d" % result
        if op[0] == "check":
            return "\n".join(result.lines())
        (code, text), _ = result
        return f"{code}|{text}"

    def verify(self, op, result) -> tuple[str, bool]:
        if op[0] == "pair":
            x, y = result
            return ("" if x == y else "sigma-iff sides disagree"), x
        if op[0] == "check":
            bad = [v for v in result.violations
                   if v.startswith(("condition-1", "condition-3"))]
            return "; ".join(bad), result.ok
        (code, text), sk = result
        lines = text.splitlines()
        why = ""
        if code != 0:
            why = f"sketch exit {code}"
        elif not sk.disjoint_on_queries():
            why = "filter and ideal sides meet on a query"
        elif op[1:] == ("P(c)", 4, 6) and lines != GOLDEN_SKETCH:
            why = "golden sketch changed"
        return why, not any(ln.endswith("SIDE undecided") for ln in lines)


# ------------------------------------------------------------------ lift

class Lift:
    """The absolute semantics: axiom suites over the lift, and eval ops."""

    name = "lift"
    BLOCKS = 40
    SUITES = (("sigma-tarski", 20), ("foleq-tarski", 4), ("eq-laws", 8))
    EVALS_PER_SUITE = 4   # 80% of ops are evals, so p50 and p90 sit mid-cluster

    def build(self, lib, seed: int) -> list:
        self.lib = lib
        self.sig = sig = lib.syntax.default_signature()
        rng = random.Random(seed)
        pool = lib.nominal.atoms(0, 1, 2)
        ops: list = []
        for _ in range(self.BLOCKS):
            for suite, n in self.SUITES:
                ops.append(("axioms", suite, n, rng.randrange(10**6)))
                for _ in range(self.EVALS_PER_SUITE):
                    phi = lib.syntax.random_formula(sig, rng, pool, 4)
                    model = lib.tarski.random_model(sig, rng.randint(1, 3), rng)
                    ops.append(("eval", phi, model))
        return ops

    def run(self, op):
        lib = self.lib
        if op[0] == "eval":
            _, phi, model = op
            return lib.foleq.interpret(phi, lib.tarski.lift_interpretation(model))
        _, suite, n, s = op
        return _cli(lib, ["axioms", suite, "--n", str(n), "--seed", str(s)])

    def answer(self, op, result) -> str:
        return repr(result) if op[0] == "eval" else "%d|%s" % result

    def verify(self, op, result) -> tuple[str, bool]:
        lib = self.lib
        if op[0] == "eval":
            _, phi, model = op
            ok = all(result(vs) == lib.tarski.standard_eval(phi, model, vs)
                     for vs in lib.tarski.all_valuations(lib.syntax.free_atoms(phi),
                                                         model.k))
            return ("" if ok else "lift disagrees with standard_eval"), True
        code, text = result
        lines = text.splitlines()
        bad = code != 0 or not lines or \
            any(not ln.startswith("AXIOM ") or " FAIL" in ln for ln in lines)
        decided = not any(ln.endswith("NOT-EXERCISED") for ln in lines)
        return ("axiom suite failed" if bad else ""), decided


WORKLOADS = {w.name: w for w in (Decide, Lift, Filters)}
