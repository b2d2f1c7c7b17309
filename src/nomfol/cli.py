"""Command-line front end: eval, prove, check, countermodel, axioms, sketch.

Output is line-oriented; every command is deterministic given its inputs
and seed.  Exit codes: 0 success, 1 check failed, 2 unknown, not found or
(for prove) refuted, 64 usage error or input past a nesting or size limit,
70 internal error (a countermodel that fails its re-check), 141 output
closed early (as by ``| head``), which ends a command quietly.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import filters, samplers
from .foleq import FOLEQ_LAWS, foleq_axiom_suite, interpret
from .nominal import support
from .report import run_laws
from .sequent import (CountermodelError, ProverBudget, SearchRefused,
                      check_countermodel, check_proof, decide,
                      find_countermodel, format_proof, parse_proof,
                      parse_sequent)
from .sigma import (amgis_axiom_suite, pow_amgis, precedent_suite,
                    sigma_axiom_suite)
from .syntax import (LimitExceeded, Signature, SyntaxError_,
                     default_signature, parse_formula, parse_signature)
from .tarski import (lift_interpretation, parse_model, tarski_algebra,
                     tarski_termlike)

USAGE_ERROR = 64
INTERNAL_ERROR = 70  # sysexits' EX_SOFTWARE
CLOSED_OUTPUT = 141  # what a shell reports for a process killed by SIGPIPE

EQ_LAWS = ("sub-eq", "eq-refl", "eq-subst")

# Suite name to the reports it prints, given --n and --seed.  The lambdas
# look the suite functions up when called, so a rebound name is honoured.
SUITES = {
    "sigma-terms": lambda n, seed: [sigma_axiom_suite(
        samplers.term_carrier(), samplers.term_sampler(default_signature()), n, seed)],
    "sigma-tarski": lambda n, seed: [sigma_axiom_suite(
        tarski_termlike(k), samplers.tarski_sampler(k), n, seed) for k in (2, 3)],
    "amgis-pow": lambda n, seed: [amgis_axiom_suite(
        pow_amgis(samplers.term_carrier()), samplers.charset_sampler(default_signature()),
        n, samplers.probe_terms(default_signature())[:100], seed)],
    "foleq-tarski": lambda n, seed: [foleq_axiom_suite(
        tarski_algebra(k), samplers.tarski_sampler(k, truth=True), n, seed)
        for k in (1, 2, 3)],
    "precedent": lambda n, seed: [precedent_suite()],
    "eq-laws": lambda n, seed: [run_laws(
        {name: FOLEQ_LAWS[name] for name in EQ_LAWS}, n, seed,
        tarski_algebra(k), samplers.tarski_sampler(k, truth=True)) for k in (2, 3)],
}


def _load_signature(path: str | None) -> Signature:
    if path is None:
        return default_signature()
    with open(path) as fh:
        return parse_signature(fh.read())


def cmd_eval(args, out) -> int:
    sig = _load_signature(args.sig)
    with open(args.model) as fh:
        model = parse_model(fh.read(), sig)
    phi = parse_formula(args.formula, sig)
    table = interpret(phi, lift_interpretation(model))
    deps = " ".join(a.name for a in table.deps)
    rows = " ".join(str(int(v)) for v in table.table)
    supp = " ".join(a.name for a in sorted(support(table)))
    if args.machine:
        print(f"DEPS {deps}".rstrip(), file=out)
        print(f"TABLE {rows}".rstrip(), file=out)
        print(f"SUPPORT {supp}".rstrip(), file=out)
    else:
        print(f"deps: [{deps}]", file=out)
        print(f"table: [{rows}]", file=out)
        print("support: {" + supp + "}", file=out)
    return 0


def _print_countermodel(s, found, out, head: str = "") -> None:
    """head, the model file, then its valuation as a ``# valuation`` comment line.

    found is re-checked against s first, so a countermodel that fails
    raises CountermodelError before anything is printed.
    """
    check_countermodel(s, found)
    model, vs = found
    print(head + model.format(), end="", file=out)
    ov = [f"{a.name}={v}" for a, v in sorted(vs.overrides.items())]
    print(" ".join(["# valuation", *ov, f"default={vs.default}"]), file=out)


def cmd_prove(args, out) -> int:
    sig = _load_signature(args.sig)
    s = parse_sequent(args.sequent, sig)
    budget = ProverBudget(max_depth=args.depth)
    verdict = decide(s, budget, sig)
    if verdict.proof is not None:
        print(format_proof(verdict.proof), file=out)
        return 0
    if verdict.countermodel is not None:
        _print_countermodel(s, verdict.countermodel, out, head="REFUTED\n")
    else:
        print("UNKNOWN", file=out)
    return 2


def cmd_check(args, out) -> int:
    sig = _load_signature(args.sig)
    with open(args.proof) as fh:
        text = fh.read()
    try:
        proof = parse_proof(text, sig)
    except LimitExceeded:
        raise
    except SyntaxError_ as e:
        print(f"PARSE-ERROR {e}", file=out)
        return 1
    ok, diag = check_proof(proof)
    print("OK" if ok else f"INVALID {diag}", file=out)
    return 0 if ok else 1


def cmd_countermodel(args, out) -> int:
    if args.max_k < 1:
        raise ValueError(f"--max-k must be at least 1, got {args.max_k}")
    sig = _load_signature(args.sig)
    s = parse_sequent(args.sequent, sig)
    try:
        found = find_countermodel(s, sig, args.max_k)
    except SearchRefused as e:
        print(f"UNKNOWN {e}", file=out)
        return 2
    if found is None:
        print("UNKNOWN", file=out)
        return 2
    _print_countermodel(s, found, out)
    return 0


def cmd_axioms(args, out) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    code = 0
    for rep in SUITES[args.suite](args.n, args.seed):
        for line in rep.lines():
            print(line, file=out)
        if not rep.ok:
            code = 1
    return code


def cmd_sketch(args, out) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    sig = _load_signature(args.sig)
    phi = parse_formula(args.formula, sig)
    budget = ProverBudget(max_depth=args.depth)
    filters.point_sketch(phi, args.steps, budget, sig,
                         on_line=functools.partial(print, file=out, flush=True))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nomfol", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="denotation of a formula in a finite model")
    p.add_argument("formula")
    p.add_argument("--sig")
    p.add_argument("--model", required=True)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("prove", help="bounded backward proof search")
    p.add_argument("sequent")
    p.add_argument("--sig")
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("check", help="validate a proof file")
    p.add_argument("proof")
    p.add_argument("--sig")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("countermodel", help="exhaustive finite countermodel search")
    p.add_argument("sequent")
    p.add_argument("--sig")
    p.add_argument("--max-k", type=int, default=2, dest="max_k")
    p.set_defaults(fn=cmd_countermodel)

    p = sub.add_parser("axioms", help="run an axiom suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("sketch", help="bounded filter-ideal point sketch")
    p.add_argument("formula")
    p.add_argument("--sig")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--depth", type=int, default=5)
    p.set_defaults(fn=cmd_sketch)
    return ap


def run(argv, out=None) -> int:
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else USAGE_ERROR
    try:
        return args.fn(args, out)
    except BrokenPipeError:
        # out is closed: there is nowhere to report to, so main ends quietly
        raise
    except (SyntaxError_, OSError, ValueError) as e:
        print(f"error: {e}", file=out)
        return USAGE_ERROR
    except CountermodelError as e:
        print(f"internal error: {e}", file=out)
        return INTERNAL_ERROR


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would fail again on what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_OUTPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
