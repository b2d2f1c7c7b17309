import argparse
import functools
import importlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import time
import types

from hypothesis import given, settings, strategies as st

import nomfol
from nomfol import filters
from nomfol import sequent as sequent_module
from nomfol.cli import build_parser, run
from nomfol.nominal import FinCofinAtomSet
from nomfol.sequent import _count
from nomfol.syntax import free_atoms, parse_formula, parse_signature
from nomfol.tarski import all_valuations, parse_model, standard_eval

DATA = os.path.join(os.path.dirname(__file__), "data")
SIG = os.path.join(DATA, "p1.sig")
MODEL = os.path.join(DATA, "p1k2.model")
PQ_SIG = os.path.join(DATA, "pq.sig")
PQ_MODEL = os.path.join(DATA, "pqk4.model")


def go(*argv):
    buf = io.StringIO()
    code = run(list(argv), buf)
    return code, buf.getvalue()


def test_eval_golden():
    code, out = go("eval", "forall a. P(a)", "--sig", SIG, "--model", MODEL)
    assert code == 0
    assert out == "deps: []\ntable: [0]\nsupport: {}\n"
    code, out = go("eval", "P(a)", "--sig", SIG, "--model", MODEL)
    assert code == 0
    assert out == "deps: [a0]\ntable: [0 1]\nsupport: {a0}\n"
    code, out = go("eval", "bottom", "--sig", SIG, "--model", MODEL, "--machine")
    assert code == 0
    assert out == "DEPS\nTABLE 0\nSUPPORT\n"


def test_eval_errors():
    code, out = go("eval", "P(a", "--sig", SIG, "--model", MODEL)
    assert code == 64 and out.startswith("error:")
    code, out = go("eval", "P(a)", "--sig", SIG, "--model", "/nonexistent")
    assert code == 64


def test_eval_of_a_long_table_matches_standard_eval():
    # five free atoms at k = 4: the meet and its result have 4**5 = 1,024 rows
    text = "(P(a,b) \\/ P(c,d)) /\\ ~Q(e)"
    code, out = go("eval", text, "--sig", PQ_SIG, "--model", PQ_MODEL, "--machine")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    with open(PQ_SIG) as fh:
        sig = parse_signature(fh.read())
    with open(PQ_MODEL) as fh:
        model = parse_model(fh.read(), sig)
    phi = parse_formula(text, sig)
    by_name = {x.name: x for x in free_atoms(phi)}
    deps = [by_name[name] for name in lines["DEPS"].split()]
    rows = lines["TABLE"].split()
    assert len(deps) == 5 and len(rows) == 4 ** 5
    for vs in all_valuations(deps, model.k):
        row = 0
        for x in deps:
            row = row * model.k + vs.lookup(x)
        assert rows[row] == str(int(standard_eval(phi, model, vs)))


def test_directory_arguments_are_usage_errors(tmp_path):
    for argv in (["prove", "P(c) |- P(c)", "--sig", str(tmp_path)],
                 ["check", str(tmp_path)],
                 ["eval", "P(c)", "--model", str(tmp_path)]):
        code, out = go(*argv)
        assert code == 64 and out.startswith("error:") and "Is a directory" in out, argv


def test_prove_and_check_roundtrip(tmp_path):
    code, out = go("prove", "|- forall a. (P(a) \\/ ~ P(a))", "--sig", SIG,
                   "--depth", "6")
    assert code == 0 and out.startswith("(allR ")
    proof_file = tmp_path / "proof.sexp"
    proof_file.write_text(out)
    code, out = go("check", str(proof_file), "--sig", SIG)
    assert code == 0 and out == "OK\n"


def test_prove_unknown():
    # no size-1 countermodel, and no equation, so size 2 is not looked at
    code, out = go("prove", "P(a) |- forall b. P(b)", "--sig", SIG, "--depth", "5")
    assert code == 2 and out == "UNKNOWN\n"


def test_prove_prints_the_refuting_model(tmp_path):
    code, out = go("prove", "|- P(a)", "--sig", SIG, "--depth", "5")
    assert code == 2
    assert out == "REFUTED\ndomain 1\npred P : 0\n# valuation a0=0 default=0\n"
    # the lines after REFUTED are a model file that eval loads
    model_file = tmp_path / "refuting.model"
    model_file.write_text(out.split("\n", 1)[1])
    code, out = go("eval", "P(a)", "--sig", SIG, "--model", str(model_file), "--machine")
    assert (code, out) == (0, "DEPS\nTABLE 0\nSUPPORT\n")
    # it is countermodel's model, whose symbol order is the signature's: Q
    # before P makes Q false and P true, where P before Q would flip them
    (tmp_path / "qp.sig").write_text("pred Q 0\npred P 0\n")
    qp = str(tmp_path / "qp.sig")
    code, out = go("prove", "|- P <-> Q", "--sig", qp)
    assert code == 2
    assert out == "REFUTED\n" + go("countermodel", "|- P <-> Q", "--sig", qp)[1]
    assert "pred Q : 0\npred P : 1\n" in out


def test_prover_depth_is_bounded():
    # a proof found at depth d nests up to d + 1 nodes, and check reads 100
    for argv in (["prove", "a = b, P(a), Q(a, b) |- R"], ["sketch", "P(c)"]):
        assert go(*argv, "--depth", "100") == \
            (64, "error: prover depth 100 is not in 0..99\n"), argv
    code, out = go("prove", "|- P(a) \\/ ~P(a)", "--depth", "99")
    assert code == 0 and out.startswith("(negR ")
    code, out = go("sketch", "P(c)", "--steps", "1", "--depth", "99")
    assert code == 0 and out.startswith("STEP 0 ")


def test_check_rejects_corrupted(tmp_path):
    good = go("prove", "|- forall a. (P(a) \\/ ~ P(a))", "--sig", SIG)[1]
    bad = good.replace("hyp", "botL", 1)
    proof_file = tmp_path / "bad.sexp"
    proof_file.write_text(bad)
    code, out = go("check", str(proof_file), "--sig", SIG)
    assert code == 1 and out.startswith("INVALID botL")
    proof_file.write_text("(hyp")
    code, out = go("check", str(proof_file), "--sig", SIG)
    assert code == 1 and out.startswith("PARSE-ERROR")


def test_check_reports_a_string_cut_at_a_backslash(tmp_path):
    # the backslash escapes the end of the file; this used to raise IndexError
    proof_file = tmp_path / "cut.sexp"
    proof_file.write_text('(hyp "P(a) |- P(a)\\')
    assert go("check", str(proof_file)) == (
        1, "PARSE-ERROR unterminated string in proof file\n")


def test_check_reads_atom_witnesses_as_formula_text_does(tmp_path):
    # '\u0660' (Arabic-Indic zero) is a digit to the regex \d, not to the
    # parser: "a\u0660" used to pass as a0
    good = go("prove", "|- forall a. (P(a) \\/ ~P(a))", "--sig", SIG, "--depth", "6")[1]
    assert ' "a0" (negR ' in good
    proof_file = tmp_path / "digit.sexp"
    proof_file.write_text(good.replace(' "a0" (negR ', ' "a\u0660" (negR ', 1))
    assert go("check", str(proof_file), "--sig", SIG) == (
        1, "PARSE-ERROR bad atom name 'a\u0660' in proof\n")
    assert go("eval", "P(a\u0660)", "--sig", SIG, "--model", MODEL) == (
        64, "error: unexpected character at 3: '\u0660'\n")


def test_atom_names_with_too_many_digits_are_refused(tmp_path):
    # 5,000 digits used to reach Python's own limit on int() and its message
    long = "a" + "9" * 5000
    refused = "atom name a9999999999... has 5000 digits, more than 100\n"
    good = go("prove", "|- forall a. (P(a) \\/ ~P(a))", "--sig", SIG, "--depth", "6")[1]
    proof_file = tmp_path / "long.sexp"
    proof_file.write_text(good.replace(' "a0" (negR ', f' "{long}" (negR ', 1))
    assert go("check", str(proof_file), "--sig", SIG) == (1, "PARSE-ERROR " + refused)
    assert go("prove", f"|- P({long})", "--sig", SIG) == (64, "error: " + refused)


def test_countermodel_golden():
    code, out = go("countermodel", "|- P(a)", "--sig", SIG, "--max-k", "1")
    assert code == 0
    assert out == "domain 1\npred P : 0\n# valuation a0=0 default=0\n"
    code, out = go("countermodel", "P(a) |- P(a)", "--sig", SIG, "--max-k", "2")
    assert code == 2 and out == "UNKNOWN\n"


def test_countermodel_forall():
    code, out = go("countermodel", "|- forall a. P(a)", "--sig", SIG,
                   "--max-k", "2")
    assert code == 0
    assert "domain" in out and "pred P :" in out


def test_countermodel_refuses_hopeless_search(tmp_path):
    def timed(*argv):
        start = time.perf_counter()
        answer = go("countermodel", *argv)
        assert time.perf_counter() - start < 1.0
        return answer

    # all six default symbols at k <= 3: about 1.3e10 models, but sizes are
    # searched in order and size 1 already has a countermodel
    code, out = timed("P(c), Q(f(a), g(a, a)) |- R", "--max-k", "3")
    assert code == 0
    assert out == ("domain 1\nfun c : 0\nfun f : 0\nfun g : 0\npred P : 1\n"
                   "pred Q : 1\npred R : 0\n# valuation a0=0 default=0\n")
    # no countermodel: 32,776 pairs searched through size 2, size 3 refused
    code, out = timed("P(c), Q(f(a), g(a, a)), R |- R", "--max-k", "3")
    assert code == 2
    assert out == "UNKNOWN search space 39182114824 at size 3 exceeds 1000000\n"
    # 2 ** (2 ** 24) tables at size 2 are counted in log space, never built
    sig = tmp_path / "wide.sig"
    sig.write_text("pred P 24\n")
    p = "P(" + ", ".join(["a"] * 24) + ")"
    code, out = timed(f"{p} |- {p}", "--sig", str(sig), "--max-k", "2")
    assert code == 2
    assert out == "UNKNOWN search space 3.64e5050445 at size 2 exceeds 1000000\n"
    # an unused Big whose size-2 table would have 2**21 rows: size 2 is
    # refused, and prove searches instead of printing the padded model
    sig.write_text("pred Big 21\n")
    code, out = timed("|- a = b", "--sig", str(sig), "--max-k", "2")
    assert (code, out) == (2, "UNKNOWN table of 2097152 rows for Big at size 2 "
                              "exceeds limit 1000000\n")
    start = time.perf_counter()
    assert go("prove", "|- a = b", "--sig", str(sig)) == (2, "UNKNOWN\n")
    assert time.perf_counter() - start < 1.0


def test_countermodel_answers_before_counting_larger_sizes():
    # one pair per size, so the limit would first be passed at size 1,000,001;
    # size 1 is counted and searched before any larger size is counted
    start = time.perf_counter()
    code, out = go("countermodel", "|- bottom", "--max-k", "2000000")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert out == ("domain 1\nfun c : 0\nfun f : 0\nfun g : 0\npred P : 0\n"
                   "pred Q : 0\npred R : 0\n# valuation default=0\n")


def test_count_format():
    assert _count(39182114824) == "39182114824"
    assert _count(10 ** 29) == "1.00e29"
    # a float is the log10 of a count too large to build
    assert _count(29.5) == "3.16e29"
    assert _count(math.inf) == "inf"


def test_deep_nesting_is_a_usage_error():
    deep = {"neg": "~" * 3000 + "P(a)",
            "parens": "(" * 3000 + "P(a)" + ")" * 3000}
    for phi in deep.values():
        for argv in (["prove", "|- " + phi], ["countermodel", "|- " + phi],
                     ["eval", phi, "--model", MODEL]):
            code, out = go(*argv, "--sig", SIG)
            assert code == 64 and out.startswith("error: nesting deeper than"), argv


def test_nesting_at_the_limit_is_answered():
    # 99 levels of ~ or parentheses plus the argument list of P: 100 levels
    for phi in ["~" * 99 + "P(a)", "(" * 99 + "P(a)" + ")" * 99]:
        code, out = go("prove", "|- " + phi, "--sig", SIG, "--depth", "3")
        assert code in (0, 2) and not out.startswith("error:")
        code, out = go("countermodel", "|- " + phi, "--sig", SIG)
        assert code == 0 and out.startswith("domain 1")
        code, out = go("eval", phi, "--sig", SIG, "--model", MODEL)
        assert code == 0 and out.startswith("deps: [a0]")


def test_nested_iff_is_refused():
    # each <-> level about doubles the formula tree: 25 levels stand for
    # some 10^8 nodes, refused at the tenth level from the inside
    phi = "P(a)"
    for _ in range(25):
        phi = f"P(a) <-> ({phi})"
    # a position in a sequent counts from the start of the whole argument
    for argv, pos in ((["eval", phi, "--model", MODEL], 155),
                      (["prove", "|- " + phi], 158)):
        start = time.perf_counter()
        code, out = go(*argv, "--sig", SIG)
        assert time.perf_counter() - start < 1.0
        assert code == 64, argv
        assert out == ("error: formula expands to 14323 nodes, more than 10000, "
                       f"at position {pos}\n")


def test_sequent_errors():
    # an empty list item is an error, not a formula that is dropped
    for text in ("P(a),, Q(a, a) |- R", "P(a), |- R", "|- P(a),", ", |- R"):
        code, out = go("prove", text)
        assert code == 64 and out.startswith("error: expected a term"), text
    code, out = go("prove", "P(a), Q(a, b |- R")
    assert (code, out) == (64, "error: expected rpar at position 13, got '|-'\n")
    for text in ("P(a)", "P(a) |- R |- R"):
        assert go("prove", text) == (64, "error: a sequent needs exactly one '|-'\n")


def test_long_conclusion_is_refused_quickly(tmp_path):
    # 640 KB of conjunctions: lexed in one pass, refused at the 101st /\
    conj = " /\\ ".join(["P(c)"] * 80_000)
    proof_file = tmp_path / "long.sexp"
    # a proof file writes each backslash as two
    proof_file.write_text('(hyp "%s |-")' % conj.replace("\\", "\\\\"))
    start = time.perf_counter()
    code, out = go("check", str(proof_file))
    assert time.perf_counter() - start < 5.0
    assert code == 64 and out.startswith("error: nesting deeper than 100")


def test_prove_gives_up_at_once_on_a_refuted_sequent():
    # a size-1 model refutes it; the depth-8 search alone takes more than 10 s
    start = time.perf_counter()
    code, out = go("prove", "a1 = a0, g(a0, a2) = a2, forall a1. a1 = a2 |- Q(a0, a0)",
                   "--depth", "8")
    assert time.perf_counter() - start < 5.0
    # the guard's model, printed as countermodel prints it over the same signature
    assert code == 2 and out.startswith("REFUTED\n")
    assert out[len("REFUTED\n"):] == go(
        "countermodel", "a1 = a0, g(a0, a2) = a2, forall a1. a1 = a2 |- Q(a0, a0)")[1]


def test_prove_refutes_an_equational_sequent_at_size_2():
    # 2**15 size-2 pairs: the guard refutes it where the depth-5 search fails
    text = "P(a3) /\\ Q(a3, a6) |- g(a1, a3) = f(a1)"
    with open(os.path.join(DATA, "gf2.refuted")) as fh:
        golden = fh.read()
    assert go("prove", text, "--depth", "5") == (2, golden)
    assert golden == "REFUTED\n" + go("countermodel", text, "--max-k", "2")[1]


def test_a_countermodel_that_fails_its_recheck_is_an_internal_error(monkeypatch):
    # the highest index in place of the lowest: P true, so |- P(a) holds
    assert go("countermodel", "|- P(a)", "--sig", SIG)[0] == 0
    monkeypatch.setattr(sequent_module, "_lowest",
                        lambda s, truth, full: full.bit_length() - 1)
    for argv in (["countermodel", "|- P(a)", "--sig", SIG],
                 ["prove", "|- P(a)", "--sig", SIG]):
        code, out = go(*argv)
        assert code == 70, argv
        assert out == ("internal error: countermodel of size 1 makes P(a0) true "
                       "in |- P(a0)\n"), argv


def test_table_rows_are_bounded(tmp_path):
    # Q reads both arguments, so the conjunction's table reads four atoms:
    # 40**4 rows, refused before they are built
    (tmp_path / "q.sig").write_text("pred Q 2\n")
    (tmp_path / "q40.model").write_text(
        "domain 40\npred Q : " + " ".join("01"[(i // 40 + i) % 2] for i in range(1600)))
    start = time.perf_counter()
    code, out = go("eval", "Q(x,y) /\\ Q(z,w)", "--sig", str(tmp_path / "q.sig"),
                   "--model", str(tmp_path / "q40.model"))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (64, "error: table of 2560000 rows exceeds limit 1000000\n")
    # a domain of 10**6 + 1: the projection of a is refused before its rows are built
    code, out = go("eval", "a = a", "--sig", os.devnull,
                   "--model", os.path.join(DATA, "k1000001.model"))
    assert (code, out) == (64, "error: table of 1000001 rows exceeds limit 1000000\n")
    assert time.perf_counter() - start < 1.0


def test_model_values_are_checked(tmp_path):
    sig = tmp_path / "pr.sig"
    sig.write_text("fun c 0\npred P 1\npred R 0\n")
    model = tmp_path / "bad.model"
    for body, err in [("fun c : 0\npred P : 1 7\npred R : 0",
                       "line 3: predicate value '7' is not 0 or 1"),
                      ("fun c : 0\npred P : 1 0\npred R : yes",
                       "line 4: predicate value 'yes' is not 0 or 1"),
                      ("fun c : x\npred P : 1 0\npred R : 0",
                       "line 2: function value 'x' is not in 0..1")]:
        model.write_text("domain 2\n" + body + "\n")
        code, out = go("eval", "P(a) /\\ R", "--sig", str(sig), "--model", str(model))
        assert (code, out) == (64, f"error: {err}\n")


def test_a_missing_or_short_table_is_named(tmp_path):
    # a missing table is named as missing, a short one by its count
    sig = tmp_path / "pq.sig"
    sig.write_text("pred P 2\npred Q 1\n")
    model = tmp_path / "bad.model"
    for body, err in [("pred Q : 0 1", "no table for P"),
                      ("pred P : 0 1 1\npred Q : 0 1",
                       "predicate table for P has 3 values, needs 2 ** 2 = 4")]:
        model.write_text("domain 2\n" + body + "\n")
        code, out = go("eval", "P(a, a) /\\ Q(a)", "--sig", str(sig), "--model", str(model))
        assert (code, out) == (64, f"error: {err}\n")


def test_a_second_domain_line_is_refused():
    # c = 2 was checked against domain 3, then the table was built at domain 2
    assert go("eval", "P(c)", "--sig", os.path.join(DATA, "cp1.sig"),
              "--model", os.path.join(DATA, "twodomains.model")) == (
        64, "error: line 4: second 'domain k' line\n")


def test_a_second_table_line_is_refused():
    # the second table for P used to replace the first without a word
    assert go("eval", "P(a)", "--sig", SIG,
              "--model", os.path.join(DATA, "twotables.model")) == (
        64, "error: line 3: second table for 'P'\n")


def test_numbers_in_files_have_at_most_100_digits():
    # 5,000 digits used to reach Python's own limit on int() and its message
    cp1 = os.path.join(DATA, "cp1.sig")
    assert go("eval", "P(c)", "--sig", cp1,
              "--model", os.path.join(DATA, "longdomain.model")) == (
        64, "error: line 2: domain size 9999999999... has 5000 digits, more than 100\n")
    assert go("eval", "P(c)", "--sig", cp1,
              "--model", os.path.join(DATA, "longvalue.model")) == (
        64, "error: line 3: function value 9999999999... has 5000 digits, more than 100\n")
    assert go("eval", "bottom", "--sig", os.path.join(DATA, "longarity.sig"),
              "--model", MODEL) == (
        64, "error: line 2: arity 9999999999... has 5000 digits, more than 100\n")


def test_wide_size_1_countermodels_keep_the_model_order():
    # the first of 2**19 size-1 models, predicate P0 deciding first: the
    # all-true model of the negations, and P18 before P0 for the disjunction
    p19 = os.path.join(DATA, "p19.sig")
    for text, name in [("|- " + ", ".join(f"~P{i}" for i in range(19)), "p19negs"),
                       ("P0 \\/ P18 |- P9", "p19or")]:
        with open(os.path.join(DATA, name + ".countermodel")) as fh:
            assert go("countermodel", text, "--sig", p19, "--max-k", "1") == (0, fh.read())


def test_size_2_countermodels_keep_the_model_order():
    # the first of 2**14 size-2 models and 4 valuations, the function
    # tables deciding first; the unpruned search's answer, with a0 = 1
    text = ("~(a = b), f(a) = b, g(a, f(b)) = f(c) "
            "|- P(g(b, a)), c = f(b), Q(f(a), g(b, b))")
    with open(os.path.join(DATA, "fg2.countermodel")) as fh:
        assert go("countermodel", text, "--max-k", "2") == (0, fh.read())
    assert go("countermodel", "P(c), Q(f(a), g(a, a)), R |- R", "--max-k", "2") == \
        (2, "UNKNOWN\n")


def test_size_3_countermodels_keep_the_model_order():
    # a, b and the constant c distinct need size 3; the first model and
    # valuation of the unpruned search have f = 0 0 1, a = 2 and b = 1
    text = "~a = b, ~b = c, ~a = c, f(a) = b |- P(f(f(c)))"
    with open(os.path.join(DATA, "f3.countermodel")) as fh:
        assert go("countermodel", text, "--max-k", "3") == (0, fh.read())
    # 3**9 * 2**3 size-3 models and 3 valuations, none a countermodel
    assert go("countermodel", "P(g(a, a)), ~P(g(a, a)) |-", "--max-k", "3") == \
        (2, "UNKNOWN\n")


def test_signature_names_are_checked(tmp_path):
    # an atom name would clash with the binders of printed proofs, and a
    # keyword or non-identifier could never be written in a formula
    sig = tmp_path / "bad.sig"
    for decl, err in [("fun a0 0", "symbol 'a0' is a canonical atom name"),
                      ("fun forall 0", "symbol 'forall' is a keyword"),
                      ("fun f( 1", "symbol 'f(' is not an identifier "
                                   "[A-Za-z][A-Za-z0-9_]*")]:
        sig.write_text("pred P 1\n" + decl + "\n")
        code, out = go("prove", "|- forall x. (P(x) \\/ ~P(x))", "--sig", str(sig))
        assert (code, out) == (64, f"error: {err}\n"), decl


def test_signature_and_model_numbers_are_ascii_decimals(tmp_path):
    # '²' is a digit to str.isdigit, but not a number either file format writes
    sig, model = tmp_path / "sup.sig", tmp_path / "sup.model"
    sig.write_text("fun f \u00b2\n")
    model.write_text("domain \u00b2\n")
    assert go("prove", "|- bottom", "--sig", str(sig)) == (
        64, "error: line 1: bad arity '\u00b2'\n")
    assert go("eval", "bottom", "--sig", os.devnull, "--model", str(model)) == (
        64, "error: line 1: bad domain size '\u00b2'\n")


def _negation_chain(levels):
    """A proof file of nested negL/negR nodes ending in hyp; levels is even."""
    text, phi = '(hyp "P(a0) |- P(a0)")', "P(a0)"
    for i in range(1, levels):
        phi = "~" + phi
        if i % 2:
            text = f'(negL "{phi}, P(a0) |-" "{phi}" {text})'
        else:
            text = f'(negR "P(a0) |- {phi}" "{phi}" {text})'
    return text


def test_deep_proof_file_is_refused(tmp_path):
    proof_file = tmp_path / "deep.sexp"
    proof_file.write_text('(negR "|- ~P(a0)" "~P(a0)" ' * 3000
                          + '(hyp "P(a0) |- P(a0)")' + ")" * 3000)
    code, out = go("check", str(proof_file), "--sig", SIG)
    assert code == 64 and out == "error: proof nesting deeper than 100\n"


def test_proof_at_the_nesting_limit_is_checked(tmp_path):
    proof_file = tmp_path / "limit.sexp"
    proof_file.write_text(_negation_chain(100))
    assert go("check", str(proof_file), "--sig", SIG) == (0, "OK\n")
    proof_file.write_text('(hyp "P(a0) |- P(a0)" ' + _negation_chain(100) + ")")
    code, out = go("check", str(proof_file), "--sig", SIG)
    assert code == 64 and out == "error: proof nesting deeper than 100\n"


SIGMA_NAMES = ["sigma-a", "sigma-id", "sigma-#", "sigma-alpha", "sigma-sigma"]
FOLEQ_NAMES = ["lattice", "distrib", "distrib-freshmeet", "double-negation",
               "complement", "nu-alpha", "nu-meet", "nu-join", "nu-leq", "nu-#",
               "sub-meet", "sub-neg", "sub-freshmeet", "sub-eq", "sub-top",
               "eq-refl", "eq-subst"]
EQ_NAMES = ["sub-eq", "eq-refl", "eq-subst"]


def test_axioms_suites_small():
    # names, order and counts of every suite's lines
    expected = {
        ("sigma-terms", 40): [(name, 40) for name in SIGMA_NAMES],
        ("sigma-tarski", 40): [(name, 40) for name in SIGMA_NAMES] * 2,
        ("amgis-pow", 15): [("amgis-sigma", 15)],
        ("foleq-tarski", 20): [(name, 20) for name in FOLEQ_NAMES] * 3,
        ("eq-laws", 20): [(name, 20) for name in EQ_NAMES] * 2,
        ("precedent", 1): [("precedent", 1024)],
    }
    for (suite, n), lines in expected.items():
        code, out = go("axioms", suite, "--n", str(n), "--seed", "1")
        assert code == 0, (suite, out)
        assert out == "".join(f"AXIOM {name} PASS {k}\n" for name, k in lines)


def test_eq_laws_are_the_foleq_lines_for_k2_and_k3():
    for n, seed in (("7", "11"), ("3", "7919")):
        _, foleq = go("axioms", "foleq-tarski", "--n", n, "--seed", seed)
        code, out = go("axioms", "eq-laws", "--n", n, "--seed", seed)
        lines = foleq.splitlines()[len(FOLEQ_NAMES):]  # drop the k = 1 block
        assert code == 0
        assert out.splitlines() == [line for line in lines
                                    if line.split()[1] in EQ_NAMES]


def test_axioms_deterministic():
    a1 = go("axioms", "foleq-tarski", "--n", "15", "--seed", "3")
    a2 = go("axioms", "foleq-tarski", "--n", "15", "--seed", "3")
    assert a1 == a2


def test_sketch_golden():
    code, out = go("sketch", "P(c)", "--steps", "3", "--depth", "5")
    assert code == 0
    assert out == ("STEP 0 PAIR (a0, P(a1)) SIDE filter\n"
                   "STEP 1 PAIR (a1, P(c)) SIDE filter\n"
                   "STEP 2 PAIR (a2, R) SIDE filter\n")


def test_sketch_prints_each_step_before_the_next_is_queried(monkeypatch):
    # a long sketch must show its progress: line i is written before any
    # prover query of pair i + 1
    queries, pair_starts, line_ends = [0], [], []
    prove, grow_filter = filters.prove, filters.grow_filter

    def counted_prove(*args):
        queries[0] += 1
        return prove(*args)

    def pair_start(*args):
        pair_starts.append(queries[0])
        return grow_filter(*args)

    class Out(io.StringIO):
        def write(self, text):
            if text.endswith("\n"):
                line_ends.append(queries[0])
            return super().write(text)

    monkeypatch.setattr(filters, "prove", counted_prove)
    monkeypatch.setattr(filters, "grow_filter", pair_start)
    out = Out()
    assert run(["sketch", "P(c)", "--steps", "3", "--depth", "5"], out) == 0
    assert out.getvalue().count("\n") == len(line_ends) == len(pair_starts) == 3
    assert line_ends == pair_starts[1:] + [queries[0]]
    assert all(start < end for start, end in zip(pair_starts, line_ends))


def test_axioms_exits_1_when_a_law_fails(monkeypatch):
    # a remove that forgets cofiniteness sends {} and ~{} to the same set
    monkeypatch.setattr(FinCofinAtomSet, "remove",
                        lambda self, a: FinCofinAtomSet(self.base - {a}))
    assert go("axioms", "precedent") == (1, "AXIOM precedent FAIL {} vs ~{}\n")


def test_a_closed_stdout_ends_the_command_quietly():
    # the pipe's read end is closed before the command writes anything, so
    # its first write (sketch flushes each step) or the flush at exit fails
    # the child imports the nomfol these tests import
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nomfol.__file__)))
    for argv in (["sketch", "P(c)", "--steps", "2", "--depth", "3"],
                 ["prove", "|- P(a)", "--sig", SIG]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "nomfol", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        # nothing on stderr: no traceback, and no error from the flush at exit
        assert (done.returncode, done.stderr) == (141, ""), argv


def test_usage_error():
    code, _ = go("bogus")
    assert code == 64
    code, _ = go("prove", "|- P(a)", "--sig", SIG, "--machine")
    assert code == 64
    code, _ = go("axioms", "no-such-suite")
    assert code == 64
    code, _ = go("axioms", "precedent", "--jobs", "2")
    assert code == 64
    for n in ("0", "-1"):
        code, out = go("axioms", "sigma-terms", "--n", n)
        assert code == 64 and out == f"error: --n must be at least 1, got {n}\n"
    for n in ("0", "-1"):
        code, out = go("sketch", "P(c)", "--steps", n)
        assert code == 64 and out == f"error: --steps must be at least 1, got {n}\n"
    for n in ("0", "-3"):
        code, out = go("countermodel", "|- P(a)", "--max-k", n)
        assert code == 64 and out == f"error: --max-k must be at least 1, got {n}\n"


CLI_OPTIONS = {
    "eval": {"--sig", "--model", "--machine"},
    "prove": {"--sig", "--depth"},
    "check": {"--sig"},
    "countermodel": {"--sig", "--max-k"},
    "axioms": {"--n", "--seed"},
    "sketch": {"--sig", "--steps", "--depth"},
}


def test_cli_options_are_pinned():
    # a new option or subcommand must show up here as a visible change
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert options == CLI_OPTIONS


# Golden command lines whose inputs are mutated below.  An argument "@name"
# is the file of that name in tests/data, and "@proof" a proof file of
# "|- forall a. (P(a) \\/ ~ P(a))"; numeric options stay small and fixed.
FUZZ_CASES = [
    ["eval", "forall a. P(a)", "--sig", "@p1.sig", "--model", "@p1k2.model"],
    ["eval", "bottom", "--sig", "@p1.sig", "--model", "@p1k2.model", "--machine"],
    ["eval", "forall a. P(a) \\/ ~P(b)", "--sig", "@p1.sig", "--model", "@p1k2.model"],
    ["eval", "(P(a,b) \\/ P(c,d)) /\\ ~Q(e)", "--sig", "@pq.sig", "--model", "@pqk4.model"],
    ["prove", "|- forall a. (P(a) \\/ ~ P(a))", "--sig", "@p1.sig", "--depth", "3"],
    ["prove", "a = b, P(a) |- P(b)", "--depth", "3"],
    ["prove", ", ".join(f"P{i}" for i in range(19)) + " |- P3", "--sig", "@p19.sig",
     "--depth", "3"],
    ["check", "@proof", "--sig", "@p1.sig"],
    ["countermodel", "|- P(a)", "--sig", "@p1.sig", "--max-k", "1"],
    ["countermodel", "P(c), Q(f(a), g(a, a)) |- R", "--max-k", "1"],
    ["sketch", "P(c)", "--steps", "2", "--depth", "3"],
]


@functools.cache
def _golden_file(name):
    if name == "proof":
        code, out = go("prove", "|- forall a. (P(a) \\/ ~ P(a))", "--sig", SIG, "--depth", "6")
        assert code == 0
        return out
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


def _mutate(text, edits):
    """text with each (kind, i, j) edit applied: delete or duplicate the
    character at i, or swap the characters at i and j (modulo its length)."""
    for kind, i, j in edits:
        if not text:
            break
        i, j = i % len(text), j % len(text)
        if kind == "delete":
            text = text[:i] + text[i + 1:]
        elif kind == "duplicate":
            text = text[:i] + text[i] + text[i:]
        else:
            chars = list(text)
            chars[i], chars[j] = chars[j], chars[i]
            text = "".join(chars)
    return text


EDITS = st.lists(st.tuples(st.sampled_from(("delete", "duplicate", "swap")),
                           st.integers(0, 999), st.integers(0, 999)), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_inputs_get_an_answer_or_an_error(tmp_path_factory, data):
    # a formula, sequent or input file a few characters off the goldens is
    # answered or refused with an exit code, never by a traceback or a hang
    case = data.draw(st.sampled_from(FUZZ_CASES))
    target = data.draw(st.sampled_from([i for i, arg in enumerate(case)
                                        if i == 1 or arg.startswith("@")]))
    edits = data.draw(EDITS)
    scratch = tmp_path_factory.getbasetemp() / "fuzz"
    scratch.mkdir(exist_ok=True)
    argv = []
    for i, arg in enumerate(case):
        text = _golden_file(arg[1:]) if arg.startswith("@") else arg
        if i == target:
            text = _mutate(text, edits)
        if arg.startswith("@"):
            (scratch / arg[1:]).write_text(text)
            text = str(scratch / arg[1:])
        argv.append(text)
    start = time.perf_counter()
    code, _ = go(*argv)
    assert time.perf_counter() - start < 3.0, argv
    assert code in (0, 1, 2, 64), argv


def test_benchmark_tracer_rebinds_every_traced_name_and_restores_it():
    # perfbench/tracer.py rebinds library names from outside, so deleting or
    # renaming one breaks the benchmark's --trace 1 mode; it is installed
    # here on the nomfol modules already imported, re-importing none
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    keys = [key.split(".") for key in tracer.SPANS + tracer.TIMED_LEAVES + tracer.COUNTED
            + ("tarski.iter_models",)]
    lib = types.SimpleNamespace(**{m: importlib.import_module("nomfol." + m) for m, _ in keys})
    # every binding of a traced function in a nomfol module, its own included
    traced = {id(getattr(getattr(lib, m), attr)) for m, attr in keys}
    bindings = [(module, attr, value) for name, module in list(sys.modules.items())
                if name.startswith("nomfol.") for attr, value in vars(module).items()
                if id(value) in traced]
    member = filters.PredSet.member
    t = tracer.Tracer(lib)
    try:
        t.install()
        assert all(getattr(module, attr) is not value for module, attr, value in bindings)
        assert filters.PredSet.member is not member
        assert len(list(lib.tarski.iter_models(parse_signature("pred P 1"), 2))) == 4
        assert t.counts["tarski.iter_models.models"] == 4
    finally:
        t.uninstall()
    assert all(getattr(module, attr) is value for module, attr, value in bindings)
    assert filters.PredSet.member is member
