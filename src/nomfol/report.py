"""Line-oriented reports for the axiom suites and checkers."""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class AxiomResult:
    name: str
    passed: int = 0
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def line(self) -> str:
        if self.ok:
            return f"AXIOM {self.name} PASS {self.passed}"
        return f"AXIOM {self.name} FAIL {self.counterexample}"


@dataclass
class SuiteReport:
    results: list[AxiomResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def run_laws(laws: dict, n: int, seed: int, *args) -> SuiteReport:
    """Run each named law on n sampled cases; record its first failure.

    ``laws`` maps a name to ``case(rng, *args)``, which returns None on
    success or a counterexample string.  Each law draws from its own rng,
    seeded from the seed and the law's name alone, so its samples do not
    depend on which other laws run.
    """
    results = []
    for name, case in laws.items():
        rng = random.Random(f"{name} {seed}")
        result = AxiomResult(name)
        for _ in range(n):
            ce = case(rng, *args)
            if ce is not None:
                result.counterexample = ce
                break
            result.passed += 1
        results.append(result)
    return SuiteReport(results)
