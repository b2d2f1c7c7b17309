"""Line-oriented reports for the axiom suites and checkers."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class AxiomResult:
    name: str
    passed: int = 0
    counterexample: str | None = None
    exercised: bool = True

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def line(self) -> str:
        if not self.exercised:
            return f"AXIOM {self.name} NOT-EXERCISED"
        if self.ok:
            return f"AXIOM {self.name} PASS {self.passed}"
        return f"AXIOM {self.name} FAIL {self.counterexample}"


@dataclass
class SuiteReport:
    results: list[AxiomResult] = field(default_factory=list)

    def add(self, result: AxiomResult) -> None:
        self.results.append(result)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def run_law(report: SuiteReport, name: str, n: int, case) -> None:
    """Run one named law on n sampled cases; record the first failure.

    ``case()`` returns None on success or a counterexample string.  A
    StopIteration from the sampler marks the law as not exercised.
    """
    result = AxiomResult(name)
    try:
        for _ in range(n):
            ce = case()
            if ce is not None:
                result.counterexample = ce
                break
            result.passed += 1
    except StopIteration:
        result.exercised = result.passed > 0
    report.add(result)
