"""Structured check and estimation reports, serializable to plain dicts."""

from dataclasses import dataclass, field

import numpy as np

from .povm import AGGREGATE_TOL


@dataclass(frozen=True)
class Check:
    """One named residual; it passes when at most `AGGREGATE_TOL`."""

    name: str
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual <= AGGREGATE_TOL

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": AGGREGATE_TOL,
            "passed": bool(self.passed),
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a batch of residual checks against one POVM."""

    povm_id: str
    checks: tuple

    @property
    def worst(self) -> float:
        return float(np.max([check.residual for check in self.checks]))

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.povm_id, self.checks + other.checks)

    def to_dict(self) -> dict:
        return {
            "povm": self.povm_id,
            "checks": [check.to_dict() for check in self.checks],
            "worst": float(self.worst),
            "passed": bool(self.passed),
        }


@dataclass(frozen=True)
class EstimationReport:
    """Fidelity statistics from a simulated estimation run."""

    povm_id: str
    trials: int
    mean_fidelity: float
    std_error: float
    exact_fidelity: float
    optimal_bound: float
    samples: np.ndarray | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "povm": self.povm_id,
            "trials": int(self.trials),
            "mean_fidelity": float(self.mean_fidelity),
            "std_error": float(self.std_error),
            "exact_fidelity": float(self.exact_fidelity),
            "optimal_bound": float(self.optimal_bound),
        }
