"""Estimation-fidelity statistics: Monte Carlo simulation and the exact average.

The protocol: measure the N copies with the POVM, then guess that the
input was the state attached to the observed outcome. For a Haar-uniform
input the average fidelity of any POVM resolving the identity equals
(N+1)/(N+D), the optimal value.
"""

import math

import numpy as np

from .povm import AGGREGATE_TOL, Povm
from .reports import EstimationReport
from .sampling import chunks, haar_random_states
from .verify import blocks, outcome_probabilities, verify_completeness, _povm_id


def optimal_fidelity(copies: int, dim: int) -> float:
    """Upper bound (N+1)/(N+D) on the average estimation fidelity."""
    if copies < 1 or dim < 2:
        raise ValueError(f"need copies >= 1 and dim >= 2, got ({copies}, {dim})")
    return (copies + 1) / (copies + dim)


def haar_moment(dim: int, power: int) -> float:
    """Haar average of |<phi|psi>|^(2M) for fixed phi: M!(D-1)!/(M+D-1)!."""
    if dim < 2 or power < 0:
        raise ValueError(f"need dim >= 2 and power >= 0, got ({dim}, {power})")
    return math.factorial(power) * math.factorial(dim - 1) / math.factorial(power + dim - 1)


def exact_average_fidelity(povm: Povm) -> float:
    """Exact Haar-average fidelity of the guess-the-outcome-state protocol.

    Equals sum_r c_r * (N+1)!(D-1)!/(N+D)!, which reduces to the optimal
    (N+1)/(N+D) exactly when the weights sum to the symmetric-subspace
    dimension. Computed from the weight sum, so a broken POVM shows a
    visibly sub-optimal value; completeness is the caller's precondition.
    """
    return povm.weight_sum * haar_moment(povm.dim, povm.copies + 1)


def simulate(povm: Povm, trials: int, rng: np.random.Generator,
             keep_samples: bool = False) -> EstimationReport:
    """Monte Carlo run of the estimation protocol over Haar-random inputs.

    Per trial: draw |psi>, form outcome probabilities
    p_r = c_r |<psi_r|psi>|^(2N) (these sum to 1 for a verified POVM),
    sample an outcome by inverse CDF over the prefix sums, and record the
    fidelity |<psi_r|psi>|^2 of the guess. The POVM is verified first and
    rejected if it fails completeness. With `keep_samples` the per-trial
    fidelities are attached to the report.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    completeness = verify_completeness(povm)
    if not completeness.passed:
        raise ValueError(
            "POVM fails completeness (worst residual "
            f"{completeness.worst:.3e}); outcome probabilities would not normalize")

    fidelities = np.empty(trials)
    for start, stop in chunks(trials):
        rows = stop - start
        psis = haar_random_states(povm.dim, rows, rng)
        u = rng.random(rows)
        for lo, hi in blocks(rows):
            overlaps_sq, probs = outcome_probabilities(povm, psis[lo:hi])
            cdf = np.cumsum(probs, axis=1, out=probs)
            if float(np.max(np.abs(cdf[:, -1] - 1.0))) > AGGREGATE_TOL:
                raise RuntimeError("outcome probabilities failed to normalize")
            # picks the last outcome when rounding leaves the top of the
            # prefix sums below u
            cdf[:, -1] = np.inf
            picks = np.argmax(cdf >= u[lo:hi, None], axis=1)
            fidelities[start + lo:start + hi] = overlaps_sq[np.arange(hi - lo), picks]
            # freed before the next block allocates, which then reuses this
            # cache-warm memory instead of a second set of buffers
            del overlaps_sq, probs, cdf

    mean = float(np.mean(fidelities))
    std_error = float(np.std(fidelities, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return EstimationReport(
        povm_id=_povm_id(povm),
        trials=trials,
        mean_fidelity=mean,
        std_error=std_error,
        exact_fidelity=exact_average_fidelity(povm),
        optimal_bound=optimal_fidelity(povm.copies, povm.dim),
        samples=fidelities if keep_samples else None,
    )
