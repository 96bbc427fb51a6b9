"""Spin-1 (D = 3) POVMs built from polytope shells.

A spin-1 pure state can be written, up to phase, as

    (sin(theta) (x1 + i x2), sin(theta) (x3 + i x4), cos(theta)),

with (x1..x4) on the unit sphere in R^4 and theta in [0, pi/2]. A "shell"
combines one theta with every vertex of a 24-cell or 600-cell; those
vertex sets make the k-shell sum sum_r c_r |<psi|psi_r>|^(2N) collapse to
a polynomial in t = cos^2(theta), independent of the remaining angular
variables. Choosing the weights c_r so the polynomial is identically 1
turns the shells into a POVM that is optimal for estimating an unknown
state from N copies.
"""

import math
import re

import numpy as np

from .polytopes import CELL24, CELL600, vertices
from .povm import AGGREGATE_TOL, CONSTRUCTIVE_TOL, Povm
from .symmetric import _check_copies
from .verify import verify_completeness

_POLE = np.array([0.0, 0.0, 1.0], dtype=complex)


class AngularCancellationError(ValueError):
    """The shell sum retains angular dependence: unsupported (polytope, copies).

    `deviation` is the Frobenius residual of the solved shells against the
    identity on the symmetric subspace.
    """

    def __init__(self, polytope: str, copies: int, deviation: float):
        self.polytope = polytope
        self.copies = copies
        self.deviation = deviation
        super().__init__(
            f"shell sum over the {polytope} is not a function of theta alone for "
            f"{copies} copies (angular deviation {deviation:.3e})"
        )


class WeightSolveError(ValueError):
    """No admissible weights make the shell polynomial identically one."""

    def __init__(self, message: str, residual: float, weights: np.ndarray):
        self.residual = residual
        self.weights = weights
        super().__init__(message)


def shell_states(polytope: str, theta: float) -> np.ndarray:
    """All states of one shell, as rows (sin(theta)(x1 + i x2),
    sin(theta)(x3 + i x4), cos(theta)) over the vertices (x1..x4).

    At theta = 0 every vertex yields the same state (0, 0, 1), so the
    shell degenerates to that single state; it is counted once. The
    polytope's name is checked all the same.
    """
    points = vertices(polytope)
    if theta == 0.0:
        return _POLE[None, :].copy()
    if not 0.0 <= theta <= 0.5 * math.pi + CONSTRUCTIVE_TOL:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    st = math.sin(theta)
    states = np.empty((points.shape[0], 3), dtype=complex)
    states[:, 0] = st * (points[:, 0] + 1j * points[:, 1])
    states[:, 1] = st * (points[:, 2] + 1j * points[:, 3])
    states[:, 2] = math.cos(theta)
    return states


def shell_polynomial(polytope: str, theta_r: float, copies: int) -> np.ndarray:
    """Coefficients of the shell sum sum_i |<psi|psi_i>|^(2N) as a polynomial
    in t = cos^2(theta), constant term first, as a read-only array.

    The closed form over the n states of the shell, with t_r = cos^2(theta_r),
    is S(t) = n sum_j C(N, j)^2 [(1-t)(1-t_r)]^j (t t_r)^(N-j) / (j+1): the
    shell sum wherever it is a function of t alone, which `solve_weights`
    checks. Above 43 copies the symmetric subspace exceeds
    `symmetric.MAX_SYM_DIM` and ValueError is raised.
    """
    _check_copies(3, copies)
    n = len(shell_states(polytope, theta_r))
    t_r = math.cos(theta_r) ** 2
    coeffs = np.zeros(copies + 1)
    for j in range(copies + 1):
        scale = n * math.comb(copies, j) ** 2 * (1 - t_r) ** j * t_r ** (copies - j) / (j + 1)
        coeffs[copies - j:] += scale * np.polynomial.polynomial.polypow([1.0, -1.0], j)
    coeffs.setflags(write=False)
    return coeffs


def solve_weights(polytope: str, angles, copies: int) -> np.ndarray:
    """Weights making the combined shell polynomial identically one.

    Solves sum_r c_r * poly_r(t) = 1 as a linear system on the monomial
    coefficients (constant term 1, all higher terms 0) by least squares.
    Succeeds only if the residual stays below 1e-9 and no weight is
    genuinely negative; a weight within 1e-12 of 0, of either sign, is 0.
    The shells must then resolve the identity on the symmetric subspace
    (`verify_completeness`); where the shell sum keeps an angular
    dependence they do not, and AngularCancellationError is raised (the
    24-cell supports at most 3 copies, the 600-cell up to 5). Angles within
    CONSTRUCTIVE_TOL of each other are one angle, and refused.
    """
    angles = [float(a) for a in angles]
    if not angles:
        raise ValueError("need at least one angle")
    ordered = sorted(angles)
    if any(b - a <= CONSTRUCTIVE_TOL for a, b in zip(ordered, ordered[1:])):
        raise ValueError(f"angles must be distinct, got {angles}")
    coeff_matrix = np.column_stack(
        [shell_polynomial(polytope, a, copies) for a in angles])  # (copies+1, k)
    target = np.zeros(copies + 1)
    target[0] = 1.0
    weights, *_ = np.linalg.lstsq(coeff_matrix, target, rcond=None)
    residual = float(np.max(np.abs(coeff_matrix @ weights - target)))
    if residual > AGGREGATE_TOL:
        raise WeightSolveError(
            f"no weights cancel the polynomial for angles {angles} on the "
            f"{polytope} with {copies} copies (residual {residual:.3e})",
            residual, weights)
    low = float(np.min(weights))
    if low < -CONSTRUCTIVE_TOL:
        offender = int(np.argmin(weights))
        raise WeightSolveError(
            f"angle set {angles} requires a negative weight "
            f"c_{offender + 1} = {low:.6e} (residual {residual:.3e})",
            residual, weights)
    weights[np.abs(weights) <= CONSTRUCTIVE_TOL] = 0.0
    report = verify_completeness(povm_from_shells(polytope, zip(angles, weights), copies))
    if not report.passed:
        raise AngularCancellationError(polytope, copies, report.worst)
    return weights


def povm_from_shells(polytope: str, shells, copies: int, provenance: str = "") -> Povm:
    """Assemble a POVM from (theta, weight) shells over one polytope.

    Zero-weight shells contribute nothing and are dropped from the
    element list. Every state of a surviving shell carries that shell's
    weight; antipodal vertices at theta = pi/2 give duplicate rays, which
    are retained as separate elements.
    """
    all_states = []
    all_weights = []
    for theta, weight in shells:
        weight = float(weight)
        if weight == 0.0:
            continue
        block = shell_states(polytope, float(theta))
        all_states.append(block)
        all_weights.append(np.full(block.shape[0], weight))
    if not all_states:
        raise ValueError("all shells have zero weight")
    return Povm(np.concatenate(all_weights), np.vstack(all_states), copies, provenance)


def parse_angle(text: str) -> float:
    """An angle written as a fraction of pi, n pi/d: '0', 'pi', 'pi/4', '3pi/8'.

    n/d is reduced first, so that every spelling of one angle is one float:
    '11pi/22' is 'pi/2'. A text of another form, a zero denominator and an
    angle beyond the float range raise ValueError, which names the text.
    """
    token = text.strip().lower().replace(" ", "")
    if token == "0":
        return 0.0
    match = re.fullmatch(r"(\d*)pi(?:/(\d+))?", token)
    if match is None:
        raise ValueError(f"cannot parse angle {text!r}; use forms like 0, pi/2, 3pi/8")
    try:
        numerator, denominator = int(match[1] or 1), int(match[2] or 1)
        common = math.gcd(numerator, denominator)
        angle = math.pi * (numerator // common) / (denominator // common)
    except ZeroDivisionError:
        raise ValueError(f"cannot parse angle {text!r}: division by zero") from None
    except (OverflowError, ValueError):  # past a float, or past the digits int() reads
        angle = math.inf
    if not math.isfinite(angle):
        raise ValueError(f"cannot parse angle {text!r}: too large for a float")
    return angle


# Table 1 of the paper as printed: for each copy count the polytope, the
# shell angles, read by `parse_angle`, and the exact weights, each (p, q, r)
# for (p + q sqrt(2))/r.
TABLE1 = {
    2: (CELL24, ("pi/4", "pi/2"), ((1, 0, 6), (1, 0, 12))),
    3: (CELL24, ("pi/6", "pi/4", "pi/3", "pi/2"),
        ((2, 0, 27), (1, 0, 18), (2, 0, 9), (7, 0, 108))),
    4: (CELL600, ("pi/6", "pi/4", "pi/3", "pi/2"),
        ((1, 0, 45), (1, 0, 60), (1, 0, 15), (7, 0, 360))),
    5: (CELL600, ("pi/6", "pi/4", "pi/3", "pi/2", "pi/8", "3pi/8"),
        ((2, 0, 225), (17, 0, 300), (2, 0, 75), (29, 0, 1800), (2, -1, 60), (2, 1, 60))),
}


def build_table1_povm(copies: int) -> Povm:
    """Bundled optimal spin-1 POVM for 2 to 5 copies (48/96/480/720 elements)."""
    if copies not in TABLE1:
        raise ValueError(
            f"no bundled spin-1 POVM for {copies} copies; available: {sorted(TABLE1)}")
    polytope, angles, weights = TABLE1[copies]
    shells = [(parse_angle(text), (p + q * math.sqrt(2.0)) / r)
              for text, (p, q, r) in zip(angles, weights)]
    return povm_from_shells(polytope, shells, copies, provenance=f"table1-N{copies}")
