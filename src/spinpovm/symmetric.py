"""Symmetric-subspace embedding for N identical copies of a qudit.

N copies of a pure state live in the maximally symmetric subspace of the
N-qudit space, whose dimension is C(N+D-1, D-1). Working directly in an
occupation-number basis of that subspace keeps D=3, N=5 at dimension 21
instead of 3^5 = 243. The coordinate of |psi>^(x N) at occupation
(n_1..n_D) is sqrt(N!/(n_1!..n_D!)) * prod_j a_j^n_j, so overlaps obey
<phi^N|psi^N> = <phi|psi>^N by the multinomial theorem.
"""

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np


def sym_dim(dim: int, copies: int) -> int:
    """Dimension of the symmetric subspace: (N+D-1)!/(N!(D-1)!)."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    return math.comb(copies + dim - 1, dim - 1)


# The largest symmetric subspace any check works in: a document of a few
# kB could otherwise ask for any amount of memory. At the bound the
# sym_dim x sym_dim operator takes 16 MiB, and below it every basis
# coefficient fits a float (the first overflow is at sym_dim 1031).
MAX_SYM_DIM = 1024


def _check_copies(dim: int, copies: int) -> None:
    """Refuse a copy count whose symmetric subspace exceeds MAX_SYM_DIM."""
    size = sym_dim(dim, copies)
    if size > MAX_SYM_DIM:
        raise ValueError(f"copies = {copies} is too many for dim = {dim}: the symmetric "
                         f"subspace has dimension {size}, above {MAX_SYM_DIM}")


def multi_indices(dim: int, copies: int) -> tuple:
    """All occupation tuples summing to `copies`, in decreasing lexicographic order."""
    sym_dim(dim, copies)  # argument validation
    # the index multisets in increasing order are the occupations in decreasing order
    return tuple(tuple(map(combo.count, range(dim)))
                 for combo in combinations_with_replacement(range(dim), copies))


@lru_cache(maxsize=None)
def _embedding_arrays(dim: int, copies: int):
    """(occupations matrix, multinomial sqrt coefficients) for the basis."""
    _check_copies(dim, copies)
    occ = np.array(multi_indices(dim, copies), dtype=int)
    fact_n = math.factorial(copies)
    coeff = np.array([
        math.sqrt(fact_n / math.prod(math.factorial(int(n)) for n in row))
        for row in occ
    ])
    occ.setflags(write=False)
    coeff.setflags(write=False)
    return occ, coeff


# Most powers (rows x basis columns x D) that `symmetric_power_matrix` holds at
# once: a bundled POVM's 720 x 21 x 3, not the one-copy C^256's 128 MiB per block.
_POWER_ELEMENTS = 2 ** 16


def symmetric_power_matrix(states: np.ndarray, copies: int) -> np.ndarray:
    """Embed unit rows of `states` (k, D) as rows of a (k, sym_dim) matrix,
    in slices of basis columns of at most _POWER_ELEMENTS powers each."""
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    occ, coeff = _embedding_arrays(states.shape[1], copies)
    step = max(1, _POWER_ELEMENTS // (max(len(states), 1) * states.shape[1]))
    return coeff * np.concatenate([np.prod(states[:, None, :] ** occ[lo:lo + step], axis=2)
                                   for lo in range(0, len(occ), step)], axis=1)


def _frobenius_identity_residual(operator: np.ndarray) -> float:
    """Frobenius norm of `operator` - I, for the square `operator` (sum_r w_r
    v_r v_r^dag in the Frobenius check), which it overwrites."""
    operator -= np.eye(len(operator))
    return float(np.linalg.norm(operator))

