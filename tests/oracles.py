"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the package's symmetric-subspace
embedding and analytic Haar moments: tensor powers are built explicitly
in the full D^N space, and projective averages are computed by quadrature
over the (theta, phi, chi1, chi2) parametrization of a D = 3 pure state.
"""

import numpy as np


def tensor_power(state, copies):
    """|psi>^(x copies) as an explicit vector in C^(D^copies)."""
    out = np.array([1.0 + 0j])
    for _ in range(copies):
        out = np.kron(out, np.asarray(state, dtype=complex))
    return out


def tensor_power_overlap(phi, psi, copies):
    """<phi^N|psi^N> computed in the full tensor-product space."""
    return np.vdot(tensor_power(phi, copies), tensor_power(psi, copies))


def spin1_state(theta, phi, chi1, chi2):
    """(e^(i chi1) sin t cos p, e^(i chi2) sin t sin p, cos t), written out."""
    return np.array([
        np.exp(1j * chi1) * np.sin(theta) * np.cos(phi),
        np.exp(1j * chi2) * np.sin(theta) * np.sin(phi),
        np.cos(theta) * (1.0 + 0j),
    ])


def projective_moment_quadrature(reference, power, n_polar=48, n_phase=16):
    """Average of |<ref|psi>|^(2*power) over uniform projective measure, D = 3.

    The uniform measure in the (theta, phi, chi1, chi2) coordinates has
    density sin^2(theta) sin(2 theta) sin(2 phi); theta and phi are
    integrated by Gauss-Legendre on [0, pi/2] and the periodic phases on
    uniform grids (exact for the low-degree trigonometric integrand).
    """
    reference = np.asarray(reference, dtype=complex)
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_polar)
    theta = (nodes + 1.0) * (np.pi / 4)      # map [-1,1] -> [0, pi/2]
    wt = gl_weights * (np.pi / 4)
    phi = theta.copy()
    wp = wt.copy()
    chi = 2 * np.pi * np.arange(n_phase) / n_phase
    wc = np.full(n_phase, 2 * np.pi / n_phase)

    density = (np.sin(theta) ** 2 * np.sin(2 * theta) * wt)[:, None, None, None] \
        * (np.sin(2 * phi) * wp)[None, :, None, None] \
        * wc[None, None, :, None] * wc[None, None, None, :]

    a1 = (np.sin(theta)[:, None, None, None]
          * np.cos(phi)[None, :, None, None]
          * np.exp(1j * chi)[None, None, :, None]
          * np.ones(n_phase)[None, None, None, :])
    a2 = (np.sin(theta)[:, None, None, None]
          * np.sin(phi)[None, :, None, None]
          * np.ones(n_phase)[None, None, :, None]
          * np.exp(1j * chi)[None, None, None, :])
    a3 = np.cos(theta)[:, None, None, None] * np.ones((1, n_polar, n_phase, n_phase))

    overlap = (reference[0].conjugate() * a1
               + reference[1].conjugate() * a2
               + reference[2].conjugate() * a3)
    integrand = np.abs(overlap) ** (2 * power)
    return float(np.sum(integrand * density) / np.sum(density))


def count_multisets(symbols, size):
    """Number of multisets of `size` picks from `symbols` symbols, by enumeration."""
    from itertools import combinations_with_replacement
    return sum(1 for _ in combinations_with_replacement(range(symbols), size))


def brute_force_identity_residual(weights, states, copies):
    """Frobenius residual of sum c_r P_r^(x N) - P_sym in the full D^N space.

    P_sym is built by explicitly averaging the permutation operators, so
    this residual agrees with the symmetric-subspace one without sharing
    any code with it. Only practical for small D^N.
    """
    from itertools import permutations

    states = np.asarray(states, dtype=complex)
    dim = states.shape[1]
    full = dim ** copies

    acc = np.zeros((full, full), dtype=complex)
    for w, s in zip(weights, states):
        v = tensor_power(s, copies)
        acc += w * np.outer(v, v.conj())

    sym = np.zeros((full, full))
    perms = list(permutations(range(copies)))
    for perm in perms:
        mat = np.zeros((full, full))
        for idx in range(full):
            digits = np.unravel_index(idx, (dim,) * copies)
            permuted = tuple(digits[p] for p in perm)
            mat[np.ravel_multi_index(permuted, (dim,) * copies), idx] = 1.0
        sym += mat
    sym /= len(perms)

    return float(np.linalg.norm(acc - sym))


def reference_haar_states(dim, count, rng):
    """Haar states by the first expression the package used: the draw's
    halves as real and imaginary parts, divided in place by the row norms
    of np.linalg.norm."""
    block = rng.standard_normal((count, 2 * dim))
    z = block[:, :dim] + 1j * block[:, dim:]
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def reference_simulate_samples(povm, trials, rng):
    """Per-trial fidelities from the unblocked forward estimation kernel.

    Every stage runs over a whole chunk of 4096 trials at once: states for
    the chunk, then one uniform per trial, both from the chunk's own
    generator `rng.spawn(1)[0]`, taken in chunk order, then overlaps,
    probabilities, their row-sum check, prefix sums and the inverse-CDF
    pick, clamped to the last outcome. The chunk size is written out here
    so that a change to the package's stream order shows up as a mismatch.

    For D <= 4, |<psi_r|psi>|^2 = sum_a |s_a|^2 |psi_a|^2 + 2 sum_(a<b)
    (Re s_a conj(s_b) Re psi_a conj(psi_b) + Im s_a conj(s_b) Im psi_a
    conj(psi_b)), s = psi_r: one real product of the chunk's D^2 features
    of psi psi^dag, held feature-major, with the elements' features, those
    off the diagonal doubled. For D >= 5 an overlap <psi_r|psi> = sum_j
    conj(s_rj) psi_j is formed in real arithmetic: with psi_j = x_j + i y_j
    and s_rj = u + i v, its real part is sum_j x_j u + y_j v and its
    imaginary part sum_j x_j v - y_j u, each a real product of the state's
    interleaved (x, y) with one factor matrix, and |<psi_r|psi>|^2 is
    re^2 + im^2. Every factor has zero columns up to a multiple of 8.
    """
    from spinpovm.sampling import haar_random_states

    k = povm.size
    s = povm.states

    def padded(factor):
        return np.concatenate([factor, np.zeros((len(factor), -k % 8))], axis=1)

    if povm.dim <= 4:
        factor = _reference_features(s)
        factor[povm.dim:] *= 2.0
        factor = padded(factor)
    else:
        real_factor = padded(np.stack([s.real, s.imag], axis=2).reshape(k, -1).T)
        imag_factor = padded(np.stack([s.imag, -s.real], axis=2).reshape(k, -1).T)
    fidelities = np.empty(trials)
    done = 0
    while done < trials:
        batch = min(trials - done, 4096)
        chunk_rng = rng.spawn(1)[0]
        psis = haar_random_states(povm.dim, batch, chunk_rng)
        if povm.dim <= 4:
            overlaps_sq = (_reference_features(psis).T @ factor)[:, :k]
        else:
            pairs = psis.view(float)
            overlaps_sq = ((pairs @ real_factor) ** 2 + (pairs @ imag_factor) ** 2)[:, :k]
        probs = povm.weights * overlaps_sq ** povm.copies
        totals = probs.sum(axis=1)
        if float(np.max(np.abs(totals - 1.0))) > 1e-9:
            raise RuntimeError("outcome probabilities failed to normalize")
        u = chunk_rng.random(batch)
        cdf = np.cumsum(probs, axis=1)
        picks = np.minimum(np.sum(cdf < u[:, None], axis=1), k - 1)
        fidelities[done:done + batch] = overlaps_sq[np.arange(batch), picks]
        done += batch
    return fidelities


def _reference_features(states):
    """The (D^2, rows) features of each row's psi psi^dag, feature-major:
    |psi_a|^2, then Re psi_a conj(psi_b) and Im psi_a conj(psi_b) for a < b
    in row-major upper-triangle order, each from the real parts' products."""
    x, y = states.real.T, states.imag.T
    a, b = np.triu_indices(states.shape[1], 1)
    return np.concatenate([x * x + y * y, x[a] * x[b] + y[a] * y[b], y[a] * x[b] - x[a] * y[b]])


def reference_shell_states(polytope, theta):
    """One shell's states, built one vertex at a time.

    Each row is (sin t (x1 + i x2), sin t (x3 + i x4), cos t) evaluated on
    scalars, from a freshly built vertex set; theta = 0 gives the single
    pole state (0, 0, 1).
    """
    import math

    from spinpovm.polytopes import CELL24, _cell24_vertices, _cell600_vertices

    if theta == 0.0:
        return np.array([[0.0, 0.0, 1.0]], dtype=complex)
    verts = _cell24_vertices() if polytope == CELL24 else _cell600_vertices()
    st = math.sin(theta)
    return np.array([
        [st * (v[0] + 1j * v[1]), st * (v[2] + 1j * v[3]), math.cos(theta)]
        for v in verts
    ])


def reference_value_counts(dots):
    """Per-row and upper-triangle {value: count} dicts of a square matrix,
    filled one entry at a time in row order, diagonal skipped."""
    k = dots.shape[0]
    pair_counts = {}
    per_state = []
    for s in range(k):
        counts = {}
        for r in range(k):
            if r == s:
                continue
            value = float(dots[s, r])
            counts[value] = counts.get(value, 0) + 1
            if r > s:
                pair_counts[value] = pair_counts.get(value, 0) + 1
        per_state.append(counts)
    return pair_counts, per_state


def reference_dumps(data):
    """The json module's indented, key-sorted text plus a newline: the
    bytes every document and report has always been written as."""
    import json

    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _reference_pairs(states):
    """[re, im] pairs of a (k, D) complex array, as k nested lists."""
    return np.ascontiguousarray(states, dtype=complex).view(float).reshape(
        *states.shape, 2).tolist()


def reference_povm_document(povm):
    """A POVM document as the dict that the json module writes."""
    return {
        "schema": "spinpovm/povm-v1",
        "dim": povm.dim,
        "copies": povm.copies,
        "spin": povm.spin,
        "provenance": povm.provenance,
        "elements": [
            {"weight": w, "state": pairs}
            for w, pairs in zip(povm.weights.tolist(), _reference_pairs(povm.states))
        ],
    }


def reference_catalog_document(cat):
    """A ray catalog document as the dict that the json module writes."""
    return {
        "schema": "spinpovm/rays-v1",
        "dim": cat.states.shape[1],
        "label": cat.label,
        "states": [
            {"name": name, "state": pairs}
            for name, pairs in zip(cat.names, _reference_pairs(cat.states))
        ],
    }


def reference_csv_rows(samples, start=0):
    """Per-trial CSV rows, the first one trial `start`, written one f-string
    row at a time."""
    rows = enumerate(samples.tolist(), start)
    return "".join(f"{index},{value!r}\n" for index, value in rows)


def reference_csv(samples):
    """Per-trial CSV text: the header, then the rows."""
    return "trial,fidelity\n" + reference_csv_rows(samples)


def reference_moment_sums(states, weights, power):
    """sum_r c_r (n_r.n_s)^m for every s, from the full k x k matrix of
    Bloch dots (D |<a|b>|^2 - 1) / (D - 1), formed without the package."""
    states = np.asarray(states, dtype=complex)
    dim = states.shape[1]
    dots = (dim * np.abs(states.conj() @ states.T) ** 2 - 1.0) / (dim - 1)
    return (dots ** power).T @ weights
