"""24-cell and 600-cell vertex sets: counts, norms, and dot-product spectra."""

import numpy as np
import pytest

from spinpovm import CELL24, CELL600, GOLDEN, vertices
from spinpovm.polytopes import _cell24_vertices, _cell600_vertices


def _assert_dot_values(verts, expected):
    dots = np.round(verts @ verts.T, 12)
    assert set(np.unique(dots)) == {round(v, 12) for v in expected}


def test_cell24_count_and_norms():
    verts = vertices(CELL24)
    assert verts.shape == (24, 4)
    assert np.max(np.abs(np.sum(verts ** 2, axis=1) - 1.0)) < 1e-12


def test_cell600_count_and_norms():
    verts = vertices(CELL600)
    assert verts.shape == (120, 4)
    assert np.max(np.abs(np.sum(verts ** 2, axis=1) - 1.0)) < 1e-12


def test_golden_template_is_unit():
    # (tau^2 + 1 + tau^-2)/4 = 1 via tau^2 = tau + 1
    template = np.array([GOLDEN, 1.0, 1.0 / GOLDEN, 0.0]) / 2.0
    assert abs(template @ template - 1.0) < 1e-12


def test_no_duplicate_vertices():
    for verts in (vertices(CELL24), vertices(CELL600)):
        gram = verts @ verts.T
        # distinct unit vectors have dot < 1; duplicates would hit 1 off-diagonal
        off_diag = gram - np.diag(np.diag(gram))
        assert np.max(off_diag) < 1.0 - 1e-12


def test_negation_closure():
    for verts in (vertices(CELL24), vertices(CELL600)):
        gram = verts @ verts.T
        assert all(np.min(gram[i]) < -1.0 + 1e-12 for i in range(len(verts)))


def test_cell24_is_subset_of_cell600():
    v24, v600 = vertices(CELL24), vertices(CELL600)
    for v in v24:
        assert np.min(np.linalg.norm(v600 - v, axis=1)) < 1e-12


def test_cell24_dot_spectrum():
    # frozen from brute force over all 24 x 24 pairs
    _assert_dot_values(vertices(CELL24), (-1.0, -0.5, 0.0, 0.5, 1.0))


def test_cell600_dot_spectrum():
    # frozen from brute force over all 120 x 120 pairs
    expected = (-1.0, -GOLDEN / 2, -0.5, -1 / (2 * GOLDEN), 0.0,
                1 / (2 * GOLDEN), 0.5, GOLDEN / 2, 1.0)
    _assert_dot_values(vertices(CELL600), expected)


def test_vertices_dispatch():
    assert np.array_equal(vertices(CELL24), _cell24_vertices())
    assert np.array_equal(vertices(CELL600), _cell600_vertices())
    with pytest.raises(ValueError, match="unknown polytope"):
        vertices("5-cell")


@pytest.mark.parametrize("kind", [CELL24, CELL600])
def test_vertices_are_built_once_and_read_only(kind):
    verts = vertices(kind)
    assert vertices(kind) is verts
    with pytest.raises(ValueError, match="read-only"):
        verts[0, 0] = 0.0
