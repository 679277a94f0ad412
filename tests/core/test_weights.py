"""Unit tests for the paper's weight functions W_Haar, W_Nom and W_HN.

Each weight function lives on its transform: ``haar_weight_vector``
(§IV-B), ``NominalTransform.weight_vector`` (§V-B) and
``HNTransform.weight_vectors`` (§VI-B, per-axis vectors whose outer
product is the full weight function).
"""

import numpy as np

from repro.transforms.haar import haar_weight_vector
from repro.transforms.multidim import HNTransform
from repro.transforms.nominal import NominalTransform


class TestWeights:
    def test_w_haar(self):
        np.testing.assert_array_equal(haar_weight_vector(4), [4, 4, 2, 2])

    def test_w_nominal(self, figure3_hierarchy):
        weights = NominalTransform(figure3_hierarchy).weight_vector()
        assert weights[0] == 1.0
        np.testing.assert_allclose(weights[3:], 0.75)

    def test_w_hn_per_axis(self, mixed_schema):
        vectors = HNTransform(mixed_schema).weight_vectors()
        assert len(vectors) == 3
        assert len(vectors[0]) == 8  # padded Haar
        assert len(vectors[1]) == 9  # nominal nodes
        assert len(vectors[2]) == 4

    def test_w_hn_sa_axis_is_ones(self, mixed_schema):
        vectors = HNTransform(mixed_schema, sa_names=("X",)).weight_vectors()
        np.testing.assert_array_equal(vectors[0], np.ones(5))
