"""The model gradient check: its retry rule passes a correct gradient near
a relu kink and still fails a gradient that is slightly wrong."""

import numpy as np
import pytest

from slu import autodiff as ad
from slu.gradcheck import check_model, toy_setup


def sampled_check(seed: int):
    # The sampling the benchmark's output check uses: 4 coordinates per tensor.
    return check_model(*toy_setup(seed), max_coords_per_tensor=4,
                       rng=np.random.default_rng([seed, 5]))


def test_correct_gradient_near_a_relu_kink_passes():
    # Seed 912 samples encoder.bwd.b[13], where a window-FFN relu kink lies
    # within 1e-5 of the point: the 1e-3 and 1e-5 central differences both
    # straddle it, the 1e-7 one does not.
    result = sampled_check(912)
    assert result.passed, result.failures


@pytest.mark.parametrize("seed", [0, 912])
def test_scaled_matmul_weight_gradient_fails(monkeypatch, seed):
    matmul = ad.matmul

    def scaled(a, b):
        out = matmul(a, b)
        backward = out._backward
        if backward is not None:
            def wrong(g):
                ga, gb = backward(g)
                return ga, None if gb is None else gb * 0.99
            out._backward = wrong
        return out

    monkeypatch.setattr(ad, "matmul", scaled)
    assert not sampled_check(seed).passed
