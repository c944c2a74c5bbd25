"""Defect catalogue: tests that the checks still catch what they caught.

Each entry plants one defect the project has already met, as a
``monkeypatch`` that swaps one function in ``slu`` for a defective copy,
and names the Tier-1 check that must catch it. The test runs the check on
the real code, where it must pass, then with the defect, where it must
fail. This is mutation testing (DeMillo, Lipton & Sayward 1978) limited
to known defects. A change that rewrites a mutated function updates its
mutant here in the same change; a mutant is never dropped to make a check
pass.
"""

import numpy as np
import pytest

from slu import autodiff as ad

import test_autodiff
import test_gradcheck


def getitem_assigns(monkeypatch):
    """``getitem``'s backward assigns where it should add: an entry read
    more than once keeps only its last gradient."""

    def getitem(a, idx):
        a = ad._as_tensor(a)

        def backward(g):
            at = np.arange(a.data.size).reshape(a.data.shape)[idx]
            d = np.zeros(a.data.size, dtype=a.data.dtype)
            d[at.ravel()] = g.ravel()
            return (d.reshape(a.data.shape),)

        return ad._make_node(a.data[idx], (a,), backward)

    monkeypatch.setattr(ad, "getitem", getitem)


def maxpool_routes_every_tie(monkeypatch):
    """``maxpool_over_time``'s backward sends ``g`` to every row that ties
    for its column's max, not to the earliest one only."""
    maxpool = ad.maxpool_over_time

    def every_tie(a, lengths):
        out = maxpool(a, lengths)
        if out._backward is not None:
            at_peak = a.data == np.repeat(out.data, lengths, axis=0)
            out._backward = lambda g: (np.repeat(g, lengths, axis=0) * at_peak,)
        return out

    monkeypatch.setattr(ad, "maxpool_over_time", every_tie)


def accumulate_without_copy(monkeypatch):
    """``_accumulate`` keeps a first contribution of the right shape and
    dtype as the gradient buffer itself, so later in-place adds write
    into an array that a closure may have handed to another parent."""
    accumulate = ad._accumulate

    def without_copy(node, v):
        if node.grad is None and v.shape == node.shape and v.dtype == node.dtype:
            node.grad = v
        else:
            accumulate(node, v)

    monkeypatch.setattr(ad, "_accumulate", without_copy)


def matmul_weight_gradient_scaled(monkeypatch):
    """``matmul``'s gradient for its right operand (the weight) ×0.9."""
    matmul = ad.matmul

    def scaled(a, b):
        out = matmul(a, b)
        backward = out._backward
        if backward is not None:
            def wrong(g):
                ga, gb = backward(g)
                return ga, None if gb is None else gb * 0.9
            out._backward = wrong
        return out

    monkeypatch.setattr(ad, "matmul", scaled)


def getitem_matches_add_at():
    for idx in (np.array([4, 1, 1, 6, 0, 4, 4]), (np.array([1, 1, 6]), np.array([4, 4, 0]))):
        test_autodiff.TestRowScatter().test_matches_add_at(np.random.default_rng(0), idx)


def maxpool_tie_routes_to_earliest():
    test_autodiff.TestFiniteDifferences().test_maxpool_tie_routes_to_earliest()


def shared_first_gradients_do_not_alias():
    test_autodiff.TestBackward().test_shared_first_gradients_do_not_alias()


def model_gradcheck():
    result = test_gradcheck.sampled_check(0)
    assert result.passed, result.failures


CATALOGUE = {
    "getitem_assigns": (getitem_assigns, getitem_matches_add_at),
    "maxpool_routes_every_tie": (maxpool_routes_every_tie, maxpool_tie_routes_to_earliest),
    "accumulate_without_copy": (accumulate_without_copy, shared_first_gradients_do_not_alias),
    "matmul_weight_gradient_scaled": (matmul_weight_gradient_scaled, model_gradcheck),
}


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_check_catches_the_defect(monkeypatch, name):
    plant, check = CATALOGUE[name]
    check()
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check()
