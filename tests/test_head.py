import math

import numpy as np
import pytest

from pathsage import autograd as ag
from pathsage.errors import InvalidTarget, ShapeMismatch, WidthMismatch
from pathsage.head import HeadParams, head_forward, loss, predict

from helpers import check_grad

RNG = np.random.Generator(np.random.PCG64(55))


def make_head(depth=2, hidden=4, classes=3, seed=0, dtype=np.float64):
    """Weights ~ U(+-1/sqrt(fan_in)) and zero biases, as a model's head starts;
    built directly, since an odd `hidden` has no position table."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def affine(fan_in, fan_out):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)
        return (ag.Tensor(w, requires_grad=True),
                ag.Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True))

    return HeadParams(*affine(depth * hidden, hidden), *affine(hidden, classes))


# --- per-length pooling ------------------------------------------------

def pool(buckets):
    """C_1 || ... || C_s from (..., n_l, d) buckets, pooled as forward_batch does."""
    return ag.concat([ag.canonical_bucket_mean(b) for b in buckets])


def test_mean_of_identical_vectors():
    v = np.array([1.0, 2.0, 3.0])
    out = pool([np.stack([v, v, v])])
    np.testing.assert_allclose(out.data, v)


def test_cancellation():
    v = np.array([1.0, -2.0, 0.5])
    out = pool([np.stack([v, -v])])
    np.testing.assert_allclose(out.data, 0.0)


def test_concat_order_ascending_length():
    out = pool([np.array([[1.0, 0.0], [0.0, 1.0]]),
                np.array([[2.0, 2.0]])])
    np.testing.assert_allclose(out.data, [0.5, 0.5, 2.0, 2.0])


def test_empty_bucket_rejected():
    with pytest.raises(ShapeMismatch):
        pool([np.zeros((0, 3))])


def test_width_mismatch():
    # buckets of unequal width reach the head with the wrong input width
    with pytest.raises(WidthMismatch):
        head_forward(make_head(depth=2, hidden=4),
                     pool([np.zeros((1, 1, 3)), np.zeros((1, 1, 4))]))


def test_bucket_shuffle_bit_identical():
    for n in range(2, 41):
        bucket = [RNG.normal(size=4).astype(np.float32) for _ in range(n)]
        base = pool([np.stack(bucket)]).data
        for _ in range(6):
            perm = RNG.permutation(n)
            again = pool([np.stack([bucket[i] for i in perm])]).data
            assert base.tobytes() == again.tobytes(), n


# --- head_forward -------------------------------------------------------

def test_zero_params_give_zero_logits():
    params = make_head()
    for _, p in params.named_params():
        p.data[...] = 0.0
    logits = head_forward(params, ag.Tensor(np.ones((1, 8))))
    np.testing.assert_array_equal(logits.data, [[0.0, 0.0, 0.0]])
    sm = ag.softmax(logits).data
    np.testing.assert_allclose(sm, 1 / 3, atol=1e-7)


def test_hand_computed_affine():
    params = make_head(depth=1, hidden=2, classes=1)
    params.w1.data = np.array([[1.0, 0.0], [0.0, 1.0]])
    params.b1.data = np.array([0.0, -1.0])
    params.w2.data = np.array([[1.0], [0.0]])  # select first hidden unit
    params.b2.data = np.array([0.5])
    out = head_forward(params, ag.Tensor(np.array([[-3.0, 7.0], [2.0, 7.0]])))
    # relu(-3)=0 -> 0*1 + 0.5; relu(2)=2 -> 2*1 + 0.5
    np.testing.assert_allclose(out.data, [[0.5], [2.5]])


def test_head_matches_naive_matrix_oracle():
    params = make_head(depth=2, hidden=5, classes=4, seed=3)
    x = RNG.normal(size=(1, 10))
    expect = np.maximum(x @ params.w1.data + params.b1.data, 0) @ params.w2.data + params.b2.data
    out = head_forward(params, ag.Tensor(x))
    np.testing.assert_allclose(out.data, expect, atol=1e-5)


def test_batched_head():
    params = make_head(depth=2, hidden=5, classes=4, seed=3)
    x = RNG.normal(size=(6, 10))
    out = head_forward(params, ag.Tensor(x))
    assert out.shape == (6, 4)
    for i in range(6):
        row = head_forward(params, ag.Tensor(x[i:i + 1]))
        np.testing.assert_allclose(row.data[0], out.data[i], atol=1e-12)


def test_unbatched_input_rejected():
    with pytest.raises(WidthMismatch):
        head_forward(make_head(depth=2, hidden=5), ag.Tensor(np.zeros(10)))


# --- loss ---------------------------------------------------------------

def test_uniform_logits_single_label_loss_is_ln_k():
    for k in (2, 3, 7):
        val = loss(ag.Tensor(np.zeros((1, k))), [0], "single_label").item()
        assert abs(val - math.log(k)) < 1e-6


def test_zero_logits_multi_label_loss_is_ln_2():
    val = loss(ag.Tensor(np.zeros((1, 5))), np.zeros((1, 5)), "multi_label").item()
    assert abs(val - math.log(2)) < 1e-6


def test_loss_matches_64bit_oracle():
    logits = RNG.normal(size=(7, 4)) * 8
    targets = RNG.integers(0, 4, size=7)
    got = loss(ag.Tensor(logits), targets, "single_label").item()
    z = logits.astype(np.float64)
    lse = np.log(np.exp(z - z.max(1, keepdims=True)).sum(1)) + z.max(1)
    expect = float(np.mean(lse - z[np.arange(7), targets]))
    assert abs(got - expect) < 1e-6

    y = (RNG.random((7, 4)) < 0.5).astype(np.float64)
    got = loss(ag.Tensor(logits), y, "multi_label").item()
    sig = 1 / (1 + np.exp(-z))
    expect = float(np.mean(-(y * np.log(sig) + (1 - y) * np.log(1 - sig))))
    assert abs(got - expect) < 1e-6


def test_loss_stable_at_large_margin():
    val = loss(ag.Tensor(np.array([[30.0, -30.0]])), [0], "single_label").item()
    assert 0.0 <= val < 1e-10
    val = loss(ag.Tensor(np.array([[30.0, -30.0]])), np.array([[1.0, 0.0]]), "multi_label").item()
    assert 0.0 <= val < 1e-10


def test_loss_positive_and_vanishes_at_margin_20():
    logits = np.full((1, 4), -20.0)
    logits[0, 2] = 20.0
    assert loss(ag.Tensor(logits), [2], "single_label").item() < 1e-8
    assert loss(ag.Tensor(RNG.normal(size=(3, 4))), RNG.integers(0, 4, 3), "single_label").item() >= 0


def test_invalid_targets():
    with pytest.raises(InvalidTarget):
        loss(ag.Tensor(np.zeros((1, 3))), [5], "single_label")
    with pytest.raises(InvalidTarget):
        loss(ag.Tensor(np.zeros((2, 3))), [0], "single_label")
    with pytest.raises(InvalidTarget):
        loss(ag.Tensor(np.zeros((1, 3))), np.array([[0.0, 2.0, 0.0]]), "multi_label")
    with pytest.raises(InvalidTarget):
        loss(ag.Tensor(np.zeros((1, 3))), [0], "other_task")


# --- predict ------------------------------------------------------------

def test_predict_argmax():
    assert predict(ag.Tensor([[0.0, 1.0, 0.0]]), "single_label") == 1


def test_predict_threshold():
    np.testing.assert_array_equal(
        predict(ag.Tensor([[-2.0, 0.0, 3.0]]), "multi_label"), [[0, 1, 1]])


def test_predict_tie_breaks_low():
    assert predict(ag.Tensor([[5.0, 5.0]]), "single_label") == 0


def test_argmax_invariant_to_constant_shift():
    z = RNG.normal(size=(10, 5))
    base = predict(ag.Tensor(z), "single_label")
    np.testing.assert_array_equal(base, predict(ag.Tensor(z + 123.0), "single_label"))


# --- end-to-end gradient ------------------------------------------------

def test_aggregate_plus_head_gradient():
    params = make_head(depth=2, hidden=4, classes=3, seed=11)
    b1 = RNG.normal(size=(1, 3, 4))  # one central node's buckets
    b2 = RNG.normal(size=(1, 2, 4))
    target = np.array([1])

    def build(ts):
        agg = pool([ts[0], ts[1]])
        p = make_head(depth=2, hidden=4, classes=3, seed=11)
        p.w1, p.b1, p.w2, p.b2 = ts[2], ts[3], ts[4], ts[5]
        logits = head_forward(p, agg)
        return loss(logits, target, "single_label")

    arrays = [b1, b2, params.w1.data, params.b1.data, params.w2.data, params.b2.data]
    worst = check_grad(build, arrays, step=1e-5, rtol=1e-3)
    assert worst < 1e-3
