from types import SimpleNamespace

import numpy as np
import pytest

from pathsage import autograd as ag
from pathsage import head
from pathsage.encoder import _attention, _feed_forward, _readout_attention
from pathsage.errors import InvalidSetting, NonScalarLoss, ShapeMismatch
from pathsage.graph import load_dataset
from pathsage.metrics import eval_split
from pathsage.model import ModelConfig, PathSageModel, distinct_rows
from pathsage.sampler import SamplePlan, sample_paths, stream_rng
from pathsage.synth import synth_planted_khop
from pathsage.trainer import OptimizerState, TrainConfig, train_epoch

from helpers import bmm, check_grad, closure_values, mul, tape_bytes, tsum

RNG = np.random.Generator(np.random.PCG64(1234))


def test_softmax_uniform():
    out = ag.softmax(ag.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_softmax_rows_normalized_and_positive():
    x = ag.Tensor(RNG.normal(size=(5, 7)) * 10)
    s = ag.softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)
    assert (s > 0).all()


@pytest.mark.parametrize("t", [1, 2, 7, 8, 9, 17, 40])
def test_float32_softmax_matches_float64_oracle(t):
    x32 = (RNG.normal(size=(50, 3, 4, t)) * 4).astype(np.float32)
    g32 = RNG.normal(size=x32.shape).astype(np.float32)
    x = ag.Tensor(x32, requires_grad=True)
    out = ag.softmax(x)
    ag.backward(tsum(mul(out, ag.Tensor(g32))))
    x64, g64 = x32.astype(np.float64), g32.astype(np.float64)
    e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    want_gx = s * (g64 - (g64 * s).sum(axis=-1, keepdims=True))
    assert out.dtype == np.float32 and x.grad.dtype == np.float32
    assert np.abs(out.data - s).max() <= 1e-6
    assert np.abs(x.grad - want_gx).max() <= 1e-5 * np.abs(g64).max()


@pytest.mark.parametrize("t", range(1, 8))
def test_float32_softmax_of_short_rows_is_bit_identical_to_a_row_sum(t):
    # numpy's reduce adds a row shorter than 8 in order, as softmax's column
    # fold does; a numpy that reorders short sums fails here
    x = (RNG.normal(size=(500, 4, t)) * 3).astype(np.float32)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert ag.softmax(ag.Tensor(x)).data.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()


def test_relu_forward_and_vjp():
    x = ag.Tensor([-1.0, 0.0, -0.0, 2.0], requires_grad=True)
    y = ag.relu(x)
    np.testing.assert_array_equal(y.data, [0.0, 0.0, 0.0, 2.0])
    ag.backward(tsum(y))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])  # 0 at 0


def test_sum_gradient_is_ones():
    x = ag.Tensor(np.zeros(3), requires_grad=True)
    ag.backward(tsum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_square_sum_gradient():
    x = ag.Tensor([1.0, 2.0], requires_grad=True)
    ag.backward(tsum(mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_matmul_matches_triple_loop_oracle():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(3, 2))
    out = ag.matmul(ag.Tensor(a), ag.Tensor(b)).data
    naive = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                naive[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(out, naive, atol=1e-6)


def test_matmul_gradient():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(3, 2))
    check_grad(lambda ts: tsum(mul(m := ag.matmul(ts[0], ts[1]), m)), [a, b])


def test_batched_matmul_gradient():
    # matmul takes 2-D operands only; the batched product lives in the tests
    a = RNG.normal(size=(2, 2, 3, 4))
    b = RNG.normal(size=(2, 2, 4, 3))
    with pytest.raises(ShapeMismatch):
        ag.matmul(ag.Tensor(a), ag.Tensor(b))
    check_grad(lambda ts: tsum(mul(m := bmm(ts[0], ts[1]), m)), [a, b])


def test_batched_matmul_with_shared_2d_operand():
    # (N, T, d) activations meet a shared weight as (N * T, d) rows; b's
    # gradient sums over every row, above and below GEMM_MIN_ROWS
    w = RNG.normal(size=(5, 2))
    for rows in (12, 20):
        check_grad(lambda ts: tsum(mul(m := ag.matmul(ts[0], ts[1]), m)),
                   [RNG.normal(size=(rows, 5)), w])
    with pytest.raises(ShapeMismatch):
        ag.matmul(ag.Tensor(RNG.normal(size=(3, 4, 5))), ag.Tensor(w))


def test_matmul_with_bias_adds_it_to_every_row():
    a = RNG.normal(size=(10, 3)).astype(np.float32)
    w = RNG.normal(size=(3, 4)).astype(np.float32)
    bias = RNG.normal(size=4).astype(np.float32)
    fused = ag.matmul(ag.Tensor(a), ag.Tensor(w), ag.Tensor(bias)).data
    assert fused.tobytes() == (ag.matmul(ag.Tensor(a), ag.Tensor(w)).data + bias).tobytes()


@pytest.mark.parametrize("b_shape,bias_shape", [
    ((3, 4), (3,)),        # wrong width
    ((3, 4), (1, 4)),      # not a row vector
    ((2, 3, 4), (4,)),     # a batched b is rejected, bias or not
])
def test_matmul_bias_shape_mismatch(b_shape, bias_shape):
    with pytest.raises(ShapeMismatch):
        ag.matmul(ag.Tensor(np.ones((10, 3))), ag.Tensor(np.ones(b_shape)),
                  ag.Tensor(np.ones(bias_shape)))


@pytest.mark.parametrize("op,b_shape", [
    ("matmul", (4, 5)), ("matmul", (4, 1)), ("matmul_bias", (4, 5)), ("add", (6, 4)),
])
@pytest.mark.parametrize("constant", [0, 1])
def test_constant_operand_gets_no_gradient(op, b_shape, constant):
    a, b, bias = RNG.normal(size=(6, 4)), RNG.normal(size=b_shape), RNG.normal(size=5)

    def run(needs):
        ts = [ag.Tensor(x, requires_grad=need) for x, need in zip((a, b), needs)]
        if op == "add":
            out = ag.add(*ts)
        elif op == "matmul_bias":
            out = ag.matmul(*ts, ag.Tensor(bias, requires_grad=True))
        else:
            out = ag.matmul(*ts)
        slots = out._vjp(np.ones(out.shape))
        ag.backward(tsum(mul(out, out)))
        return slots, [t.grad for t in ts]

    slots, got = run([i != constant for i in range(2)])
    _, want = run([True, True])
    assert slots[constant] is None and got[constant] is None
    assert slots[1 - constant] is not None
    assert got[1 - constant].tobytes() == want[1 - constant].tobytes()


def test_shared_bias_column_sum_is_bit_identical_to_a_leading_axes_sum():
    # a numpy that changes either summation order fails here
    for width in (2, 3, 32, 128):
        g = RNG.normal(size=(300, 9, width)).astype(np.float32)
        x = RNG.normal(size=g.shape).astype(np.float32)
        assert ag._column_sum(g).tobytes() == g.sum(axis=(0, 1)).tobytes()
        assert ag._column_sum(g, x).tobytes() == (g * x).sum(axis=(0, 1)).tobytes()


def _max_rel(got, want):
    """Largest absolute error, relative to the oracle's largest magnitude."""
    return float(np.abs(got.astype(np.float64) - want).max() / np.abs(want).max())


@pytest.mark.parametrize("a_shape,b_shape", [
    ((54, 16), (16, 12)),  # (N * T, d) token rows times a weight
    ((24, 5), (5, 6)),
    ((3, 5), (5, 6)),      # fewer rows than GEMM_MIN_ROWS: a padded forward
])
def test_float32_matmul_matches_float64_oracle(a_shape, b_shape):
    a32 = RNG.normal(size=a_shape).astype(np.float32)
    b32 = RNG.normal(size=b_shape).astype(np.float32)
    g32 = RNG.normal(size=a_shape[:-1] + b_shape[-1:]).astype(np.float32)
    a, b = ag.Tensor(a32, requires_grad=True), ag.Tensor(b32, requires_grad=True)
    out = ag.matmul(a, b)
    ag.backward(tsum(mul(out, ag.Tensor(g32))))
    a64, b64, g64 = (x.astype(np.float64) for x in (a32, b32, g32))
    for got, want in ((out.data, a64 @ b64), (a.grad, g64 @ b64.T), (b.grad, a64.T @ g64)):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert _max_rel(got, want) <= 1e-5


@pytest.mark.parametrize("prim,shapes", [
    ("relu", [(4, 5)]),
    ("softmax", [(4, 5)]),
    ("dropout", [(6, 3)]),
    ("select", [(4, 3, 2)]),
    ("concat", [(2, 3), (2, 4)]),
    ("add", [(4, 5), (4, 5)]),
    ("matmul_bias", [(10, 3), (3, 4), (4,)]),
    ("scale", [(3, 3)]),
    ("reshape", [(2, 6)]),
    ("transpose", [(2, 3, 4)]),
    ("canon_mean", [(12, 5)]),
    ("canon_mean_gather", [(5, 3)]),
    ("canon_mean_repeated", [(5, 3)]),
])
def test_primitive_gradients(prim, shapes):
    arrays = [RNG.normal(size=s) for s in shapes]

    def build(ts):
        if prim == "relu":
            y = ag.relu(ts[0])
        elif prim == "softmax":
            y = ag.softmax(ts[0])
        elif prim == "dropout":
            # a fresh generator per call draws the same mask every time
            y = ag.dropout(ts[0], 0.4, np.random.Generator(np.random.PCG64(8)))
        elif prim == "select":
            y = ag.select(ts[0], axis=1, index=1)
        elif prim == "concat":
            y = ag.concat(ts)
        elif prim == "add":
            y = ag.add(ts[0], ts[1])
        elif prim == "matmul_bias":
            y = ag.matmul(ts[0], ts[1], ts[2])
        elif prim == "scale":
            y = ag.scale(ts[0], 2.5)
        elif prim == "reshape":
            y = ag.reshape(ts[0], (3, 4))
        elif prim == "transpose":
            y = ag.transpose(ts[0], (2, 0, 1))
        elif prim == "canon_mean":
            y = ag.canonical_bucket_mean(ts[0], np.arange(12).reshape(3, 4))
        elif prim == "canon_mean_gather":  # some rows left out, in another order
            y = ag.canonical_bucket_mean(ts[0], np.array([[4, 0], [2, 1]]))
        elif prim == "canon_mean_repeated":  # rows picked more than once
            y = ag.canonical_bucket_mean(ts[0], np.array([[3, 0, 3], [3, 1, 0]]))
        # squared sum makes the upstream gradient non-trivial
        return tsum(mul(y, y))

    check_grad(build, arrays)


def test_layer_norm_stats_and_gradient():
    x = RNG.normal(size=(6, 8)) * 3 + 1
    g = np.ones(8)
    b = np.zeros(8)
    out = ag.layer_norm(ag.Tensor(x), ag.Tensor(g), ag.Tensor(b)).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)
    check_grad(lambda ts: tsum(mul(y := ag.layer_norm(ts[0], ts[1], ts[2]), y)),
               [x, RNG.normal(size=8), RNG.normal(size=8)])


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_float32_layer_norm_matches_float64_oracle(offset):
    x32 = (RNG.normal(size=(64, 9, 128)) + offset).astype(np.float32)
    gain32 = (1 + 0.1 * RNG.normal(size=128)).astype(np.float32)
    bias32 = RNG.normal(size=128).astype(np.float32)
    g32 = RNG.normal(size=x32.shape).astype(np.float32)
    x = ag.Tensor(x32, requires_grad=True)
    out = ag.layer_norm(x, ag.Tensor(gain32), ag.Tensor(bias32))
    ag.backward(tsum(mul(out, ag.Tensor(g32))))
    x64, gain, g = x32.astype(np.float64), gain32.astype(np.float64), g32.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    inv = 1 / np.sqrt(((x64 - mu) ** 2).mean(axis=-1, keepdims=True) + ag.LAYER_NORM_EPS)
    xhat = (x64 - mu) * inv
    gh = g * gain
    want_gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                     - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    assert out.dtype == np.float32 and x.grad.dtype == np.float32
    assert np.abs(out.data - (xhat * gain + bias32)).max() <= 1e-3
    assert _max_rel(x.grad, want_gx) <= 1e-4


def test_cross_entropy_gradient_and_value():
    logits = RNG.normal(size=(5, 4)) * 3
    targets = np.array([0, 1, 2, 3, 1])
    loss = ag.softmax_cross_entropy(ag.Tensor(logits), targets)
    z = logits - logits.max(axis=1, keepdims=True)
    expect = float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(5), targets]))
    assert abs(loss.item() - expect) < 1e-6
    check_grad(lambda ts: ag.softmax_cross_entropy(ts[0], targets), [logits])


def test_bce_gradient_and_value():
    logits = RNG.normal(size=(4, 6)) * 5
    y = (RNG.random((4, 6)) < 0.4).astype(np.float64)
    loss = ag.bce_with_logits(ag.Tensor(logits), y)
    sig = 1 / (1 + np.exp(-logits))
    expect = float(np.mean(-(y * np.log(sig) + (1 - y) * np.log(1 - sig))))
    assert abs(loss.item() - expect) < 1e-6
    check_grad(lambda ts: ag.bce_with_logits(ts[0], y), [logits])


def test_dropout_identity_in_eval_and_scales_in_train():
    x = ag.Tensor(np.ones((1000,)))
    rng = np.random.Generator(np.random.PCG64(0))
    assert ag.dropout(x, 0.5, None) is x  # no dropout stream: inference
    out = ag.dropout(x, 0.5, rng).data
    kept = out[out != 0]
    np.testing.assert_allclose(kept, 2.0)
    assert abs(out.mean() - 1.0) < 0.15  # inverted scaling keeps expectation
    with pytest.raises(InvalidSetting):
        ag.dropout(x, 1.0, rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bool_mask_dropout_has_the_bits_of_the_float_mask(dtype):
    # the float mask the bool mask replaced: 0s and 1/(1-rate)s in x's dtype
    x = RNG.normal(size=(400, 250)).astype(dtype)
    x[0, :6] = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e-41)
    for rate in (0.1, 0.2, 0.3, 0.4, 0.5, 0.7):
        keep = ag.dropout_keep(x.shape, rate, np.random.Generator(np.random.PCG64(6)))
        keep[0, :6] = (False, False, False, True, False, True)
        float_mask = keep.astype(dtype) / (1.0 - rate)
        with np.errstate(invalid="ignore"):
            assert ag.scale_kept(x, keep, rate).tobytes() == (x * float_mask).tobytes(), rate


def test_gradient_accumulates_across_branches():
    x = ag.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    ag.backward(tsum(ag.add(mul(x, x), mul(x, x))))
    # doubling construction: grad of 2*x^2 is 4x
    np.testing.assert_allclose(x.grad, [4.0, -8.0, 12.0])


def test_grad_accumulates_across_backward_calls():
    x = ag.Tensor([2.0], requires_grad=True)
    ag.backward(tsum(mul(x, x)))
    ag.backward(tsum(mul(x, x)))
    np.testing.assert_allclose(x.grad, [8.0])


def test_non_scalar_loss_raises():
    x = ag.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NonScalarLoss):
        ag.backward(mul(x, x))


def test_shape_mismatch_reports_both_shapes():
    for op, a_shape, b_shape in [
        (ag.matmul, (2, 3), (4, 2)),              # inner dims differ
        (ag.matmul, (2, 3), (5, 3, 4)),           # every non-2-D operand is rejected
        (ag.matmul, (2, 3, 4, 5), (3, 5, 6)),
        (ag.matmul, (2, 3, 4, 5), (1, 3, 5, 6)),
        (ag.matmul, (2, 3, 4, 5), (5, 6)),
        (ag.matmul, (2, 3, 4, 5), (2, 3, 5, 6)),
        (ag.matmul, (3,), (3, 2)),
        (ag.add, (4, 3, 5), (5,)),                # add broadcasts nothing
        (ag.add, (4, 5), (5, 4)),
    ]:
        with pytest.raises(ShapeMismatch) as exc:
            op(ag.Tensor(np.ones(a_shape)), ag.Tensor(np.ones(b_shape)))
        assert str(a_shape) in str(exc.value) and str(b_shape) in str(exc.value)


def test_canonical_bucket_mean_bit_identical_under_permutation():
    x = ag.Tensor(RNG.normal(size=(7, 5)).astype(np.float32))
    base = ag.canonical_bucket_mean(x, np.arange(7)[None]).data
    for _ in range(5):
        perm = RNG.permutation(7)
        again = ag.canonical_bucket_mean(x, perm[None]).data
        assert (base == again).all()


def _pool_oracle(x):
    """The mean as it was summed before the sorting network: every column
    sorted in float64, then added smallest first."""
    n = x.shape[-2]
    return (np.sort(x.astype(np.float64), axis=-2).sum(axis=-2) / n).astype(x.dtype)


def _pool_all(x):
    """canonical_bucket_mean of each (n, d) bucket of x (B, n, d), gathered
    from x's rows in a shuffled order -> (B, d)."""
    b, n, d = x.shape
    order = RNG.permutation(b * n)  # row order[i] of the shuffled rows is row i of x
    rows = np.empty((b * n, d), dtype=x.dtype)
    rows[order] = x.reshape(-1, d)
    return ag.canonical_bucket_mean(ag.Tensor(rows), order.reshape(b, n)).data


def test_canonical_bucket_mean_matches_the_sort_and_sum_oracle():
    rng = np.random.Generator(np.random.PCG64(4321))
    tiny = np.float32(1e-41)  # a float32 subnormal
    for n in range(1, 65):
        x = rng.normal(size=(3, n, 9)).astype(np.float32)
        x[0, :, 0] = np.round(x[0, :, 0])          # ties
        x[1, :, 1] = rng.choice([0.0, -0.0], size=n)  # zeros of either sign only
        x[2, :, 1] = -0.0
        x[0, :, 2] = rng.choice([tiny, -tiny, 0.0, 3 * tiny], size=n)
        x[1, rng.integers(n), 3] = np.inf
        x[2, rng.integers(n), 3] = -np.inf
        x[0, :, 4] = rng.choice([np.inf, -np.inf, 1.0], size=n)  # inf - inf: NaN
        x[2, rng.integers(n), 5] = np.nan  # one NaN column
        with np.errstate(invalid="ignore"):
            got = _pool_all(x)
            want = _pool_oracle(x)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes(), n
    assert len(ag.sorting_network(10)) == 31 and len(ag.sorting_network(50)) == 395


def test_sorting_network_sorts_every_0_1_input():
    # the 0-1 principle: a comparator network that sorts every 0/1 input sorts all inputs
    for n in range(1, 13):
        bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        for i, j in ag.sorting_network(n):
            assert i < j
            bits[:, [i, j]] = np.sort(bits[:, [i, j]], axis=1)
        assert (np.diff(bits, axis=1) >= 0).all(), n


# --- no_record ------------------------------------------------------------

def _every_op(x, w, gain, bias):
    """One output of each primitive and of the encoder's attention ops (full
    and readout queries over two paths of 3 tokens, and full with dropout)
    and feed-forward op, from inputs x (6, 4), w (4, 4) and gain and bias (4,)."""
    layer = SimpleNamespace(wq=w, bq=bias, wk=w, wv=w, bv=bias, wo=w, bo=bias,
                            w1=w, b1=bias, w2=w, b2=bias)
    return [ag.add(x, x), ag.scale(x, 2.0), ag.matmul(x, w), ag.matmul(x, w, bias),
            ag.relu(x), ag.softmax(x),
            ag.layer_norm(x, gain, bias),
            ag.dropout(x, 0.5, np.random.Generator(np.random.PCG64(3))),
            ag.concat([x, x]), ag.select(x, 1, 0),
            ag.reshape(x, (2, 3, 4)), ag.transpose(x, (1, 0)),
            ag.canonical_bucket_mean(x, [[5, 0]]), ag.canonical_bucket_mean(x, [[5, 5]]),
            ag.softmax_cross_entropy(x, np.zeros(6, dtype=np.int64)),
            ag.bce_with_logits(x, np.zeros((6, 4))),
            _attention(layer, x, ((3, 2),), 2)[0],
            _readout_attention(layer, x, ((3, 2),), 2)[0],
            _attention(layer, x, ((3, 2),), 2, 0.5, np.random.Generator(np.random.PCG64(4)))[0],
            _feed_forward(layer, x, 0.0, None),
            _feed_forward(layer, x, 0.5, np.random.Generator(np.random.PCG64(5)))]


def test_no_record_outputs_carry_no_graph():
    inputs = [ag.Tensor(RNG.normal(size=shape), requires_grad=True)
              for shape in ((6, 4), (4, 4), (4,), (4,))]
    assert all(out._vjp is not None for out in _every_op(*inputs))
    with ag.no_record():
        outs = _every_op(*inputs)
    for out in outs:
        assert (out._vjp, out._node, out.requires_grad) == (None, None, False)


def test_vjp_closures_hold_no_tensor():
    inputs = [ag.Tensor(RNG.normal(size=shape), requires_grad=True)
              for shape in ((6, 4), (4, 4), (4,), (4,))]
    for out in _every_op(*inputs):
        values = closure_values(out._vjp)
        values += [v for c in values if isinstance(c, (tuple, list)) for v in c]
        assert not any(isinstance(v, ag.Tensor) for v in values), out._vjp.__qualname__


# `tape_bytes` of the loss below when the graph still held every op output
# and its vjps captured whole tensors; the split graph held 15,759,952, with
# the fused branch ops and bool dropout masks 14,433,816, and with the
# readout layer's own attention op it holds 13,942,296
PARENT_TAPE_BYTES = 29_582_672


def test_a_paper_shape_tape_holds_only_what_its_vjps_read_until_backward(tmp_path):
    graph, labels, _ = load_dataset(synth_planted_khop(
        tmp_path / "ring", num_nodes=30, avg_degree=1.0, k=3, num_classes=4, seed=3,
        topology="ring"))
    cfg = TrainConfig()  # the paper defaults: hidden 128, 8 heads, depth 8
    model = PathSageModel.init(cfg.model_config(graph.feature_dim, 4, labels.task),
                               stream_rng(1, "init"))
    nodes = np.arange(4)
    walks = sample_paths(graph, nodes, SamplePlan(cfg.counts_per_length), 1, "walk", 0)
    logits = model.forward_batch(graph, walks, rng=stream_rng(1, "dropout", 0, 0))
    loss = head.loss(logits, labels.labels[nodes], labels.task)
    assert 0 < tape_bytes(loss) <= 0.6 * PARENT_TAPE_BYTES
    ag.backward(loss)
    assert tape_bytes(loss) == 0 and loss._vjp is None


def test_no_record_restores_the_flag_after_nesting_and_errors():
    x = ag.Tensor([1.0, -2.0], requires_grad=True)
    with ag.no_record():
        with ag.no_record():
            pass
        assert not ag.relu(x).requires_grad  # still off after the inner block
    assert ag.relu(x)._vjp is not None
    with pytest.raises(ValueError):
        with ag.no_record():
            raise ValueError("inside the block")
    assert ag.relu(x)._vjp is not None


@pytest.fixture(scope="module")
def model_setup(tmp_path_factory):
    graph, labels, splits = load_dataset(synth_planted_khop(
        tmp_path_factory.mktemp("ds") / "m", num_nodes=40, avg_degree=3.0, k=1,
        num_classes=3, seed=5))
    model = PathSageModel.init(ModelConfig(
        feature_dim=graph.feature_dim, num_classes=3, task=labels.task, hidden=8, heads=2,
        layers=2, depth_s=2), stream_rng(1, "init"))
    return graph, labels, splits, model


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    """topology -> (graph, labels) of an 80-node directed ring and ER graph."""
    root = tmp_path_factory.mktemp("graphs")
    return {topology: load_dataset(synth_planted_khop(
        root / topology, num_nodes=80, avg_degree=3.0, k=2, num_classes=3, seed=5,
        topology=topology))[:2] for topology in ("ring", "er")}


def _model(graph, labels, hidden, depth=3):
    return PathSageModel.init(ModelConfig(
        feature_dim=graph.feature_dim, num_classes=3, task=labels.task, hidden=hidden, heads=4,
        layers=2, depth_s=depth), stream_rng(1, "init"))


def _plan(depth=3):
    return SamplePlan((3, 2, 4, 2, 2, 2, 2, 2)[:depth])


@pytest.mark.parametrize("topology", ["ring", "er"])
@pytest.mark.parametrize("hidden", [32, 128])
@pytest.mark.parametrize("batch", [1, 2, 7, 64])
@pytest.mark.parametrize("dropout", [False, True])
def test_forward_without_recording_is_bit_identical(graphs, topology, hidden, batch, dropout):
    graph, labels = graphs[topology]
    model = _model(graph, labels, hidden)
    walks = sample_paths(graph, range(batch), _plan(), 1, "eval", 0)

    def forward():
        rng = stream_rng(1, "dropout", 0, 0) if dropout else None
        return model.forward_batch(graph, walks, rng=rng)

    recorded = forward()
    with ag.no_record():
        plain = forward()
    assert recorded._vjp is not None and plain._vjp is None
    assert plain.data.tobytes() == recorded.data.tobytes()


# depth 8 at hidden 128 is the paper's shape: the head's first GEMM has K = 1024.
# At depth 1 a ring node's walks are one distinct walk, so a batch of 1
# encodes a single path and the readout's per-head GEMMs run on one row.
@pytest.mark.parametrize("topology", ["ring", "er"])
@pytest.mark.parametrize("hidden, depth", [(32, 1), (32, 3), (128, 1), (128, 3), (128, 8)])
def test_eval_logits_do_not_depend_on_batch_or_position(graphs, topology, hidden, depth):
    graph, labels = graphs[topology]
    model = _model(graph, labels, hidden, depth)
    nodes = np.arange(64)
    if topology == "ring":
        walks = sample_paths(graph, nodes[:1], _plan(depth), 1, "eval", 0)
        assert [len(distinct_rows(w.reshape(-1, w.shape[2]))[0]) for w in walks] == [1] * depth

    def logits(chunk):
        walks = sample_paths(graph, chunk, _plan(depth), 1, "eval", 0)
        with ag.no_record():
            return model.forward_batch(graph, walks).data

    full = logits(nodes)
    assert full.dtype == np.float32
    for batch in (1, 7):
        parts = np.concatenate([logits(nodes[i:i + batch]) for i in range(0, 64, batch)])
        assert parts.tobytes() == full.tobytes(), f"batches of {batch}"
    perm = np.random.Generator(np.random.PCG64(3)).permutation(64)
    assert logits(nodes[perm]).tobytes() == full[perm].tobytes()


def test_stacked_gemm_rows_match_a_large_gemm():
    # the readout's per-head products: (heads, M, K) @ (heads, K, N), M paths
    a = RNG.normal(size=(8, 64, 16)).astype(np.float32)
    b = RNG.normal(size=(8, 16, 128)).astype(np.float32)
    full = ag.gemm(a, b)
    assert full.tobytes() == (a @ b).tobytes()
    for m in range(1, 16):
        assert ag.gemm(a[:, :m], b).tobytes() == np.ascontiguousarray(full[:, :m]).tobytes(), m


@pytest.mark.parametrize("k", [128, 512, 1024])
def test_small_matmul_rows_match_a_large_gemm(k):
    a = RNG.normal(size=(64, k)).astype(np.float32)
    w = ag.Tensor(RNG.normal(size=(k, 128)).astype(np.float32))
    full = ag.matmul(ag.Tensor(a), w).data
    for m in range(1, 16):
        assert ag.matmul(ag.Tensor(a[:m]), w).data.tobytes() == full[:m].tobytes(), m


def test_training_after_eval_gives_every_parameter_a_gradient(model_setup):
    graph, labels, splits, model = model_setup
    eval_split(model, graph, labels, splits.test, (2, 2), seed=1)
    cfg = TrainConfig(epochs=1, seed=1, depth_s=2, counts_per_length=(2, 2), hidden=8,
                      heads=2, layers=2, batch_size=8)
    train_epoch(model, graph, labels, splits.train[:8], cfg, 0, OptimizerState(),
                total_steps=1)
    missing = [name for name, p in model.named_params() if p.grad is None]
    assert missing == []


def test_float32_training_step_stays_float32(model_setup):
    graph, labels, _, model = model_setup
    plan = SamplePlan((3, 2))
    nodes = np.arange(6)
    walks = sample_paths(graph, nodes, plan, 1, "walk", 0)
    model.zero_grad()
    logits = model.forward_batch(graph, walks, rng=stream_rng(1, "dropout", 0, 0))
    ag.backward(head.loss(logits, labels.labels[nodes], labels.task))
    assert logits.dtype == np.float32
    assert [name for name, p in model.named_params() if p.grad.dtype != np.float32] == []
