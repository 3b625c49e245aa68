import math

import numpy as np
import pytest

from pathsage import autograd as ag
from pathsage.autograd import Tensor
from pathsage.encoder import (
    _attention,
    _encoder_layer,
    _feed_forward,
    _readout_attention,
    attention_maps,
    build_position_table,
    encode_paths,
    layer_shapes,
)
from pathsage.errors import OddDimension, PathTooLong, ShapeMismatch
from pathsage.model import ModelConfig, PathSageModel

from helpers import check_grad, mul, reference_layer, tsum

RNG = np.random.Generator(np.random.PCG64(77))


# --- position table -----------------------------------------------------

def test_position_row_zero_alternates():
    table = build_position_table(5, 8)
    np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1, 0, 1])


def test_position_entry_p1():
    table = build_position_table(3, 8)
    assert abs(table[1, 0] - math.sin(1)) < 1e-6
    assert abs(table[1, 1] - math.cos(1)) < 1e-6


def test_position_frequency_scaling():
    # d=4, p=2, dims (2,3): divisor 10000^(2/4) = 100 -> angle 0.02
    table = build_position_table(3, 4)
    assert abs(table[2, 2] - math.sin(0.02)) < 1e-6
    assert abs(table[2, 3] - math.cos(0.02)) < 1e-6


def test_position_full_formula():
    d, max_len = 12, 9
    table = build_position_table(max_len, d)
    for p in range(max_len):
        for i in range(d // 2):
            angle = p / 10000 ** (2 * i / d)
            assert abs(table[p, 2 * i] - math.sin(angle)) < 1e-6
            assert abs(table[p, 2 * i + 1] - math.cos(angle)) < 1e-6


def test_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        build_position_table(4, 7)


# --- encoder ------------------------------------------------------------

def tiny_encoder(d=8, heads=2, layers=1, feat=5, dtype=np.float64, seed=0):
    """The encoder of a freshly initialised model; it draws before the head."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mc = ModelConfig(feature_dim=feat, num_classes=2, task="single_label", hidden=d,
                     heads=heads, layers=layers, depth_s=1)
    return PathSageModel.init(mc, rng, dtype=dtype).encoder


def pack(*groups):
    """Equal-length path groups (U, T, F), one per length -> (packed (P, F)
    Tensor, their (T, U) segments)."""
    feats = np.concatenate([g.reshape(-1, g.shape[2]) for g in groups])
    return Tensor(feats), tuple((g.shape[1], g.shape[0]) for g in groups)


def encode(params, pos, *groups, **kwargs):
    return encode_paths(params, pos, *pack(*groups), **kwargs)


def ln(v, g, b, eps=1e-5):
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    return (v - mu) / np.sqrt(var + eps) * g + b


def oracle_layer(layer, x, rows, heads, keep=lambda shape: 1.0):
    """Straight-line float64 post-norm layer: queries from `rows` (N, R, d),
    keys and values from x (N, T, d); `keep(shape)` gives each dropout
    multiplier -> (output (N, R, d), attention (N, h, R, T))."""
    n, r, d = rows.shape
    dh = d // heads
    q = rows @ layer.wq.data + layer.bq.data
    k = x @ layer.wk.data
    v = x @ layer.wv.data + layer.bv.data
    ctx = np.zeros_like(rows)
    attn = np.zeros((n, heads, r, x.shape[1]))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[..., sl] @ k[..., sl].transpose(0, 2, 1) / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn[:, h] = e / e.sum(axis=-1, keepdims=True)
        ctx[..., sl] = attn[:, h] @ v[..., sl]
    att_out = (ctx @ layer.wo.data + layer.bo.data) * keep((n, r, d))
    x1 = ln(rows + att_out, layer.ln1_g.data, layer.ln1_b.data)
    ffn = np.maximum(x1 @ layer.w1.data + layer.b1.data, 0) @ layer.w2.data + layer.b2.data
    return ln(x1 + ffn * keep((n, r, d)), layer.ln2_g.data, layer.ln2_b.data), attn


def oracle_encoder(params, pos, feats, keep=lambda shape: 1.0):
    """-> (position-0 representation (N, d), each layer's full (N, h, T, T)
    attention). Only the last layer's position-0 row is carried forward."""
    x = feats @ params.w_in.data + params.b_in.data + pos[:feats.shape[1]]
    maps = []
    for k, layer in enumerate(params.layers):
        maps.append(oracle_layer(layer, x, x, params.heads)[1])
        rows = x[:, :1] if k == len(params.layers) - 1 else x
        x = oracle_layer(layer, x, rows, params.heads, keep)[0]
    return x[:, 0], maps


def test_attention_rows_sum_to_one():
    params = tiny_encoder(layers=2)
    pos = build_position_table(6, 8, dtype=np.float64)
    feats = RNG.normal(size=(3, 5, 5))
    for layer in attention_maps(params, pos, Tensor(feats)):
        np.testing.assert_allclose(layer.sum(axis=-1), 1.0, atol=1e-5)


def test_single_token_attention_is_identity():
    params = tiny_encoder()
    pos = build_position_table(4, 8, dtype=np.float64)
    feats = RNG.normal(size=(1, 1, 5))
    assert encode(params, pos, feats).shape == (1, 8)
    for layer in attention_maps(params, pos, Tensor(feats)):
        np.testing.assert_allclose(layer[0], 1.0)
        assert layer[0].shape == (2, 1, 1)


def test_deterministic_without_dropout():
    params = tiny_encoder(layers=2)
    pos = build_position_table(6, 8, dtype=np.float64)
    feats = RNG.normal(size=(2, 4, 5))
    r1 = encode(params, pos, feats)
    r2 = encode(params, pos, feats)
    assert (r1.data == r2.data).all()


def test_position_sensitivity():
    # permuting non-central tokens must change the representation for
    # generic parameters: order is injected by the position embeddings
    params = tiny_encoder(layers=1, seed=5)
    pos = build_position_table(6, 8, dtype=np.float64)
    path = RNG.normal(size=(4, 5))
    base = encode(params, pos, path[None])
    changed = False
    for perm in ([0, 2, 1, 3], [0, 3, 1, 2], [0, 1, 3, 2]):
        out = encode(params, pos, path[perm][None])
        if not np.allclose(out.data, base.data):
            changed = True
    assert changed


def test_scaled_dot_product_matches_per_head_loop():
    # every layer's map, each layer fed the oracle's own full output
    d, heads = 8, 2
    params = tiny_encoder(d=d, heads=heads, layers=3, seed=9)
    pos = build_position_table(6, d, dtype=np.float64)
    feats = RNG.normal(size=(4, 5, 5))
    maps = attention_maps(params, pos, Tensor(feats))
    expect = oracle_encoder(params, pos, feats)[1]
    assert len(maps) == 3
    for got, want in zip(maps, expect):
        assert isinstance(got, np.ndarray) and got.shape == (4, heads, 5, 5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_forward_matches_straight_line_oracle():
    """Full forward of one and two layers against an independent numpy oracle."""
    d, heads = 8, 2
    pos = build_position_table(6, d, dtype=np.float64)
    feats = RNG.normal(size=(3, 3, 5))
    for layers in (1, 2):
        params = tiny_encoder(d=d, heads=heads, layers=layers, seed=21)
        reprs = encode(params, pos, feats)
        np.testing.assert_allclose(reprs.data, oracle_encoder(params, pos, feats)[0],
                                   rtol=0, atol=1e-8)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_packed_encode_of_several_lengths_matches_the_per_length_oracle(layers):
    # one-token paths, a length with a single path, and longer ones, packed in one pass
    params = tiny_encoder(layers=layers, seed=23)
    pos = build_position_table(8, 8, dtype=np.float64)
    groups = [RNG.normal(size=(u, t, 5)) for t, u in ((1, 3), (3, 4), (5, 2), (7, 1))]
    reprs = encode(params, pos, *groups)
    want = np.concatenate([oracle_encoder(params, pos, g)[0] for g in groups])
    assert reprs.shape == (10, 8)
    np.testing.assert_allclose(reprs.data, want, rtol=0, atol=1e-12)


def test_encoder_gradients_finite_difference():
    d, heads = 8, 2
    feats = RNG.normal(size=(2, 3, 5))
    seed_params = tiny_encoder(d=d, heads=heads, layers=1, seed=3)
    arrays = [p.data.copy() for _, p in seed_params.named_params()]

    def build(ts):
        # rebind the probe tensors into a fresh parameter container
        params = tiny_encoder(d=d, heads=heads, layers=1, seed=3)
        params.w_in, params.b_in = ts[0], ts[1]
        layer = params.layers[0]
        for (name, _), t in zip(layer_shapes(d), ts[2:]):
            setattr(layer, name, t)
        pos = build_position_table(6, d, dtype=np.float64)
        reprs = encode(params, pos, feats)
        return tsum(mul(reprs, reprs))

    worst = check_grad(build, arrays, step=1e-5, rtol=1e-3)
    assert worst < 1e-3


# --- the fused attention op ------------------------------------------------

ATTENTION_PARAMS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
MIXED = ((1, 2), (3, 2), (5, 1))  # (T, U): one-token paths among longer ones


def first_rows(segments):
    rows, tok = [], 0
    for t, u in segments:
        rows += [tok + t * i for i in range(u)]
        tok += t * u
    return np.asarray(rows)


@pytest.mark.parametrize("readout", [False, True])
def test_attention_gradients_finite_difference(readout):
    d, heads = 8, 2
    layer = tiny_encoder(d=d, heads=heads, seed=31).layers[0]
    tokens = sum(t * u for t, u in MIXED)
    rows = sum(u for _, u in MIXED) if readout else tokens
    weights = Tensor(RNG.normal(size=(rows, d)))
    arrays = [RNG.normal(size=(tokens, d))]
    arrays += [getattr(layer, name).data.copy() for name in ATTENTION_PARAMS]

    def build(ts):
        for name, t in zip(ATTENTION_PARAMS, ts[1:]):
            setattr(layer, name, t)
        out, attn = (_readout_attention if readout else _attention)(layer, ts[0], MIXED, heads)
        assert [a.shape for a in attn] == [(u, heads, 1 if readout else t, t) for t, u in MIXED]
        return tsum(mul(out, weights))

    worst = check_grad(build, arrays, step=1e-6, rtol=1e-5)
    assert worst < 1e-5


@pytest.mark.parametrize("readout", [False, True])
@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_fused_layer_matches_the_primitive_reference(readout, rate):
    # one segment: the packed rows are the reference's (N, T) rows, flattened
    n, t, d, heads = 5, 4, 8, 2
    feats = RNG.normal(size=(n, t, d))
    grad_out = RNG.normal(size=(n, 1 if readout else t, d))
    results = []
    for fused in (True, False):
        layer = tiny_encoder(d=d, heads=heads, seed=35).layers[0]
        rng = np.random.Generator(np.random.PCG64(3))
        if fused:
            x = Tensor(feats.reshape(n * t, d), requires_grad=True)
            out, attn = _encoder_layer(layer, x, ((t, n),), heads, rate, rng, readout=readout)
            attn = attn[0]
        else:
            x = Tensor(feats, requires_grad=True)
            out, attn = reference_layer(layer, x, heads, rate, rng, readout=readout)
        ag.backward(tsum(mul(out, Tensor(grad_out.reshape(out.shape)))))
        grads = [x.grad.reshape(n, t, d)] + [p.grad for p in vars(layer).values()]
        results.append((out.data.reshape(grad_out.shape), attn, grads, rng.random(2)))
    (out, attn, grads, tail), (ref_out, ref_attn, ref_grads, ref_tail) = results
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(attn, ref_attn, rtol=0, atol=1e-12)
    for name, g, want in zip(["x"] + [name for name, _ in layer_shapes(d)], grads, ref_grads):
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-12, err_msg=name)
    assert tail.tobytes() == ref_tail.tobytes()  # the same number of dropout draws


@pytest.mark.parametrize("readout", [False, True])
def test_a_frozen_weight_gets_no_gradient_and_moves_no_other(readout):
    # the branch ops' vjps return every parent's gradient; backward drops the
    # one of a parent recorded as None, and every other keeps its bits
    n, t, d, heads = 5, 4, 8, 2
    feats = RNG.normal(size=(n * t, d)).astype(np.float32)
    grad_out = RNG.normal(size=(n if readout else n * t, d)).astype(np.float32)
    runs = []
    for frozen in (False, True):
        layer = tiny_encoder(d=d, heads=heads, dtype=np.float32, seed=37).layers[0]
        layer.wk.requires_grad = not frozen
        x = Tensor(feats, requires_grad=True)
        out, _ = _encoder_layer(layer, x, ((t, n),), heads, 0.3,
                                np.random.Generator(np.random.PCG64(9)), readout=readout)
        ag.backward(tsum(mul(out, Tensor(grad_out))))
        runs.append({"x": x.grad, **{name: p.grad for name, p in vars(layer).items()}})
    trainable, frozen = runs
    assert trainable.pop("wk") is not None and frozen.pop("wk") is None
    for name, g in trainable.items():
        assert frozen[name].tobytes() == g.tobytes(), name


FFN_PARAMS = ("w1", "b1", "w2", "b2")


@pytest.mark.parametrize("rows", [5, 24])  # both sides of GEMM_MIN_ROWS
@pytest.mark.parametrize("rate,stream", [(0.0, None), (0.0, 5), (0.3, 5), (0.5, 6)])
def test_feed_forward_matches_the_primitive_chain_byte_for_byte(rows, rate, stream):
    d = 8
    feats = RNG.normal(size=(rows, d)).astype(np.float32)
    feats[0, :3] = (0.0, -0.0, np.float32(1e-41))
    grad_out = RNG.normal(size=(rows, d)).astype(np.float32)
    results = []
    for fused in (True, False):
        layer = tiny_encoder(d=d, dtype=np.float32, seed=36).layers[0]
        rng = None if stream is None else np.random.Generator(np.random.PCG64(stream))
        x = Tensor(feats, requires_grad=True)
        if fused:
            out = _feed_forward(layer, x, rate, rng)
        else:
            ff = ag.matmul(ag.relu(ag.matmul(x, layer.w1, layer.b1)), layer.w2, layer.b2)
            out = ag.add(x, ag.dropout(ff, rate, rng))
        ag.backward(tsum(mul(out, Tensor(grad_out))))
        tail = np.empty(0) if rng is None else rng.random(2)  # the same number of draws
        results.append([out.data, x.grad] + [getattr(layer, n).grad for n in FFN_PARAMS]
                       + [tail])
    for name, got, want in zip(("out", "x") + FFN_PARAMS + ("draws after",), *results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("rate", [0.0, 0.4])
def test_feed_forward_gradients_finite_difference(rate):
    d = 8
    layer = tiny_encoder(d=d, seed=37).layers[0]
    weights = Tensor(RNG.normal(size=(6, d)))
    arrays = [RNG.normal(size=(6, d))] + [getattr(layer, n).data.copy() for n in FFN_PARAMS]

    def build(ts):
        for name, t in zip(FFN_PARAMS, ts[1:]):
            setattr(layer, name, t)
        # a fresh generator per call draws the same mask every time
        out = _feed_forward(layer, ts[0], rate, np.random.Generator(np.random.PCG64(9)))
        return tsum(mul(out, weights))

    worst = check_grad(build, arrays, step=1e-6, rtol=1e-5)
    assert worst < 1e-5


# --- position-0 readout of the last layer --------------------------------

def full_layers(params, pos, feats, rate=0.0, rng=None):
    """Every layer on all tokens of one length -> (last layer's (N, T, d)
    output, attention)."""
    n, t, _ = feats.shape
    segments = ((t, n),)
    x = ag.matmul(Tensor(feats.reshape(n * t, -1)), params.w_in, params.b_in)
    x = ag.add(x, Tensor(np.tile(pos[:t], (n, 1))))
    attn = []
    for layer in params.layers:
        x, a = _encoder_layer(layer, x, segments, params.heads, rate, rng)
        attn.append(a[0])
    return ag.reshape(x, (n, t, -1)), attn


def test_readout_is_row_0_of_the_full_last_layer():
    params = tiny_encoder(layers=2, seed=11)
    pos = build_position_table(8, 8, dtype=np.float64)
    feats = RNG.normal(size=(7, 6, 5))
    reprs = encode(params, pos, feats)
    full, full_attn = full_layers(params, pos, feats)
    assert reprs.shape == (7, 8)
    np.testing.assert_allclose(reprs.data, full.data[:, 0], rtol=0, atol=1e-12)
    maps = attention_maps(params, pos, Tensor(feats))
    assert len(maps) == 2
    for got, want in zip(maps, full_attn):
        assert got.shape == (7, 2, 6, 6) and got.tobytes() == want.tobytes()


def test_readout_layer_queries_only_position_0():
    params = tiny_encoder(layers=1, seed=13)
    segments = ((4, 5), (2, 3))
    x = Tensor(RNG.normal(size=(26, 8)))
    out, attn = _encoder_layer(params.layers[0], x, segments, params.heads, 0.0, None,
                               readout=True)
    full, full_attn = _encoder_layer(params.layers[0], x, segments, params.heads, 0.0, None)
    assert out.shape == (8, 8)
    assert [a.shape for a in attn] == [(5, 2, 1, 4), (3, 2, 1, 2)]
    for got, want in zip(attn, full_attn):
        np.testing.assert_allclose(got, want[:, :, :1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data, full.data[first_rows(segments)], rtol=0, atol=1e-12)


def test_dropout_stream_draws_one_row_per_path_in_the_readout_layer():
    # per chunk: (P, d) twice per earlier layer, then (paths, d) twice for the readout
    d, rate = 8, 0.3
    params = tiny_encoder(d=d, layers=3, seed=12)
    pos = build_position_table(8, d, dtype=np.float64)
    groups = [RNG.normal(size=(5, 4, 5)), RNG.normal(size=(2, 3, 5))]
    rng_a, rng_b = (np.random.Generator(np.random.PCG64(21)) for _ in range(2))
    encode(params, pos, *groups, rng=rng_a, dropout_rate=rate)
    for shape in [(26, d)] * 4 + [(7, d)] * 2:
        rng_b.random(shape)
    assert rng_a.random(3).tobytes() == rng_b.random(3).tobytes()
    # one length: the packed masks are the oracle's (N, T, d) masks, flattened
    feats = groups[0]
    rng_a, rng_c = (np.random.Generator(np.random.PCG64(22)) for _ in range(2))
    reprs = encode(params, pos, feats, rng=rng_a, dropout_rate=rate)
    expect = oracle_encoder(params, pos, feats,
                            keep=lambda shape: (rng_c.random(shape) >= rate) / (1 - rate))[0]
    np.testing.assert_allclose(reprs.data, expect, rtol=0, atol=1e-12)
    undropped = encode(params, pos, feats)
    assert not np.allclose(reprs.data, undropped.data)  # dropout did act


def test_readout_layer_projects_no_token(monkeypatch):
    # count work, not time: every GEMM of a recording readout-layer forward
    # runs on one row per path; the all-token layer runs some on every token
    params = tiny_encoder(layers=1, dtype=np.float32, seed=19)
    segments = ((4, 5), (2, 3), (7, 2))
    tokens, paths = 40, 10
    rows = []

    def counting_gemm(a, b, real=ag.gemm):
        rows.append(a.shape[-2])
        return real(a, b)

    monkeypatch.setattr(ag, "gemm", counting_gemm)
    x = Tensor(RNG.normal(size=(tokens, 8)).astype(np.float32), requires_grad=True)
    out, _ = _encoder_layer(params.layers[0], x, segments, params.heads, 0.0, None,
                            readout=True)
    assert out.shape == (paths, 8) and out._vjp is not None
    assert rows and set(rows) == {paths}
    rows.clear()
    _encoder_layer(params.layers[0], x, segments, params.heads, 0.0, None)
    assert tokens in rows


def test_readout_layer_gradients_finite_difference():
    # wq and wk of the last layer reach the output only through position 0's query
    d, heads = 8, 2
    groups = [RNG.normal(size=(2, 4, 5)), RNG.normal(size=(1, 2, 5))]
    weights = Tensor(RNG.normal(size=(3, d)))
    params = tiny_encoder(d=d, heads=heads, layers=2, seed=17)
    last = params.layers[-1]
    names = [name for name, _ in layer_shapes(d)]
    arrays = [getattr(last, name).data.copy() for name in names]
    pos = build_position_table(6, d, dtype=np.float64)

    def build(ts):
        for name, t in zip(names, ts):
            setattr(last, name, t)
        return tsum(mul(encode(params, pos, *groups), weights))

    probes = [Tensor(a, requires_grad=True) for a in arrays]
    ag.backward(build(probes))
    for name, t in zip(names, probes):
        if name in ("wq", "bq", "wk"):
            assert np.abs(t.grad).max() > 1e-6, name  # not vacuous
    worst = check_grad(build, arrays, step=1e-5, rtol=1e-4)
    assert worst < 1e-4


def test_path_too_long():
    params = tiny_encoder()
    pos = build_position_table(3, 8, dtype=np.float64)
    with pytest.raises(PathTooLong):
        encode(params, pos, RNG.normal(size=(1, 2, 5)), RNG.normal(size=(1, 5, 5)))
    with pytest.raises(PathTooLong):
        attention_maps(params, pos, Tensor(RNG.normal(size=(1, 5, 5))))


def test_feature_width_mismatch():
    params = tiny_encoder(feat=5)
    pos = build_position_table(6, 8, dtype=np.float64)
    with pytest.raises(ShapeMismatch):
        encode(params, pos, RNG.normal(size=(1, 3, 9)))


def test_features_that_do_not_match_their_segments_are_rejected():
    params = tiny_encoder(feat=5)
    pos = build_position_table(6, 8, dtype=np.float64)
    feats = Tensor(RNG.normal(size=(7, 5)))
    for segments in (((3, 2),), ((3, 2), (2, 1)), ((0, 7),), ((3, 2), (1, 1), (2, -1))):
        with pytest.raises(ShapeMismatch):
            encode_paths(params, pos, feats, segments)
    with pytest.raises(ShapeMismatch, match="packed"):
        encode_paths(params, pos, Tensor(RNG.normal(size=(1, 7, 5))), ((7, 1),))
    with pytest.raises(ShapeMismatch):
        attention_maps(params, pos, feats)
