import math

import numpy as np
import pytest

from pathsage import autograd as ag
from pathsage.autograd import Tensor
from pathsage.encoder import (
    _encoder_layer,
    attention_maps,
    build_position_table,
    encode_paths,
    layer_shapes,
)
from pathsage.errors import OddDimension, PathTooLong, ShapeMismatch
from pathsage.model import ModelConfig, PathSageModel

from helpers import check_grad, mul, tsum

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
    feats = Tensor(RNG.normal(size=(1, 1, 5)))
    assert encode_paths(params, pos, feats).shape == (1, 8)
    for layer in attention_maps(params, pos, feats):
        np.testing.assert_allclose(layer[0], 1.0)
        assert layer[0].shape == (2, 1, 1)


def test_deterministic_without_dropout():
    params = tiny_encoder(layers=2)
    pos = build_position_table(6, 8, dtype=np.float64)
    feats = RNG.normal(size=(2, 4, 5))
    r1 = encode_paths(params, pos, Tensor(feats))
    r2 = encode_paths(params, pos, Tensor(feats))
    assert (r1.data == r2.data).all()


def test_position_sensitivity():
    # permuting non-central tokens must change the representation for
    # generic parameters: order is injected by the position embeddings
    params = tiny_encoder(layers=1, seed=5)
    pos = build_position_table(6, 8, dtype=np.float64)
    path = RNG.normal(size=(4, 5))
    base = encode_paths(params, pos, Tensor(path[None]))
    changed = False
    for perm in ([0, 2, 1, 3], [0, 3, 1, 2], [0, 1, 3, 2]):
        out = encode_paths(params, pos, Tensor(path[perm][None]))
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
        reprs = encode_paths(params, pos, Tensor(feats))
        np.testing.assert_allclose(reprs.data, oracle_encoder(params, pos, feats)[0],
                                   rtol=0, atol=1e-8)


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
        reprs = encode_paths(params, pos, Tensor(feats))
        return tsum(mul(reprs, reprs))

    worst = check_grad(build, arrays, step=1e-5, rtol=1e-3)
    assert worst < 1e-3


# --- position-0 readout of the last layer --------------------------------

def full_layers(params, pos, feats, rate=0.0, rng=None):
    """Every layer on all T tokens -> (last layer's (N, T, d) output, attention)."""
    x = ag.add(ag.matmul(Tensor(feats), params.w_in), params.b_in)
    x = ag.add(x, Tensor(pos[:feats.shape[1]]))
    attn = []
    for layer in params.layers:
        x, a = _encoder_layer(layer, x, params.heads, rate, rng)
        attn.append(a)
    return x, attn


def test_readout_is_row_0_of_the_full_last_layer():
    params = tiny_encoder(layers=2, seed=11)
    pos = build_position_table(8, 8, dtype=np.float64)
    feats = RNG.normal(size=(7, 6, 5))
    reprs = encode_paths(params, pos, Tensor(feats))
    full, full_attn = full_layers(params, pos, feats)
    assert reprs.shape == (7, 8)
    np.testing.assert_allclose(reprs.data, full.data[:, 0], rtol=0, atol=1e-12)
    maps = attention_maps(params, pos, Tensor(feats))
    assert len(maps) == 2
    for got, want in zip(maps, full_attn):
        assert got.shape == (7, 2, 6, 6) and got.tobytes() == want.tobytes()


def test_readout_layer_queries_only_position_0():
    params = tiny_encoder(layers=1, seed=13)
    x = Tensor(RNG.normal(size=(5, 4, 8)))
    out, attn = _encoder_layer(params.layers[0], x, params.heads, 0.0, None, readout=True)
    full, full_attn = _encoder_layer(params.layers[0], x, params.heads, 0.0, None)
    assert out.shape == (5, 1, 8) and attn.shape == (5, 2, 1, 4)
    np.testing.assert_allclose(attn, full_attn[:, :, :1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data, full.data[:, :1], rtol=0, atol=1e-12)


def test_dropout_stream_draws_one_row_per_path_in_the_readout_layer():
    # (N, T, d) twice per earlier layer, then (N, 1, d) twice for the readout
    n, t, d, rate = 5, 4, 8, 0.3
    params = tiny_encoder(d=d, layers=3, seed=12)
    pos = build_position_table(8, d, dtype=np.float64)
    feats = RNG.normal(size=(n, t, 5))
    rng_a, rng_b, rng_c = (np.random.Generator(np.random.PCG64(21)) for _ in range(3))
    reprs = encode_paths(params, pos, Tensor(feats), rng=rng_a, dropout_rate=rate)
    for shape in [(n, t, d)] * 4 + [(n, 1, d)] * 2:
        rng_b.random(shape)
    assert rng_a.random(3).tobytes() == rng_b.random(3).tobytes()
    expect = oracle_encoder(params, pos, feats,
                            keep=lambda shape: (rng_c.random(shape) >= rate) / (1 - rate))[0]
    np.testing.assert_allclose(reprs.data, expect, rtol=0, atol=1e-12)
    undropped = encode_paths(params, pos, Tensor(feats))
    assert not np.allclose(reprs.data, undropped.data)  # dropout did act


def test_readout_layer_gradients_finite_difference():
    # wq and wk of the last layer reach the output only through position 0's query
    d, heads = 8, 2
    feats = RNG.normal(size=(2, 4, 5))
    weights = Tensor(RNG.normal(size=(2, d)))
    params = tiny_encoder(d=d, heads=heads, layers=2, seed=17)
    last = params.layers[-1]
    names = [name for name, _ in layer_shapes(d)]
    arrays = [getattr(last, name).data.copy() for name in names]
    pos = build_position_table(6, d, dtype=np.float64)

    def build(ts):
        for name, t in zip(names, ts):
            setattr(last, name, t)
        return tsum(mul(encode_paths(params, pos, Tensor(feats)), weights))

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
        encode_paths(params, pos, Tensor(RNG.normal(size=(1, 5, 5))))


def test_feature_width_mismatch():
    params = tiny_encoder(feat=5)
    pos = build_position_table(6, 8, dtype=np.float64)
    with pytest.raises(ShapeMismatch):
        encode_paths(params, pos, Tensor(RNG.normal(size=(1, 3, 9))))
