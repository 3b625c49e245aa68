import math
from dataclasses import fields

import numpy as np
import pytest

from pathsage.autograd import Tensor
from pathsage.encoder import (
    EncoderParams,
    build_position_table,
    encode_paths,
)
from pathsage.errors import OddDimension, PathTooLong, ShapeMismatch

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
    rng = np.random.Generator(np.random.PCG64(seed))
    return EncoderParams.init(rng, feat, d, heads, layers, dtype=dtype)


def test_attention_rows_sum_to_one():
    params = tiny_encoder(layers=2)
    pos = build_position_table(6, 8, dtype=np.float64)
    feats = RNG.normal(size=(3, 5, 5))
    _, attn = encode_paths(params, pos, Tensor(feats))
    for layer in attn:
        np.testing.assert_allclose(layer.sum(axis=-1), 1.0, atol=1e-5)


def test_single_token_attention_is_identity():
    params = tiny_encoder()
    pos = build_position_table(4, 8, dtype=np.float64)
    reprs, attn = encode_paths(params, pos, Tensor(RNG.normal(size=(1, 1, 5))))
    assert reprs.data[0].shape == (8,)
    for layer in attn:
        np.testing.assert_allclose(layer[0], 1.0)
        assert layer[0].shape == (2, 1, 1)


def test_deterministic_without_dropout():
    params = tiny_encoder(layers=2)
    pos = build_position_table(6, 8, dtype=np.float64)
    feats = RNG.normal(size=(2, 4, 5))
    r1, _ = encode_paths(params, pos, Tensor(feats))
    r2, _ = encode_paths(params, pos, Tensor(feats))
    assert (r1.data == r2.data).all()


def test_position_sensitivity():
    # permuting non-central tokens must change the representation for
    # generic parameters: order is injected by the position embeddings
    params = tiny_encoder(layers=1, seed=5)
    pos = build_position_table(6, 8, dtype=np.float64)
    path = RNG.normal(size=(4, 5))
    base, _ = encode_paths(params, pos, Tensor(path[None]))
    changed = False
    for perm in ([0, 2, 1, 3], [0, 3, 1, 2], [0, 1, 3, 2]):
        out, _ = encode_paths(params, pos, Tensor(path[perm][None]))
        if not np.allclose(out.data, base.data):
            changed = True
    assert changed


def test_scaled_dot_product_matches_per_head_loop():
    d, heads = 8, 2
    dh = d // heads
    params = tiny_encoder(d=d, heads=heads, layers=1, seed=9)
    pos = build_position_table(6, d, dtype=np.float64)
    feats = RNG.normal(size=(1, 4, 5))

    # independent straight-line oracle for the first layer's attention
    x = feats[0] @ params.w_in.data + params.b_in.data + pos[:4]
    layer = params.layers[0]
    q = x @ layer.wq.data + layer.bq.data
    k = x @ layer.wk.data
    expect = []
    for h in range(heads):
        qh = q[:, h * dh:(h + 1) * dh]
        kh = k[:, h * dh:(h + 1) * dh]
        scores = qh @ kh.T / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expect.append(e / e.sum(axis=-1, keepdims=True))

    _, attn = encode_paths(params, pos, Tensor(feats))
    for h in range(heads):
        np.testing.assert_allclose(attn[0][0, h], expect[h], atol=1e-5)


def test_forward_matches_straight_line_oracle():
    """Full single-layer forward against an independent numpy oracle."""
    d, heads = 8, 2
    params = tiny_encoder(d=d, heads=heads, layers=1, seed=21)
    pos = build_position_table(6, d, dtype=np.float64)
    feats = RNG.normal(size=(3, 5))

    def ln(v, g, b, eps=1e-5):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps) * g + b

    x = feats @ params.w_in.data + params.b_in.data + pos[:3]
    layer = params.layers[0]
    q = x @ layer.wq.data + layer.bq.data
    k = x @ layer.wk.data
    v = x @ layer.wv.data + layer.bv.data
    dh = d // heads
    ctx = np.zeros_like(x)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        ctx[:, sl] = w @ v[:, sl]
    att_out = ctx @ layer.wo.data + layer.bo.data
    x1 = ln(x + att_out, layer.ln1_g.data, layer.ln1_b.data)
    ffn = np.maximum(x1 @ layer.w1.data + layer.b1.data, 0) @ layer.w2.data + layer.b2.data
    x2 = ln(x1 + ffn, layer.ln2_g.data, layer.ln2_b.data)

    reprs, _ = encode_paths(params, pos, Tensor(feats[None]))
    np.testing.assert_allclose(reprs.data[0], x2[0], atol=1e-8)


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
        for f, t in zip(fields(layer), ts[2:]):
            setattr(layer, f.name, t)
        pos = build_position_table(6, d, dtype=np.float64)
        reprs, _ = encode_paths(params, pos, Tensor(feats))
        return tsum(mul(reprs, reprs))

    worst = check_grad(build, arrays, step=1e-5, rtol=1e-3)
    assert worst < 1e-3


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
