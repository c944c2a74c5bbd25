"""Shared finite-difference helpers for the test suites.

Oracle: central finite differences in float64. For a scalar function f and
coordinate step h, df/dx_i ~ (f(x + h e_i) - f(x - h e_i)) / 2h. Agreement
rule throughout: |a - b| <= tol * max(1, |a|, |b|).
"""

import contextlib
import json
import math
from typing import Iterable

import numpy as np

from slu import autodiff as ad
from slu import decoders
from slu.config import AblationMode
from slu.decoders import CrfHead
from slu.encoder import Encoder
from slu.interaction import InteractionStack

FD_STEP = 1e-3
FD_TOL = 1e-4


def numeric_grad(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x (float64)."""
    x = np.array(x, dtype=np.float64, order="C")  # reshape(-1) below must be a view
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def assert_close(analytic: np.ndarray, numeric: np.ndarray, tol: float = FD_TOL):
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    assert a.shape == b.shape, f"shape mismatch {a.shape} vs {b.shape}"
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    err = np.abs(a - b) / denom
    worst = float(err.max()) if err.size else 0.0
    assert worst <= tol, f"max relative error {worst:.3e} exceeds {tol:.0e}"


def crf_brute_force(emissions: np.ndarray, T: np.ndarray):
    """Exhaustive-path oracle for a linear-chain CRF on ONE sequence.

    ``emissions`` is (n, S); ``T`` is the full (S+2, S+2) table with the
    begin state at index S and the end state at S+1. Returns
    (log_partition, best_path, best_score) by enumerating all S^n paths.
    """
    import itertools

    n, S = emissions.shape
    begin, end = S, S + 1
    scores = []
    paths = []
    for path in itertools.product(range(S), repeat=n):
        s = T[begin, path[0]] + emissions[0, path[0]]
        for t in range(1, n):
            s += T[path[t - 1], path[t]] + emissions[t, path[t]]
        s += T[path[-1], end]
        scores.append(s)
        paths.append(path)
    scores = np.array(scores)
    m = scores.max()
    log_z = m + np.log(np.exp(scores - m).sum())
    best = int(scores.argmax())
    return log_z, list(paths[best]), float(scores[best])


def logsumexp(a, axis: int = -1) -> ad.Tensor:
    """log sum exp over ``axis``, shifted by the max. The log-space
    step of the composed CRF oracle, and the normaliser of the composed
    cross-entropy."""
    a = ad._as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    out_k = m + np.log(np.exp(a.data - m).sum(axis=axis, keepdims=True))

    def backward(g):
        return (np.exp(a.data - out_k) * np.expand_dims(g, axis),)

    return ad._make_node(np.squeeze(out_k, axis=axis), (a,), backward)


def cross_entropy_composed(logits, gold: np.ndarray) -> ad.Tensor:
    """Summed cross-entropy from generic nodes: ``logsumexp`` of each row
    minus its gold logit. Reference for ``decoders.cross_entropy_sum``."""
    picked = logits[np.arange(logits.shape[0]), np.asarray(gold)]
    return ad.tsum(ad.add(logsumexp(logits, axis=-1), ad.mul(picked, -1.0)))


def crf_log_partition_composed(crf, emissions, mask: np.ndarray):
    """log Z per sequence from the forward algorithm composed of autodiff
    ops in log space: one ``logsumexp`` over a (B, S, S) array per step.

    Reference for the fused ``CrfHead.log_partition``; its values and
    gradients come from the generic ops alone.
    """
    B, n, S = emissions.data.shape
    trans3 = crf.T[None, :S, :S]  # (1, from, to)
    alpha = ad.add(crf.T[crf.begin, :S], emissions[:, 0])  # (B, S)
    for t in range(1, n):
        inner = ad.add(reshape(alpha, (B, S, 1)), trans3)
        prop = ad.add(logsumexp(inner, axis=1), emissions[:, t])
        alpha = where(mask[:, t][:, None], prop, alpha)
    alpha = ad.add(alpha, crf.T[:S, crf.end])
    return logsumexp(alpha, axis=-1)  # (B,)


def crf_gold_score_composed(crf, emissions, gold: np.ndarray, mask: np.ndarray):
    """Summed gold path score from generic nodes: two ``getitem`` picks, of
    the gold emissions and of the gold transitions, each summed by
    ``tsum``. Reference for the one-node ``CrfHead.gold_score``."""
    sent, t = np.nonzero(mask)
    tags = np.asarray(gold)[sent, t]
    first = np.flatnonzero(t == 0)
    prev = np.insert(tags, first, crf.begin)
    cur = np.insert(tags, np.r_[first[1:], tags.size], crf.end)
    return ad.add(ad.tsum(emissions[sent, t, tags]), ad.tsum(crf.T[prev, cur]))


def crf_gold_score_loop(crf, emissions: np.ndarray, gold: np.ndarray, mask: np.ndarray):
    """Per-sentence gold path scores, (B,), and the gradients of their sum
    with respect to the emissions and ``T``, sentence by sentence in
    numpy. Reference for the vectorised ``CrfHead.gold_score``."""
    T = crf.T.data
    scores = np.zeros(len(gold))
    dE, dT = np.zeros(emissions.shape), np.zeros(T.shape)
    for b, length in enumerate(mask.sum(axis=1)):
        path = [crf.begin, *gold[b, :length].tolist(), crf.end]
        for t, tag in enumerate(path[1:-1]):
            scores[b] += emissions[b, t, tag]
            dE[b, t, tag] += 1.0
        for prev, cur in zip(path[:-1], path[1:]):
            scores[b] += T[prev, cur]
            dT[prev, cur] += 1.0
    return scores, dE, dT


def viterbi_loop(crf, emissions: np.ndarray, mask: np.ndarray) -> list[list[int]]:
    """Best path per sentence with the (from, to) layout: each step adds the
    state down the rows of ``T[:S, :S]`` and takes ``argmax(axis=0)``, so
    ties go to the lowest ``from`` index. Reference for ``CrfHead.viterbi``."""
    S = crf.num_slots
    T = crf.T.data
    trans, start, end = T[:S, :S], T[crf.begin, :S], T[:S, crf.end]
    paths = []
    for b, length in enumerate(np.asarray(mask).sum(axis=1)):
        em = emissions[b, :length]
        delta = start + em[0]
        backptr = np.zeros((length, S), dtype=np.int64)
        for t in range(1, length):
            cand = delta[:, None] + trans  # (from, to)
            backptr[t] = cand.argmax(axis=0)
            delta = cand[backptr[t], np.arange(S)] + em[t]
        best = int((delta + end).argmax())
        path = [best]
        for t in range(length - 1, 0, -1):
            best = int(backptr[t, best])
            path.append(best)
        paths.append(path[::-1])
    return paths


def fd_check_unary(op, x: np.ndarray, tol: float = FD_TOL, **kwargs):
    """Backward of ``op`` against finite differences, via a random projection.

    The scalar probe is sum(op(x) * r) for a fixed random r, which exercises
    the full Jacobian-transpose product rather than one output at a time.
    """
    rng = np.random.default_rng(7)
    x64 = x.astype(np.float64)
    probe_shape = op(ad.Tensor(x64), **kwargs).data.shape
    r = rng.standard_normal(probe_shape)

    t = ad.Tensor(x64, requires_grad=True)
    out = op(t, **kwargs)
    loss = ad.tsum(ad.mul(out, ad.Tensor(r)))
    loss.backward()

    def f(arr):
        with ad.no_grad():
            return float(
                ad.tsum(ad.mul(op(ad.Tensor(arr), **kwargs), ad.Tensor(r))).item()
            )

    assert_close(t.grad, numeric_grad(f, x64), tol)


# Generic ops the package does not need: the composed oracles below are
# built from them, and engine tests use them as a nonlinearity, a view or
# a many-parent node.


def softmax_oracle(a) -> ad.Tensor:
    """Softmax with numpy's own reductions, ``max`` and ``sum`` over the
    last axis. Reference for ``ad.softmax``."""
    x = a.data
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (data * (g - (g * data).sum(axis=-1, keepdims=True)),)

    return ad._make_node(data, (a,), backward)


def layer_norm_oracle(a, gamma, beta, eps: float = 1e-5) -> ad.Tensor:
    """Layer norm with numpy's ``mean`` over the last axis. Reference for
    ``ad.layer_norm``."""
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv

    def backward(g):
        gx = g * gamma.data
        da = inv * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return da, ad._unbroadcast(g * xhat, gamma.data.shape), \
            ad._unbroadcast(g, beta.data.shape)

    return ad._make_node(xhat * gamma.data + beta.data, (a, gamma, beta), backward)


def sigmoid(a) -> ad.Tensor:
    a = ad._as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return (g * data * (1.0 - data),)

    return ad._make_node(data, (a,), backward)


def tanh(a) -> ad.Tensor:
    a = ad._as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - data * data),)

    return ad._make_node(data, (a,), backward)


def reshape(a, shape) -> ad.Tensor:
    a = ad._as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return ad._make_node(data, (a,), backward)


def where(cond: np.ndarray, a, b) -> ad.Tensor:
    """Elementwise select by a constant boolean mask; gradients route by it."""
    a = ad._as_tensor(a)
    b = ad._as_tensor(b, ref=a)
    cond = np.asarray(cond, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(g):
        return (ad._unbroadcast(np.where(cond, g, 0.0), a.data.shape)
                if a.requires_grad else None,
                ad._unbroadcast(np.where(cond, 0.0, g), b.data.shape)
                if b.requires_grad else None)

    return ad._make_node(data, (a, b), backward)


def stack(tensors: Iterable[ad.Tensor], axis: int = 0) -> ad.Tensor:
    """Stack equal-shape tensors along a new axis."""
    parts = [ad._as_tensor(t) for t in tensors]
    data = np.stack([p.data for p in parts], axis=axis)

    def backward(g):
        return np.moveaxis(g, axis, 0)

    return ad._make_node(data, parts, backward)


def lstm_oracle_run(W, b, embedded, mask: np.ndarray, reverse: bool):
    """One LSTM direction stepped position by position, masked per step.

    Reference for ``Encoder.bilstm``: ``W`` (e + dh, 4dh) and ``b`` (4dh)
    are one direction's weights, the state only advances where the mask is
    True, the backward direction walks from the last position to the
    first, and emitted vectors at masked positions are zero.
    """
    B, n, _ = embedded.data.shape
    dh = b.shape[-1] // 4
    dtype = embedded.data.dtype
    h = ad.Tensor(np.zeros((B, dh), dtype=dtype))
    c = ad.Tensor(np.zeros((B, dh), dtype=dtype))
    zero = ad.Tensor(np.zeros((B, dh), dtype=dtype))
    order = range(n - 1, -1, -1) if reverse else range(n)
    outputs = [None] * n
    for t in order:
        m_t = mask[:, t][:, None]
        x_h = ad.concat([embedded[:, t], h], axis=-1)
        gates = ad.add(ad.matmul(x_h, W), b)
        i = sigmoid(gates[:, :dh])
        f = sigmoid(gates[:, dh:2 * dh])
        o = sigmoid(gates[:, 2 * dh:3 * dh])
        g = tanh(gates[:, 3 * dh:])
        c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
        h_new = ad.mul(o, tanh(c_new))
        h = where(m_t, h_new, h)
        c = where(m_t, c_new, c)
        outputs[t] = where(m_t, h, zero)
    return stack(outputs, axis=1)


def bilstm_oracle(enc, packed, rows):
    """Both directions of ``enc`` run apart by ``lstm_oracle_run`` on the
    packed inputs scattered into the padded layout, then the real rows
    gathered in ``rows`` order. Each direction reads its slice
    ``enc.W[k]``, ``enc.b[k]``, so its gradients reach the stacked tensors."""
    mask = rows.mask
    embedded = scatter(packed, mask)
    padded = ad.concat([lstm_oracle_run(enc.W[k], enc.b[k], embedded, mask, reverse=bool(k))
                        for k in (0, 1)], axis=-1)
    return gather(padded, mask)


# Packing by ``np.nonzero`` of the mask alone, so the oracles share no
# index arithmetic with ``RowMap``.


def gather(x, mask: np.ndarray):
    """(B, n, ...) tensor -> its (N, ...) real rows, as a getitem node."""
    return x[np.nonzero(mask)]


def scatter(x, mask: np.ndarray):
    """(N, ...) packed rows -> (B, n, ...), zero at pads."""
    real = np.nonzero(mask)
    data = np.zeros(mask.shape + x.shape[1:], dtype=x.dtype)
    data[real] = x.data
    return ad._make_node(data, (x,), lambda g: (g[real],))


def dropout_real_rows(x, mask: np.ndarray, dropout_p: float, rng):
    """Dropout on the real rows of a (B, n, ...) tensor: the rows gathered,
    masked at their packed (N, ...) shape as the packed stack masks them,
    and scattered back, zero at pads."""
    return scatter(ad.dropout(gather(x, mask), dropout_p, rng), mask)


# The interaction stack on the padded layout: every stage on (B, n, ·)
# tensors, pads passed through or zeroed by ``where``, and attention
# composed of generic ops. Reference for the packed stack and its fused
# attention node; it draws the same dropout masks in the same order (the
# position-wise stages over their real rows only), so a seeded model
# trains the same under either.


def label_attention_padded(H, W, mask: np.ndarray, dropout_p: float = 0.0, rng=None):
    """H + softmax(H W) W^T on (B, n, d) states; pad positions pass through."""
    A = dropout_real_rows(ad.softmax(ad.matmul(H, W)), mask, dropout_p, rng)
    out = ad.add(H, ad.matmul(A, ad.transpose(W, (1, 0))))
    return where(mask[:, :, None], out, H)


def multi_head_attention_padded(Q, K, V, key_mask: np.ndarray, num_heads: int,
                                dropout_p: float = 0.0, rng=None):
    """Attention over (B, n, dm) projections in 14 generic nodes: split the
    heads, scale the scores, mask the pad keys to -inf, softmax, dropout,
    context, merge the heads."""
    B, n, dm = Q.data.shape
    dk = dm // num_heads

    def split(x):
        return ad.transpose(reshape(x, (B, n, num_heads, dk)), (0, 2, 1, 3))

    q, k, v = split(Q), split(K), split(V)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
    A = ad.softmax(where(key_mask[:, None, None, :], scores, -np.inf))
    A = ad.dropout(A, dropout_p, rng)
    ctx = ad.matmul(A, v)
    return reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, n, dm))


def cross_attention_padded(layer, H_I, H_S, mask, rng):
    w = layer._weights
    mode = layer.mode

    def attend(q, k, v):
        return multi_head_attention_padded(q, k, v, mask, layer.num_heads,
                                           layer.dropout, rng)

    if mode == AblationMode.SELF_ATTENTION:
        X = ad.concat([H_S, H_I], axis=-1)
        ctx = attend(ad.matmul(X, w["self_q"]), ad.matmul(X, w["self_k"]),
                     ad.matmul(X, w["self_v"]))
        fused = layer.ln_self(ad.add(X, ctx))
        return fused[..., layer.d:], fused[..., :layer.d]
    if mode != AblationMode.SLOT_TO_INTENT_ONLY:
        new_S = layer.ln_s(ad.add(H_S, attend(ad.matmul(H_S, w["q_s"]),
                                              ad.matmul(H_I, w["k_i"]),
                                              ad.matmul(H_I, w["v_i"]))))
    else:
        new_S = layer.ln_s(H_S)
    if mode != AblationMode.INTENT_TO_SLOT_ONLY:
        new_I = layer.ln_i(ad.add(H_I, attend(ad.matmul(H_I, w["q_i"]),
                                              ad.matmul(H_S, w["k_s"]),
                                              ad.matmul(H_S, w["v_s"]))))
    else:
        new_I = layer.ln_i(H_I)
    return new_I, new_S


def ffn_fuse_padded(layer, H_I, H_S, mask, rng):
    """Window FFN over (B, n, d) streams: pads zeroed, zero edge rows
    concatenated on either side, the (B, n, 6d) window sliced from them."""
    combined = where(mask[:, :, None], ad.concat([H_I, H_S], axis=-1), 0.0)
    B, n, width = combined.shape
    edge = ad.Tensor(np.zeros((B, 1, width), dtype=combined.dtype))
    padded = ad.concat([edge, combined, edge], axis=1)  # (B, n + 2, 2d)
    window = ad.concat([padded[:, :n], combined, padded[:, 2:]], axis=-1)
    hidden = ad.relu(ad.add(ad.matmul(window, layer.W1), layer.b1))
    ffn = ad.add(ad.matmul(hidden, layer.W2), layer.b2)
    ffn = dropout_real_rows(ffn, mask, layer.dropout, rng)
    return layer.ln_i_out(ad.add(H_I, ffn)), layer.ln_s_out(ad.add(H_S, ffn))


def interaction_forward_padded(stack, H, W_I, W_S, rows, rng=None):
    """``InteractionStack.forward`` on the padded layout: the packed input
    scattered to (B, n, d), every layer run padded, the real rows of both
    streams gathered back."""
    mask = rows.mask
    cur_I = cur_S = scatter(H, mask)
    for layer in stack.layers:
        if layer.mode != AblationMode.NO_INTENT_LABEL_ATTENTION:
            cur_I = label_attention_padded(cur_I, W_I, mask, layer.dropout, rng)
        if layer.mode != AblationMode.NO_SLOT_LABEL_ATTENTION:
            cur_S = label_attention_padded(cur_S, W_S, mask, layer.dropout, rng)
        cur_I, cur_S = cross_attention_padded(layer, cur_I, cur_S, mask, rng)
        cur_I, cur_S = ffn_fuse_padded(layer, cur_I, cur_S, mask, rng)
    return gather(cur_I, mask), gather(cur_S, mask)


@contextlib.contextmanager
def composed_kernels():
    """Run the model with every fused kernel swapped for its composed
    oracle: the BiLSTM node, the CRF log-partition and gold-score nodes,
    the intent cross-entropy node and the packed interaction stack with
    its fused attention."""
    swaps = [(Encoder, "bilstm", bilstm_oracle),
             (CrfHead, "log_partition", crf_log_partition_composed),
             (CrfHead, "gold_score", crf_gold_score_composed),
             (decoders, "cross_entropy_sum", cross_entropy_composed),
             (InteractionStack, "forward", interaction_forward_padded)]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in swaps]
    try:
        for owner, name, oracle in swaps:
            setattr(owner, name, oracle)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def graph_dtype_census(loss) -> dict[str, dict[str, float]]:
    """Node count and activation MiB per dtype over every tensor that
    ``loss.backward()`` visits: ``loss`` and its ancestors reached through
    parents that require a gradient. Call it before ``backward()``, which
    frees the graph. Keys are dtype names, e.g.
    ``{"float32": {"nodes": 581, "activation_mib": 89.2}}``.
    """
    seen = {id(loss)}
    stack = [loss]
    census: dict[str, dict[str, float]] = {}
    while stack:
        node = stack.pop()
        row = census.setdefault(node.data.dtype.name, {"nodes": 0, "activation_mib": 0.0})
        row["nodes"] += 1
        row["activation_mib"] += node.data.nbytes / 2**20
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return census


def adam_step_oracle(opt) -> None:
    """One ``Adam.step`` in its earlier, allocating form: every moment and
    update is a fresh array and the parameter array is replaced.

    Reference for the in-place ``Adam.step``, which must give the same bits.
    """
    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t
    for p, m, v in zip(opt.params, opt._m, opt._v):
        g = p.tensor.grad
        if g is None:
            continue
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        update = opt.lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)
        if p.decay and opt.weight_decay > 0.0:
            update = update + opt.lr * opt.weight_decay * p.tensor.data
        p.tensor.data = (p.tensor.data - update).astype(p.tensor.data.dtype)


def rewrite_header(raw: bytes, edit) -> bytes:
    """Checkpoint bytes with the JSON header replaced by ``edit(header)``."""
    n = int.from_bytes(raw[4:12], "little")
    header = edit(json.loads(raw[12 : 12 + n]))
    text = json.dumps(header).encode("utf-8")
    return raw[:4] + len(text).to_bytes(8, "little") + text + raw[12 + n :]


def _without_params(header: dict) -> dict:
    del header["params"]
    return header


def _without_first_offset(header: dict) -> dict:
    del header["params"][0]["offset"]
    return header


def _with_config(key: str, value):
    def edit(header: dict) -> dict:
        header["config"][key] = value
        return header
    return edit


# Malformed checkpoints, each derived from the bytes of a valid one.
CORRUPT_CHECKPOINTS = {
    "header_without_params": lambda raw: rewrite_header(raw, _without_params),
    "header_is_json_array": lambda raw: rewrite_header(raw, lambda h: [h]),
    "record_without_offset": lambda raw: rewrite_header(raw, _without_first_offset),
    "header_len_past_end": lambda raw: (
        raw[:4] + (len(raw) + 1).to_bytes(8, "little") + raw[12:]),
    # Mistyped config values: JSON numbers of the wrong kind.
    "config_num_layers_float": lambda raw: rewrite_header(raw, _with_config("num_layers", 2.0)),
    "config_seed_float": lambda raw: rewrite_header(raw, _with_config("seed", 1.5)),
    "config_batch_size_float": lambda raw: rewrite_header(raw, _with_config("batch_size", 2.5)),
}
