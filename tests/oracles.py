"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is written independently of the package internals: plain
loops, recursion, and explicit counting, so agreement is meaningful.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def oracle_hit_rate(rankings: dict, targets: dict, k: int) -> float:
    hits = 0
    for user, target in targets.items():
        if target in list(rankings[user])[:k]:
            hits += 1
    return hits / len(targets)


def oracle_ndcg(rankings: dict, targets: dict, k: int) -> float:
    total = 0.0
    for user, target in targets.items():
        gain = 0.0
        for position, item in enumerate(list(rankings[user])[:k], start=1):
            if item == target:
                gain = 1.0 / math.log2(position + 1)
                break
        total += gain
    return total / len(targets)


def _ngrams(tokens: list, n: int) -> list[tuple]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def oracle_bleu(candidate: list, reference: list, max_n: int = 4) -> float:
    if len(candidate) == 0:
        return 0.0
    precisions = []
    for n in range(1, max_n + 1):
        cand_grams = _ngrams(candidate, n)
        if not cand_grams:
            return 0.0
        clipped = 0
        for gram in set(cand_grams):
            clipped += min(cand_grams.count(gram), _ngrams(reference, n).count(gram))
        if clipped == 0:
            return 0.0
        precisions.append(clipped / len(cand_grams))
    geo = math.prod(precisions) ** (1.0 / max_n)
    if len(candidate) > len(reference):
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(reference) / len(candidate))
    return bp * geo


def oracle_rouge1(candidate: list, reference: list) -> float:
    if not candidate:
        return 0.0
    overlap = 0
    for token in set(reference):
        overlap += min(reference.count(token), candidate.count(token))
    return overlap / len(reference)


def oracle_rouge_l(candidate: list, reference: list) -> float:
    if not candidate:
        return 0.0
    a = tuple(candidate)
    b = tuple(reference)

    @lru_cache(maxsize=None)
    def lcs(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return lcs(i - 1, j - 1) + 1
        return max(lcs(i - 1, j), lcs(i, j - 1))

    length = lcs(len(a), len(b))
    lcs.cache_clear()
    if length == 0:
        return 0.0
    precision = length / len(a)
    recall = length / len(b)
    return 2.0 * precision * recall / (precision + recall)


# The CF attention stack as first written, with every contraction spelled out
# as an einsum. The package computes the same quantities with batched and 2-D
# matmuls, which sum in another order, so comparisons use a tolerance.

_NEG_INF = -1e30


def oracle_cf_forward(params: dict, config, ids: np.ndarray, drop_masks=None, h0=None):
    n_b, length = ids.shape
    d = config.embed_dim
    heads = config.heads
    d_h = d // heads
    real = (ids != 0).astype(np.float64)
    mask = real[:, :, None]
    if h0 is None:
        pos = params["pos_emb"][config.max_history - length:]
        h0 = params["item_emb"][ids] + pos[None, :, :]
    h = h0 * mask
    if drop_masks is not None:
        h = h * drop_masks["emb"]
    causal = np.tril(np.ones((length, length), dtype=bool))
    allow = causal[None, None, :, :] & (real[:, None, None, :] > 0)
    cache = {"ids": ids, "mask": mask, "allow": allow, "length": length, "blocks": []}
    for b in range(config.blocks):
        p = lambda n: params[f"blk{b}.{n}"]
        q = h @ p("wq").T + p("bq")
        k = h @ p("wk").T + p("bk")
        v = h @ p("wv").T + p("bv")

        def split(x):
            return x.reshape(n_b, length, heads, d_h).transpose(0, 2, 1, 3)

        qh, kh, vh = split(q), split(k), split(v)
        scores = np.einsum("bhid,bhjd->bhij", qh, kh) / math.sqrt(d_h)
        scores = np.where(allow, scores, _NEG_INF)
        m = scores.max(axis=-1, keepdims=True)
        e = np.exp(scores - m) * allow
        denom = np.maximum(e.sum(axis=-1, keepdims=True), 1e-30)
        attn = e / denom
        ctx_h = np.einsum("bhij,bhjd->bhid", attn, vh)
        ctx = ctx_h.transpose(0, 2, 1, 3).reshape(n_b, length, d)
        out = ctx @ p("wo").T + p("bo")
        if drop_masks is not None:
            out = out * drop_masks[f"attn{b}"]
        h_attn = (h + out) * mask
        pre = h_attn @ p("w1").T + p("b1")
        act = np.maximum(pre, 0.0)
        ffn = act @ p("w2").T + p("b2")
        if drop_masks is not None:
            ffn = ffn * drop_masks[f"ffn{b}"]
        h_new = (h_attn + ffn) * mask
        cache["blocks"].append(
            {"h_in": h, "qh": qh, "kh": kh, "vh": vh, "attn": attn, "ctx": ctx,
             "h_attn": h_attn, "pre": pre, "act": act}
        )
        h = h_new
    cache["h_final"] = h
    return h[:, -1, :], cache


def oracle_cf_backward(params: dict, config, cache: dict, d_rep: np.ndarray, drop_masks=None):
    n_b = d_rep.shape[0]
    length = cache["length"]
    d = config.embed_dim
    heads = config.heads
    d_h = d // heads
    mask = cache["mask"]
    allow = cache["allow"]
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    dh = np.zeros((n_b, length, d))
    dh[:, -1, :] = d_rep
    for b in reversed(range(config.blocks)):
        blk = cache["blocks"][b]
        p = lambda n: params[f"blk{b}.{n}"]
        g = lambda n: grads[f"blk{b}.{n}"]
        d_sum = dh * mask
        d_ffn = d_sum
        if drop_masks is not None:
            d_ffn = d_ffn * drop_masks[f"ffn{b}"]
        d_h_attn = d_sum.copy()
        g("w2")[...] += np.einsum("bld,blf->df", d_ffn, blk["act"])
        g("b2")[...] += d_ffn.sum(axis=(0, 1))
        d_act = d_ffn @ p("w2")
        d_pre = d_act * (blk["pre"] > 0)
        g("w1")[...] += np.einsum("blf,bld->fd", d_pre, blk["h_attn"])
        g("b1")[...] += d_pre.sum(axis=(0, 1))
        d_h_attn += d_pre @ p("w1")
        d_sum2 = d_h_attn * mask
        d_out = d_sum2
        if drop_masks is not None:
            d_out = d_out * drop_masks[f"attn{b}"]
        dh = d_sum2.copy()
        g("wo")[...] += np.einsum("bld,blc->dc", d_out, blk["ctx"])
        g("bo")[...] += d_out.sum(axis=(0, 1))
        d_ctx = d_out @ p("wo")
        d_ctx_h = d_ctx.reshape(n_b, length, heads, d_h).transpose(0, 2, 1, 3)
        attn = blk["attn"]
        d_attn = np.einsum("bhid,bhjd->bhij", d_ctx_h, blk["vh"])
        d_vh = np.einsum("bhij,bhid->bhjd", attn, d_ctx_h)
        inner = (d_attn * attn).sum(axis=-1, keepdims=True)
        d_scores = attn * (d_attn - inner)
        d_scores = np.where(allow, d_scores, 0.0) / math.sqrt(d_h)
        d_qh = np.einsum("bhij,bhjd->bhid", d_scores, blk["kh"])
        d_kh = np.einsum("bhij,bhid->bhjd", d_scores, blk["qh"])

        def merge(x):
            return x.transpose(0, 2, 1, 3).reshape(n_b, length, d)

        d_q, d_k, d_v = merge(d_qh), merge(d_kh), merge(d_vh)
        h_in = blk["h_in"]
        for nm, dx in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
            g(nm)[...] += np.einsum("bld,blc->dc", dx, h_in)
            grads[f"blk{b}.b{nm[1]}"] += dx.sum(axis=(0, 1))
            dh += dx @ p(nm)
    if drop_masks is not None:
        dh = dh * drop_masks["emb"]
    d_h0 = dh * mask
    np.add.at(grads["item_emb"], cache["ids"], d_h0)
    grads["pos_emb"][config.max_history - length:] += d_h0.sum(axis=0)
    return grads


def oracle_adam(params: dict, grad_seq: list, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written as its textbook expression, one fresh temporary per term."""
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    for t, grads in enumerate(grad_seq, start=1):
        for name, grad in grads.items():
            m[name] = beta1 * m[name] + (1.0 - beta1) * grad
            v[name] = beta2 * v[name] + (1.0 - beta2) * grad * grad
            m_hat = m[name] / (1.0 - beta1**t)
            v_hat = v[name] / (1.0 - beta2**t)
            params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params
