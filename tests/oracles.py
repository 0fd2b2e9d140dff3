"""Brute-force reference implementations used to cross-check the fast paths,
and the test fixtures that no pipeline stage needs.

The references are written independently of the package internals: plain
loops, recursion, and explicit counting, so agreement is meaningful.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit


def oracle_hit_rate(rankings: dict, targets: dict, k: int) -> float:
    hits = 0
    for user, target in targets.items():
        if target in list(rankings[user])[:k]:
            hits += 1
    return hits / len(targets)


def oracle_target_ranks(rankings: dict, targets: dict) -> list[int]:
    """Each target's 0-based position in its user's ranking, in target order;
    a target missing from the ranking sits just past its end."""
    ranks = []
    for user, target in targets.items():
        ranking = list(rankings[user])
        ranks.append(ranking.index(target) if target in ranking else len(ranking))
    return ranks


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
# as an einsum, over left-aligned rows with absolute positions. It keeps an
# explicit key mask that the package proves unnecessary (pads only trail a
# row). The package computes the same quantities with batched and 2-D matmuls,
# which sum in another order, so comparisons use a tolerance.

_NEG_INF = -1e30


def oracle_cf_forward(params: dict, config, ids: np.ndarray, drop_masks=None, h0=None):
    n_b, length = ids.shape
    d = config.embed_dim
    heads = config.heads
    d_h = d // heads
    real = (ids != 0).astype(np.float64)
    mask = real[:, :, None]
    if h0 is None:
        pos = params["pos_emb"][:length]
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
        k = h @ p("wk").T
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
    return h, cache


def oracle_cf_backward(params: dict, config, cache: dict, d_outputs: np.ndarray, drop_masks=None):
    """Gradients for d(loss)/d(outputs) given at every position of every row."""
    n_b = d_outputs.shape[0]
    length = cache["length"]
    d = config.embed_dim
    heads = config.heads
    d_h = d // heads
    mask = cache["mask"]
    allow = cache["allow"]
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    dh = d_outputs.copy()
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
            if nm != "wk":
                grads[f"blk{b}.b{nm[1]}"] += dx.sum(axis=(0, 1))
            dh += dx @ p(nm)
    if drop_masks is not None:
        dh = dh * drop_masks["emb"]
    d_h0 = dh * mask
    np.add.at(grads["item_emb"], cache["ids"], d_h0)
    grads["pos_emb"][:length] += d_h0.sum(axis=0)
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


# Each model's initial weights as its own loop first drew them: the CF
# embeddings from N(0, 0.1), then one Glorot-uniform draw per matrix in
# parameter order, with zero vectors between them.


def _oracle_glorot(rng, fan_out: int, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def oracle_cf_init(config, n_items: int, rng) -> dict:
    d = config.embed_dim
    params = {
        "item_emb": rng.normal(0.0, 0.1, size=(n_items + 1, d)),
        "pos_emb": rng.normal(0.0, 0.1, size=(config.max_history, d)),
    }
    for b in range(config.blocks):
        for name in ("wq", "wk", "wv", "wo", "w1", "w2"):
            params[f"blk{b}.{name}"] = _oracle_glorot(rng, d, d)
        for name in ("bq", "bv", "bo", "b1", "b2"):
            params[f"blk{b}.{name}"] = np.zeros(d)
    params["item_emb"][0] = 0.0
    return params


def oracle_alignment_init(collab_dim: int, sem_dim: int, latent_dim: int, rng) -> dict:
    params = {}
    for prefix, d_out, d_in in (
        ("enc_c", latent_dim, collab_dim),
        ("enc_s", latent_dim, sem_dim),
        ("dec_c", collab_dim, latent_dim),
        ("dec_s", sem_dim, latent_dim),
    ):
        params[f"{prefix}.w"] = _oracle_glorot(rng, d_out, d_in)
        params[f"{prefix}.b"] = np.zeros(d_out)
    return params


def oracle_projection_init(d_user: int, d_item: int, d_cot: int, d_token: int, hidden: int,
                           rng) -> dict:
    params = {}
    for prefix, d_in in (("fx", d_user), ("fz", d_item), ("fr", d_cot)):
        params[f"{prefix}.w1"] = _oracle_glorot(rng, hidden, d_in)
        params[f"{prefix}.b1"] = np.zeros(hidden)
        params[f"{prefix}.w2"] = _oracle_glorot(rng, d_token, hidden)
        params[f"{prefix}.b2"] = np.zeros(d_token)
    return params


# The alignment loss and gradients as first written: lists of per-user
# (collab_vec, sem_vec) groups and (user_rep, pos, neg) triples, one encoder
# and decoder pass per occurrence. The package stacks its data once and
# evaluates each distinct item once, which sums in another order, so
# comparisons use a tolerance.

_ALIGN_CLAMP = 1e-7


def oracle_stack_groups(groups):
    """Flatten groups into arrays plus per-item nested-mean weights."""
    e_rows, q_rows, weights = [], [], []
    n_groups = len(groups)
    for group in groups:
        if not group:
            raise ValueError("empty group in alignment batch")
        w = 1.0 / (n_groups * len(group))
        for e, q in group:
            e_rows.append(np.asarray(e, dtype=np.float64))
            q_rows.append(np.asarray(q, dtype=np.float64))
            weights.append(w)
    return np.array(e_rows), np.array(q_rows), np.array(weights)


def oracle_alignment_loss_and_gradients(net, groups: list, triples: list):
    """Loss and gradients of the alignment objective over list-form inputs."""
    p = net.params
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    loss = 0.0

    if groups:
        e, q, w = oracle_stack_groups(groups)
        wcol = w[:, None]
        u = e @ p["enc_c.w"].T + p["enc_c.b"]
        v = q @ p["enc_s.w"].T + p["enc_s.b"]
        diff = u - v
        loss += float(np.sum(w * np.sum(diff * diff, axis=1)))
        wd = 2.0 * wcol * diff
        grads["enc_c.w"] += wd.T @ e
        grads["enc_c.b"] += wd.sum(axis=0)
        grads["enc_s.w"] -= wd.T @ q
        grads["enc_s.b"] -= wd.sum(axis=0)

        r_c = u @ p["dec_c.w"].T + p["dec_c.b"] - e
        loss += net.alpha * float(np.sum(w * np.sum(r_c * r_c, axis=1)))
        wr = 2.0 * net.alpha * wcol * r_c
        grads["dec_c.w"] += wr.T @ u
        grads["dec_c.b"] += wr.sum(axis=0)
        du = wr @ p["dec_c.w"]
        grads["enc_c.w"] += du.T @ e
        grads["enc_c.b"] += du.sum(axis=0)

        r_s = v @ p["dec_s.w"].T + p["dec_s.b"] - q
        loss += net.beta * float(np.sum(w * np.sum(r_s * r_s, axis=1)))
        wt = 2.0 * net.beta * wcol * r_s
        grads["dec_s.w"] += wt.T @ v
        grads["dec_s.b"] += wt.sum(axis=0)
        dv = wt @ p["dec_s.w"]
        grads["enc_s.w"] += dv.T @ q
        grads["enc_s.b"] += dv.sum(axis=0)

    if triples:
        x = np.array([np.asarray(t[0], dtype=np.float64) for t in triples])
        for sign, col in ((1, 1), (-1, 2)):
            e_in = np.array([np.asarray(t[col], dtype=np.float64) for t in triples])
            u = e_in @ p["enc_c.w"].T + p["enc_c.b"]
            recon = u @ p["dec_c.w"].T + p["dec_c.b"]
            s = np.sum(x * recon, axis=1)
            sig = expit(s)
            if sign > 0:
                prob = np.clip(sig, _ALIGN_CLAMP, 1.0 - _ALIGN_CLAMP)
                loss += float(-np.sum(np.log(prob)))
                active = (sig > _ALIGN_CLAMP) & (sig < 1.0 - _ALIGN_CLAMP)
                ds = -(1.0 - sig) * active
            else:
                prob = np.clip(1.0 - sig, _ALIGN_CLAMP, 1.0 - _ALIGN_CLAMP)
                loss += float(-np.sum(np.log(prob)))
                active = (1.0 - sig > _ALIGN_CLAMP) & (1.0 - sig < 1.0 - _ALIGN_CLAMP)
                ds = sig * active
            d_recon = ds[:, None] * x
            grads["dec_c.w"] += d_recon.T @ u
            grads["dec_c.b"] += d_recon.sum(axis=0)
            du = d_recon @ p["dec_c.w"]
            grads["enc_c.w"] += du.T @ e_in
            grads["enc_c.b"] += du.sum(axis=0)

    return loss, grads


def oracle_alignment_terms(net, batch) -> tuple[float, float, float]:
    """The objective's three terms on an AlignmentBatch, each evaluated alone:
    alignment (nested mean of squared encoder gaps), reconstruction (alpha *
    collaborative + beta * semantic autoencoder error, same nested mean) and
    recommendation (summed BCE of sigmoid(x . dec_c(enc_c(e))) over the
    triples, probabilities clamped). The package only computes their sum."""
    p = net.params

    def affine(x, name):
        return np.asarray(x, dtype=np.float64) @ p[f"{name}.w"].T + p[f"{name}.b"]

    def weighted(rows):
        return float(np.sum(batch.w * np.sum(rows * rows, axis=1)))

    u = affine(batch.e, "enc_c")
    v = affine(batch.q, "enc_s")
    alignment = weighted(u - v)
    reconstruction = (net.alpha * weighted(affine(u, "dec_c") - batch.e)
                      + net.beta * weighted(affine(v, "dec_s") - batch.q))

    def scores(e):
        return np.sum(batch.x * affine(affine(e, "enc_c"), "dec_c"), axis=1)

    p_pos = np.clip(expit(scores(batch.pos)), _ALIGN_CLAMP, 1.0 - _ALIGN_CLAMP)
    p_neg = np.clip(1.0 - expit(scores(batch.neg)), _ALIGN_CLAMP, 1.0 - _ALIGN_CLAMP)
    recommendation = float(-np.sum(np.log(p_pos) + np.log(p_neg)))
    return alignment, reconstruction, recommendation


# --- text embedding, ranking and pooled evaluation, one item at a time ------
#
# These are the per-token, per-item and per-user loops the package replaced
# with memoised, masked and batched code. The CF forward pass is the einsum
# oracle above, run on one user at a time.


def oracle_fallback_embed(text: str, dim: int = 768) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.float64)
    for token in text.lower().split():
        digest = hashlib.md5(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "little") % dim
        vec[bucket] += 1.0 if digest[8] & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        return vec
    return vec / norm


def oracle_similarity_mapped(u: np.ndarray, v: np.ndarray) -> float:
    """(cosine + 1) / 2 of two vectors, from np.dot and np.linalg.norm."""
    c = float(np.dot(u, v) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v))))
    return (min(1.0, max(-1.0, c)) + 1.0) / 2.0


def oracle_score_semantic_dimension(dim: str, cot: str, instance, embedder=oracle_fallback_embed):
    """Completeness, relevance, or consistency of one trace, each text embedded
    on its own (the prompt text too)."""
    from fusionrec.cot import LABEL_SENTENCES, _named_candidate, _split_sentences

    if not cot.strip():
        return 0.0
    if dim == "completeness":
        reference = " ".join([instance.history_text(), instance.target_line, instance.prior_line])
        return oracle_similarity_mapped(embedder(cot), embedder(reference))
    if dim == "relevance":
        return oracle_similarity_mapped(embedder(cot), embedder(instance.text()))
    if dim == "consistency":
        sentences = _split_sentences(cot)
        canonical = LABEL_SENTENCES[instance.label]
        semantic_half = oracle_similarity_mapped(embedder(sentences[-1]), embedder(canonical))
        named = _named_candidate(sentences, instance.candidates)
        if named is None:
            agreement = 0.5
        else:
            cf_top = max(instance.candidates, key=lambda c: c[2])[0]
            agreement = 1.0 if named == cf_top else 0.0
        return 0.5 * semantic_half + 0.5 * agreement
    raise ValueError(f"unknown dimension {dim!r}")


def oracle_score_cot(instance, cot: str, weights=(0.25, 0.25, 0.25, 0.25)):
    """(dims, score) of one trace, one dimension at a time."""
    from fusionrec.cot import composite_score, score_coherence

    dims = (score_coherence(cot),) + tuple(
        oracle_score_semantic_dimension(dim, cot, instance)
        for dim in ("completeness", "relevance", "consistency")
    )
    return dims, composite_score(dims, weights)


def oracle_rank_by_score(items: list, scores) -> list:
    order = sorted(range(len(items)), key=lambda i: (-scores[i], items[i]))
    return [items[i] for i in order]


def oracle_sample_pool(target, excluded: set, universe: list, pool_size: int, rng) -> list:
    eligible = [item for item in universe if item not in excluded]
    wanted = pool_size - 1
    if len(eligible) < wanted:
        return [target] + eligible
    chosen = rng.choice(len(eligible), size=wanted, replace=False)
    return [target] + [eligible[i] for i in chosen]


def oracle_slate_items(split, universe: list, slate_size: int, rng) -> dict:
    """Per user (in split order): the sorted item ids of its projection slate,
    drawn like an eval pool around the user's validation item."""
    return {
        user: sorted(oracle_sample_pool(
            split.validation[user], set(split.full_sequence(user)), universe, slate_size, rng
        ))
        for user in split.users()
    }


def oracle_item_vector(cf_model, net, semantic_map, item):
    """(vector, route): the CF row, or the decoded semantic reconstruction."""
    if item in cf_model.item_index:
        return cf_model.params["item_emb"][cf_model.item_index[item]], "collaborative_path"
    p = net.params
    latent = p["enc_s.w"] @ semantic_map[item] + p["enc_s.b"]
    return p["dec_c.w"] @ latent + p["dec_c.b"], "semantic_path"


def oracle_pooled_evaluation(cf_model, net, semantic_map, split, pool_size: int, seed: int):
    """The per-user rank_pool loop: per user, its pool, item scores, ranking
    and target; plus the routing count of every lookup made."""
    rng = np.random.default_rng(seed)
    universe = sorted(split.item_universe())
    routing = Counter()
    results = {}
    for user in sorted(split.train):
        target = split.test[user]
        history = split.train[user] + [split.validation[user]]
        pool = oracle_sample_pool(target, set(split.full_sequence(user)), universe, pool_size, rng)
        recent = history[-cf_model.config.max_history:]
        steps = []
        for item in recent:
            vector, route = oracle_item_vector(cf_model, net, semantic_map, item)
            routing[route] += 1
            steps.append(vector)
        h0 = (np.stack(steps) + cf_model.params["pos_emb"][: len(recent)])[None]
        ids = np.ones((1, len(recent)), dtype=np.int64)
        rep = oracle_cf_forward(cf_model.params, cf_model.config, ids, h0=h0)[0][0, -1]
        scores = {}
        for item in pool:
            vector, route = oracle_item_vector(cf_model, net, semantic_map, item)
            routing[route] += 1
            scores[item] = float(rep @ vector)
        ranking = sorted(pool, key=lambda item: (-scores[item], item))
        results[user] = {"pool": pool, "history": history, "scores": scores,
                         "ranking": ranking, "target": target}
    return results, routing


# --- alignment training at full width ---------------------------------------
#
# The alignment data builder with its per-user list of eligible negatives,
# and the loss, gradients and training loop that ran over every column of the
# semantic encoder. The package draws negatives from a mask over vocabulary
# positions and trains only the encoder columns that its item table uses.


def oracle_alignment_records(cf_model, split, semantic_map: dict, rng, negatives_per_user: int):
    """(users, items, e_rows, q_rows, pairs, triples) in the form that
    `stack_alignment_dataset` takes; negatives are drawn from a list of the
    vocabulary items the user does not own."""
    from fusionrec.cf import user_representations

    def row(item):
        return cf_model.params["item_emb"][cf_model.item_index[item]]

    table, e_rows, q_rows = {}, [], []
    users, pairs, triples = [], [], []
    warm = {}
    for user in split.users():
        history = [item for item in split.train[user] if item in cf_model.item_index]
        if history and split.validation[user] in cf_model.item_index:
            warm[user] = history
    reps = dict(zip(warm, user_representations(cf_model, list(warm.values()))))
    for user in split.users():
        group = []
        for item in split.train[user]:
            if item not in table:
                if item not in cf_model.item_index or item not in semantic_map:
                    continue
                table[item] = len(e_rows)
                e_rows.append(row(item))
                q_rows.append(semantic_map[item])
            group.append(table[item])
        trip = []
        if user in reps:
            owned = set(split.full_sequence(user))
            eligible = [item for item in cf_model.items if item not in owned]
            for _ in range(negatives_per_user):
                if not eligible:
                    break
                negative = eligible[int(rng.integers(len(eligible)))]
                trip.append((reps[user], row(split.validation[user]), row(negative)))
        if group or trip:
            users.append(user)
            pairs.append(group)
            triples.append(trip)
    return users, list(table), e_rows, q_rows, pairs, triples


def oracle_full_width_loss_and_gradients(net, batch):
    """Loss and gradients with the semantic encoder over all columns of q."""
    p = net.params
    e, q, w = batch.e, batch.q, batch.w
    wcol = w[:, None]
    u = e @ p["enc_c.w"].T + p["enc_c.b"]
    v = q @ p["enc_s.w"].T + p["enc_s.b"]
    diff = u - v
    r_c = u @ p["dec_c.w"].T + p["dec_c.b"] - e
    r_s = v @ p["dec_s.w"].T + p["dec_s.b"] - q
    loss = float(np.sum(w * np.sum(diff * diff, axis=1)))
    loss += net.alpha * float(np.sum(w * np.sum(r_c * r_c, axis=1)))
    loss += net.beta * float(np.sum(w * np.sum(r_s * r_s, axis=1)))

    wd = 2.0 * wcol * diff
    wr = 2.0 * net.alpha * wcol * r_c
    wt = 2.0 * net.beta * wcol * r_s
    d_u = wd + wr @ p["dec_c.w"]
    d_v = wt @ p["dec_s.w"] - wd
    grads = {
        "enc_c.w": d_u.T @ e,
        "enc_c.b": d_u.sum(axis=0),
        "enc_s.w": d_v.T @ q,
        "enc_s.b": d_v.sum(axis=0),
        "dec_c.w": wr.T @ u,
        "dec_c.b": wr.sum(axis=0),
        "dec_s.w": wt.T @ v,
        "dec_s.b": wt.sum(axis=0),
    }

    x = batch.x
    for e_in, positive in ((batch.pos, True), (batch.neg, False)):
        u_in = e_in @ p["enc_c.w"].T + p["enc_c.b"]
        sig = expit(np.sum(x * (u_in @ p["dec_c.w"].T + p["dec_c.b"]), axis=1))
        prob = sig if positive else 1.0 - sig
        loss -= float(np.sum(np.log(np.clip(prob, _ALIGN_CLAMP, 1.0 - _ALIGN_CLAMP))))
        active = (prob > _ALIGN_CLAMP) & (prob < 1.0 - _ALIGN_CLAMP)
        ds = (sig - 1.0 if positive else sig) * active
        d_recon = ds[:, None] * x
        grads["dec_c.w"] += d_recon.T @ u_in
        grads["dec_c.b"] += d_recon.sum(axis=0)
        d_in = d_recon @ p["dec_c.w"]
        grads["enc_c.w"] += d_in.T @ e_in
        grads["enc_c.b"] += d_in.sum(axis=0)

    return loss, grads


def oracle_full_width_training(net, dataset, epochs, batch_size, learning_rate, rng, optimizer):
    """The alignment training loop, stepping every parameter at full width
    after setting the semantic decoder's rows of all-zero columns of q to 0."""
    from fusionrec.optim import make_optimizer

    dead = ~np.any(dataset.q != 0.0, axis=0)
    net.params["dec_s.w"][dead] = 0.0
    net.params["dec_s.b"][dead] = 0.0
    opt = make_optimizer(optimizer, learning_rate)
    log = []
    order = np.arange(len(dataset))
    for _ in range(epochs):
        perm = rng.permutation(order)
        batch_losses = []
        for start in range(0, len(perm), batch_size):
            loss, grads = oracle_full_width_loss_and_gradients(
                net, dataset.batch(perm[start : start + batch_size])
            )
            opt.step(net.params, grads)
            batch_losses.append(loss)
        log.append(float(np.mean(batch_losses)) if batch_losses else 0.0)
    net.training_log = log
    return net


def _oracle_mlp_forward(params: dict, prefix: str, x: np.ndarray):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    pre = x @ params[f"{prefix}.w1"].T + params[f"{prefix}.b1"]
    act = np.maximum(pre, 0.0)
    out = act @ params[f"{prefix}.w2"].T + params[f"{prefix}.b2"]
    return out, (x, pre, act)


def _oracle_mlp_backward(params: dict, prefix: str, cache, d_out: np.ndarray, grads: dict) -> None:
    x, pre, act = cache
    d_out = np.atleast_2d(d_out)
    grads[f"{prefix}.w2"] += d_out.T @ act
    grads[f"{prefix}.b2"] += d_out.sum(axis=0)
    d_act = d_out @ params[f"{prefix}.w2"]
    d_pre = d_act * (pre > 0)
    grads[f"{prefix}.w1"] += d_pre.T @ x
    grads[f"{prefix}.b1"] += d_pre.sum(axis=0)


def _oracle_nll_and_context_grad(mean_seg: np.ndarray, target_idx: list[int], head):
    """Negative mean log-likelihood plus gradient w.r.t. the segment mean."""
    prefix = np.zeros((len(target_idx), head.token_emb.shape[1]))
    for t in range(1, len(target_idx)):
        prefix[t] = head.token_emb[target_idx[:t]].mean(axis=0)
    contexts = mean_seg[None, :] + prefix
    logits = contexts @ head.w_out.T + head.b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(target_idx))
    log_probs = shifted[rows, target_idx] - log_z
    loss = float(-log_probs.mean())
    probs = np.exp(shifted - log_z[:, None])
    d_logits = probs
    d_logits[rows, target_idx] -= 1.0
    d_logits /= len(target_idx)
    d_context = d_logits @ head.w_out
    return loss, d_context.sum(axis=0)


def _oracle_text_cache(example, head):
    """Sum and count of the text-segment vectors (instruction, titles, query)."""
    from fusionrec.projection import PROMPT_INSTRUCTION, PROMPT_QUERY

    total = np.zeros(head.w_out.shape[1])
    texts = [PROMPT_INSTRUCTION] + [title for _, title, _ in example.slate] + [PROMPT_QUERY]
    for text in texts:
        known = [head.token_index[t] for t in text.lower().split() if t in head.token_index]
        if known:
            total += head.token_emb[known].mean(axis=0)
    return total, len(texts)


def _oracle_example_loss_and_grads(stack, example, head, grads, text_cache):
    """Forward + backward for one example; accumulates parameter gradients."""
    params = stack.params
    o_x, cache_x = _oracle_mlp_forward(params, "fx", example.x_user)
    z_mat = np.array([np.asarray(z, dtype=np.float64) for _, _, z in example.slate])
    o_z, cache_z = _oracle_mlp_forward(params, "fz", z_mat)
    o_r = cache_r = None
    if example.r_vec is not None:
        o_r, cache_r = _oracle_mlp_forward(params, "fr", example.r_vec)

    text_sum, n_text = text_cache
    n_seg = n_text + 1 + len(example.slate) + (1 if o_r is not None else 0)
    total = text_sum + o_x[0] + o_z.sum(axis=0)
    if o_r is not None:
        total = total + o_r[0]
    mean_seg = total / n_seg

    target_idx = [head.token_index[tok] for tok in example.target_tokens]
    loss, d_mean = _oracle_nll_and_context_grad(mean_seg, target_idx, head)
    d_each = d_mean / n_seg
    _oracle_mlp_backward(params, "fx", cache_x, d_each[None, :], grads)
    _oracle_mlp_backward(params, "fz", cache_z, np.tile(d_each, (len(example.slate), 1)), grads)
    if o_r is not None:
        _oracle_mlp_backward(params, "fr", cache_r, d_each[None, :], grads)
    return loss


def oracle_projection_training(stack, dataset, epochs, batch_size, learning_rate, head, rng,
                               optimizer):
    """The projection training loop one example at a time: a forward and a
    backward pass per example, gradients summed over the batch and scaled."""
    from fusionrec.optim import make_optimizer

    opt = make_optimizer(optimizer, learning_rate)
    caches = [_oracle_text_cache(ex, head) for ex in dataset]
    order = np.arange(len(dataset))
    log: list[float] = []
    for epoch in range(epochs):
        perm = rng.permutation(order)
        epoch_loss = 0.0
        for start in range(0, len(perm), batch_size):
            chosen = perm[start : start + batch_size]
            grads = {name: np.zeros_like(arr) for name, arr in stack.params.items()}
            batch_loss = 0.0
            for i in chosen:
                batch_loss += _oracle_example_loss_and_grads(
                    stack, dataset[i], head, grads, caches[i]
                )
            scale = 1.0 / len(chosen)
            for name in grads:
                grads[name] *= scale
            batch_loss *= scale
            opt.step(stack.params, grads)
            epoch_loss += batch_loss * len(chosen)
        log.append(epoch_loss / len(dataset))
    stack.training_log.extend(log)
    return stack


# --- finite-difference gradient checks --------------------------------------
#
# Shared by the backbone, the alignment network and the projection stack:
# each exposes a deterministic loss over a fixed batch plus analytic
# gradients, and the checker perturbs every scalar parameter in turn.


def max_relative_gradient_error(
    loss_fn,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    h: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn`` must be a pure function of the (mutated in place) ``params``.
    Relative error uses max(|analytic|, |numeric|, 1e-5) as the denominator:
    the floor keeps cancellation noise in the central difference (about
    1e-11 times the loss magnitude) from registering as error on entries
    whose true gradient is zero. Each entry is perturbed through its own
    index, so a parameter in any memory layout (a Fortran-ordered or strided
    view) is perturbed in place.
    """
    worst = 0.0
    for name in sorted(grads):
        param = params[name]
        grad = grads[name]
        for idx in np.ndindex(param.shape):
            original = param[idx]
            param[idx] = original + h
            plus = loss_fn()
            param[idx] = original - h
            minus = loss_fn()
            param[idx] = original
            numeric = (plus - minus) / (2.0 * h)
            analytic = grad[idx]
            denom = max(abs(analytic), abs(numeric), 1e-5)
            err = abs(analytic - numeric) / denom
            if err > worst:
                worst = err
    return worst


def gradient_check(net, batch, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradients of
    total_loss_and_gradients and central differences of its loss."""
    from fusionrec.align import total_loss_and_gradients

    if not len(batch.w) and not len(batch.x):
        return 0.0
    _, grads = total_loss_and_gradients(net, batch)
    return max_relative_gradient_error(
        lambda: total_loss_and_gradients(net, batch)[0], net.params, grads, h=h
    )


def gradient_check_projection(stack, example, head, h: float = 1e-5) -> float:
    """Finite-difference verification of the surrogate-loss gradients."""
    from fusionrec.projection import surrogate_loss_and_gradients

    _, grads = surrogate_loss_and_gradients(stack, example, head)

    def loss_fn():
        return surrogate_loss_and_gradients(stack, example, head)[0]

    return max_relative_gradient_error(loss_fn, stack.params, grads, h=h)


# --- fixtures ----------------------------------------------------------------


def dump_cot_fixture(path, entries) -> None:
    """Write (user, item, label, text) tuples in the format load_cot_fixture
    reads, escaping backslashes, tabs and newlines."""
    with open(path, "w", encoding="utf-8") as fh:
        for user, item, label, text in entries:
            escaped = text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
            fh.write(f"{user}\t{item}\t{int(label)}\t{escaped}\n")


@dataclass
class LinearAlignmentSuite:
    """Alignment training set whose modalities are exactly linearly related."""

    dataset: object
    collab: dict
    semantic: dict
    matrix: np.ndarray


def make_linear_alignment_suite(
    n_users: int = 32,
    n_items: int = 40,
    collab_dim: int = 50,
    sem_dim: int = 768,
    pairs_per_user: int = 4,
    scale: float = 4.0,
    seed: int = 0,
) -> LinearAlignmentSuite:
    """Item pairs with semantic = A @ collaborative, so a zero-alignment
    configuration exists and gradient descent has a clean target."""
    from fusionrec.align import stack_alignment_dataset

    rng = np.random.default_rng(seed)
    matrix = rng.normal(0.0, 1.0 / np.sqrt(collab_dim), size=(sem_dim, collab_dim))
    item_ids = [f"i{j:03d}" for j in range(n_items)]
    collab = {item: rng.normal(0.0, scale, size=collab_dim) for item in item_ids}
    semantic = {item: matrix @ collab[item] for item in item_ids}
    pairs = [
        rng.choice(n_items, size=pairs_per_user, replace=False).tolist() for _ in range(n_users)
    ]
    dataset = stack_alignment_dataset(
        users=[f"u{u:03d}" for u in range(n_users)],
        items=item_ids,
        e=np.array([collab[item] for item in item_ids]),
        q=np.array([semantic[item] for item in item_ids]),
        pairs=pairs,
        triples=[[] for _ in range(n_users)],
    )
    return LinearAlignmentSuite(dataset=dataset, collab=collab, semantic=semantic, matrix=matrix)
