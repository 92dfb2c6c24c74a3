"""Straight-line reference implementations used only by the tests.

Everything here is written from the model equations directly, in plain
Python over lists and math functions: explicit index loops, naive softmax,
no numpy and no code shared with the package.  Tests compare package
outputs against these functions entry by entry.

Convention: a "matrix" is a list of rows; sequences are lists of column
vectors (one per position), matching the package's column-per-token
layout at the call boundary via `cols()`.
"""

import math


def cols(matrix) -> list[list[float]]:
    """Columns of a numpy-style matrix as plain lists."""
    rows = [list(map(float, row)) for row in matrix]
    return [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]


def rows(matrix) -> list[list[float]]:
    return [list(map(float, row)) for row in matrix]


def vec(v) -> list[float]:
    return list(map(float, v))


def mat_vec(m, v):
    return [sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m))]


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_mul(a, b):
    return [x * y for x, y in zip(a, b)]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def naive_softmax(v):
    exps = [math.exp(x) for x in v]
    total = sum(exps)
    return [e / total for e in exps]


def ce_loss(logits, target):
    """-log softmax(logits)[target] in log space: the log of the exactly
    summed exponentials of the shifted logits, minus the shifted target
    logit.  A -inf target logit gives inf."""
    peak = max(logits)
    if logits[target] == -math.inf:
        return math.inf
    return math.log(math.fsum(math.exp(z - peak) for z in logits)) - (logits[target] - peak)


def sigmoid_scalar(x):
    return 1.0 / (1.0 + math.exp(-x))


def tanh_vec(v):
    return [math.tanh(x) for x in v]


def sigmoid_vec(v):
    return [sigmoid_scalar(x) for x in v]


def gelu_tanh_scalar(x):
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def normal_cdf_series(x):
    """Standard normal CDF via the Maclaurin-type series
    Phi(x) = 1/2 + pdf(x) * sum_k x^(2k+1) / (1*3*...*(2k+1)), summed until
    a term no longer changes the total: about x^2 terms for a large |x|,
    where the terms grow until k nears x^2 / 2."""
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    total, term, k = 0.0, x, 0
    while total + term != total:
        total += term
        k += 1
        term *= x * x / (2 * k + 1)
    return 0.5 + pdf * total


def layer_norm_vec(x, gain, bias, eps=1e-5):
    d = len(x)
    mu = sum(x) / d
    var = sum((xi - mu) ** 2 for xi in x) / d
    return [gain[i] * (x[i] - mu) / math.sqrt(var + eps) + bias[i] for i in range(d)]


# ---------------------------------------------------------------------------
# attention and transformer blocks
# ---------------------------------------------------------------------------

def head_attention(x_cols, w_q, w_k, w_v, b_q, b_k, b_v, mask):
    """One attention head by the per-query procedure: project, dot, mask,
    normalize, weighted value sum.  Returns one output row per position."""
    d_k = len(w_q[0])
    queries, keys, values = [], [], []
    for x in x_cols:
        q = [dot(x, [w_q[r][c] for r in range(len(x))]) for c in range(d_k)]
        k = [dot(x, [w_k[r][c] for r in range(len(x))]) for c in range(d_k)]
        v = [dot(x, [w_v[r][c] for r in range(len(x))]) for c in range(len(w_v[0]))]
        if b_q is not None:
            q = vec_add(q, b_q)
        if b_k is not None:
            k = vec_add(k, b_k)
        if b_v is not None:
            v = vec_add(v, b_v)
        queries.append(q)
        keys.append(k)
        values.append(v)
    out_rows = []
    for i in range(len(x_cols)):
        scores = [mask[i][j] + dot(queries[i], keys[j]) / math.sqrt(d_k)
                  for j in range(len(x_cols))]
        weights = naive_softmax(scores)
        summed = [0.0] * len(values[0])
        for j, w in enumerate(weights):
            for c in range(len(summed)):
                summed[c] += w * values[j][c]
        out_rows.append(summed)
    return out_rows


def multi_head(x_cols, heads, w_o, b_o, mask):
    """Concatenate per-head rows, project with w_o, transpose to columns."""
    per_head = [head_attention(x_cols, *h, mask) for h in heads]
    concat = [sum((ph[i] for ph in per_head), []) for i in range(len(x_cols))]
    projected = [[dot(row, [w_o[r][c] for r in range(len(row))])
                  for c in range(len(w_o[0]))] for row in concat]
    if b_o is not None:
        projected = [vec_add(row, b_o) for row in projected]
    return projected  # one d_e row per position; transpose of the package layout


def ffn_col(c, w1, b1, w2, b2, gelu_mode):
    hidden = vec_add(mat_vec(w1, c), b1)
    if gelu_mode == "tanh":
        hidden = [gelu_tanh_scalar(h) for h in hidden]
    else:
        hidden = [h * normal_cdf_series(h) for h in hidden]
    return vec_add(mat_vec(w2, hidden), b2)


def attention_head(mha, m):
    """Head m's (w_q, w_k, w_v, b_q, b_k, b_v) as lists, read from the stacked layer."""
    return (rows(mha.w_q[m]), rows(mha.w_k[m]), rows(mha.w_v[m]),
            None if mha.b_q is None else vec(mha.b_q[m]),
            None if mha.b_k is None else vec(mha.b_k[m]),
            None if mha.b_v is None else vec(mha.b_v[m]))


def block_forward(h_cols, block, mask, variant, gelu_mode):
    heads = [attention_head(block.mha, m) for m in range(len(block.mha.w_q))]
    w_o = rows(block.mha.w_o)
    b_o = None if block.mha.b_o is None else vec(block.mha.b_o)
    ln1g, ln1b = vec(block.ln1_gain), vec(block.ln1_bias)
    ln2g, ln2b = vec(block.ln2_gain), vec(block.ln2_bias)
    w1, b1 = rows(block.ffn_w1), vec(block.ffn_b1)
    w2, b2 = rows(block.ffn_w2), vec(block.ffn_b2)
    if variant == "post":
        a_rows = multi_head(h_cols, heads, w_o, b_o, mask)
        c_cols = [layer_norm_vec(vec_add(h, a), ln1g, ln1b)
                  for h, a in zip(h_cols, a_rows)]
        d_cols = [ffn_col(c, w1, b1, w2, b2, gelu_mode) for c in c_cols]
        return [layer_norm_vec(vec_add(c, d), ln2g, ln2b)
                for c, d in zip(c_cols, d_cols)]
    normed = [layer_norm_vec(h, ln1g, ln1b) for h in h_cols]
    a_rows = multi_head(normed, heads, w_o, b_o, mask)
    c_cols = [vec_add(h, a) for h, a in zip(h_cols, a_rows)]
    d_cols = [ffn_col(layer_norm_vec(c, ln2g, ln2b), w1, b1, w2, b2, gelu_mode)
              for c in c_cols]
    return [vec_add(c, d) for c, d in zip(c_cols, d_cols)]


def ar_mask(n):
    return [[0.0 if j <= i else -math.inf for j in range(n)] for i in range(n)]


def ae_mask(n):
    return [[0.0] * n for _ in range(n)]


def gpt2_logits(ids, w):
    """Full decoder LM: embeddings + positions, blocks, tied logit head."""
    e_cols = cols(w.embedding)
    pos_cols = cols(w.positions)
    gain, bias = vec(w.emb_norm_gain), vec(w.emb_norm_bias)
    h_cols = [vec_add(e_cols[t], pos_cols[i]) for i, t in enumerate(ids)]
    if w.norm_variant == "post":
        h_cols = [layer_norm_vec(h, gain, bias) for h in h_cols]
    mask = ar_mask(len(ids))
    for block in w.blocks:
        h_cols = block_forward(h_cols, block, mask, w.norm_variant, w.gelu_mode)
    if w.norm_variant == "pre":
        h_cols = [layer_norm_vec(h, gain, bias) for h in h_cols]
    return [[dot(e, h) for e in e_cols] for h in h_cols]


def gpt2_forward(ids, w):
    """Next-token distributions of the decoder LM, one per position."""
    return [naive_softmax(z) for z in gpt2_logits(ids, w)]


def bert_hidden(ids, segments, w):
    e_cols = cols(w.embedding)
    pos_cols = cols(w.positions)
    seg = {"A": vec(w.seg_a), "B": vec(w.seg_b)}
    gain, bias = vec(w.emb_norm_gain), vec(w.emb_norm_bias)
    h_cols = [layer_norm_vec(vec_add(vec_add(e_cols[t], pos_cols[i]), seg[s]), gain, bias)
              for i, (t, s) in enumerate(zip(ids, segments))]
    mask = ae_mask(len(ids))
    for block in w.blocks:
        h_cols = block_forward(h_cols, block, mask, w.norm_variant, w.gelu_mode)
    return h_cols


def bert_mlm(h_cols, w):
    e_cols = cols(w.embedding)
    w_m, b_m = rows(w.mlm_w), vec(w.mlm_b)
    gain, bias = vec(w.mlm_norm_gain), vec(w.mlm_norm_bias)
    out_b = vec(w.out_bias)
    dists = []
    for h in h_cols:
        t = vec_add(mat_vec(w_m, h), b_m)
        if w.gelu_mode == "tanh":
            t = [gelu_tanh_scalar(x) for x in t]
        else:
            t = [x * normal_cdf_series(x) for x in t]
        t = layer_norm_vec(t, gain, bias)
        dists.append(naive_softmax([dot(e, t) + out_b[j] for j, e in enumerate(e_cols)]))
    return dists


def bert_nsp(h_cols, w):
    pooled = tanh_vec(vec_add(mat_vec(rows(w.pool_w), h_cols[0]), vec(w.pool_b)))
    return naive_softmax(vec_add(mat_vec(rows(w.nsp_w), pooled), vec(w.nsp_b)))


# ---------------------------------------------------------------------------
# recurrent cells
# ---------------------------------------------------------------------------

def rnn_cell(h_prev, x_in, w, u, b, activation="tanh"):
    pre = vec_add(vec_add(mat_vec(u, h_prev), mat_vec(w, x_in)), b)
    if activation == "tanh":
        return tanh_vec(pre)
    if activation == "sigmoid":
        return sigmoid_vec(pre)
    return pre


def lstm_gate(lw, gate):
    """The (U, W, b) of one gate, "q", "p", "r" or "s": its block of rows in
    the layer's stacked arrays, which hold the gates in that order."""
    d, k = lw.u.shape[1], "qprs".index(gate)
    block = slice(k * d, (k + 1) * d)
    return lw.u[block], lw.w[block], lw.b[block]


def lstm_cell(h_prev, c_prev, x_in, lw):
    def branch(u, w, b):
        return vec_add(vec_add(mat_vec(rows(u), h_prev), mat_vec(rows(w), x_in)), vec(b))

    q = tanh_vec(branch(*lstm_gate(lw, "q")))
    p = sigmoid_vec(branch(*lstm_gate(lw, "p")))
    r = sigmoid_vec(branch(*lstm_gate(lw, "r")))
    c = vec_add(vec_mul(q, r), vec_mul(c_prev, p))
    s = sigmoid_vec(branch(*lstm_gate(lw, "s")))
    h = vec_mul(s, tanh_vec(c))
    return h, c


def unroll(x_cols, layers, kind):
    """Nested (time, layer) loop over the recurrent cells; top-layer columns."""
    d = len(x_cols[0])
    h_state = [[0.0] * d for _ in layers]
    c_state = [[0.0] * d for _ in layers]
    outputs = []
    for x in x_cols:
        value = x
        for l, layer in enumerate(layers):
            if kind == "rnn":
                h_state[l] = rnn_cell(h_state[l], value, rows(layer.w),
                                      rows(layer.u), vec(layer.b), layer.activation)
            else:
                h_state[l], c_state[l] = lstm_cell(h_state[l], c_state[l], value, layer)
            value = h_state[l]
        outputs.append(value)
    return outputs


def recurrent_logits(ids, w, kind):
    """Tied logits of the Elman ("rnn") or LSTM LM at every position."""
    e_cols = cols(w.embedding)
    return [[dot(e, h) for e in e_cols] for h in unroll([e_cols[t] for t in ids], w.layers, kind)]


# ---------------------------------------------------------------------------
# feedforward LM
# ---------------------------------------------------------------------------

ACTIVATIONS = {"sigmoid": sigmoid_vec, "tanh": tanh_vec, "identity": list}


def ffnn_logits(window, w):
    """Logits after one window: its embedding columns concatenated in token
    order, each dense layer's activation, then the untied output matrix."""
    e_cols = cols(w.embedding)
    x = [value for t in window for value in e_cols[t]]
    for layer in w.layers:
        x = ACTIVATIONS[layer.activation](vec_add(mat_vec(rows(layer.w), x), vec(layer.b)))
    return mat_vec(rows(w.output), x)


# ---------------------------------------------------------------------------
# full-recompute decoding and per-context scoring
# ---------------------------------------------------------------------------

def greedy_decode(prompt, dists, steps):
    """Greedy continuation that re-runs the model on the whole sequence for
    every new token.  `dists(ids)` gives the next-token distribution, or
    the logits, at every position of ids (indexable by position: a list of
    vectors, or the transpose of a |V| x len matrix).  Ties break toward
    the lowest id.  This is the specification of incremental gpt2 decoding and of
    recurrent generation with a carried state."""
    ids = list(prompt)
    for _ in range(steps):
        last = [float(p) for p in dists(ids)[-1]]
        ids.append(max(range(len(last)), key=last.__getitem__))
    return ids


def corpus_nll(corpus, predict_next, window, min_context=1):
    """Sliding-window NLL with one model call per scored position: position
    i is scored from corpus[max(0, i - window):i]; contexts shorter than
    min_context are skipped.  `predict_next(context)` gives one next-token
    distribution."""
    total = 0.0
    for i in range(1, len(corpus)):
        context = corpus[max(0, i - window):i]
        if len(context) < min_context:
            continue
        p = float(predict_next(context)[corpus[i]])
        total += math.inf if p == 0.0 else -math.log(p)
    return total


def chunk_loss(corpus, max_len, sequence_loss):
    """Mean next-token loss of a corpus scored one chunk at a time: chunks
    of at most max_len tokens start every max_len - 1 tokens, so each
    shares its first token with the last of the one before and every
    transition falls in exactly one.  `sequence_loss(chunk)` gives a
    chunk's summed loss.  This is the specification of the trainer's
    batched corpus loss."""
    chunks = [corpus[s:s + max_len] for s in range(0, len(corpus) - 1, max_len - 1)]
    return sum(sequence_loss(chunk) for chunk in chunks) / sum(len(c) - 1 for c in chunks)
