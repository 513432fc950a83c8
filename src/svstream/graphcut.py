"""Potts-model multi-label energy minimization by alpha-expansion.

Energy over a frame labeling f:

    E(f) = sum_p D_p(f_p) + lambda * sum_{(p,q) 4-adjacent} [f_p != f_q]

Each expansion move is a binary min-cut: every pixel either keeps its label
or switches to the candidate label alpha.  Cuts run on integer capacities
(costs scaled by 256); a move is accepted only when the exact float energy
strictly decreases, so rounding can never push the energy up.  lambda = 0
short-circuits to the per-pixel argmin (ties to the lowest label id).

A pixel keeps its label exactly when the source reaches it in the residual
graph of a maximum flow.  That set, the smallest minimum-cut source set, is
the same for every maximum flow (Picard & Queyranne 1980), so tied integer
cuts always resolve the same way.  The flow runs on the reversed graph, from
the sink to the source: an expansion has far fewer sink arcs than source
arcs, and Dinic's level graphs grow from the sparse side in fewer steps.
Turned around, that flow is a maximum flow of the original graph, so a search
from the source over the transpose of its residual finds the same set.  (A
search from the sink of the reversed residual would find the other extreme
minimum cut, which differs wherever cuts tie.)
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .imageops import round_half_up

_SCALE = 256.0
_CAP_MAX = 1 << 28


def labeling_energy(labels: np.ndarray, data_costs: np.ndarray, lam: float) -> float:
    """Exact energy of a labeling under (L, H, W) data costs."""
    taken = np.take_along_axis(data_costs, labels[None], axis=0)[0]
    cuts = (np.count_nonzero(labels[:, 1:] != labels[:, :-1])
            + np.count_nonzero(labels[1:, :] != labels[:-1, :]))
    return float(taken.sum()) + lam * cuts


def _capacity(x: np.ndarray, low: int) -> np.ndarray:
    """Cut capacity of an energy term: scaled, rounded half up and clipped,
    as int32, the type scipy's maximum_flow computes in."""
    return np.clip(round_half_up(x * _SCALE), low, _CAP_MAX).astype(np.int32)


def _expand(labels: np.ndarray, alpha: int, data_costs: np.ndarray, lam: float) -> np.ndarray:
    """Best labeling reachable by switching any pixel subset to alpha."""
    h, w = labels.shape
    n = h * w
    # Each 4-adjacent pair (p, q), q right of or below p, has
    # E(xp, xq) = e00 + (e11-e01) xp + (e01-e00) xq + (e01+e10-e00-e11) xp (1-xq)
    # with e11 = 0, e01 = e_alpha[p] and e10 = e_alpha[q].  adj1 adds a
    # pixel's shares in a fixed order (as p of its right, then its lower pair;
    # as q of its left, then its upper pair), the order of the reference
    # expansion in tests/oracles.py, so every capacity matches it bit for bit.
    e_alpha = lam * (labels != alpha)
    e00_h = lam * (labels[:, :-1] != labels[:, 1:])
    e00_v = lam * (labels[:-1] != labels[1:])
    adj1 = np.zeros((h, w))
    adj1[:, :-1] -= e_alpha[:, :-1]
    adj1[:-1] -= e_alpha[:-1]
    adj1[:, 1:] += e_alpha[:, :-1] - e00_h
    adj1[1:] += e_alpha[:-1] - e00_v
    c0 = np.take_along_axis(data_costs, labels[None], axis=0)[0].astype(np.float64)
    d = (data_costs[alpha].astype(np.float64) + adj1) - c0
    di = _capacity(d, -_CAP_MAX).ravel()
    right = np.zeros((h, w), dtype=np.int32)
    right[:, :-1] = _capacity(e_alpha[:, :-1] + e_alpha[:, 1:] - e00_h, 0)
    down = np.zeros((h, w), dtype=np.int32)
    down[:-1] = _capacity(e_alpha[:-1] + e_alpha[1:] - e00_v, 0)

    # The cut graph has src -> p (di > 0), p -> snk (-di, di < 0) and q -> p
    # (the pair weight).  Its reverse is built row by row in CSR order: pixel
    # p has p -> p+1 (right), p -> p+w (down) and p -> src, and snk has
    # snk -> p.
    src, snk = n, n + 1
    pix = np.arange(n)
    cols = np.stack([pix + 1, pix + w, np.full(n, src)], axis=1)
    caps = np.stack([right.ravel(), down.ravel(), di], axis=1)
    arc = caps > 0
    to_pix = np.flatnonzero(di < 0)
    row_len = np.zeros(n + 2, dtype=np.int64)
    row_len[:n] = arc.sum(axis=1)
    row_len[snk] = len(to_pix)
    rgraph = csr_matrix((np.concatenate([caps[arc], -di[to_pix]]),
                         np.concatenate([cols[arc], to_pix]),
                         np.concatenate([[0], np.cumsum(row_len)])),
                        shape=(n + 2, n + 2))
    result = maximum_flow(rgraph, snk, src)
    residual = rgraph - result.flow
    residual.data = np.where(residual.data > 0, residual.data, 0)
    residual.eliminate_zeros()
    reachable = breadth_first_order(residual.T, src, directed=True,
                                    return_predecessors=False)
    take = np.ones(n + 2, dtype=bool)
    take[reachable] = False
    out = labels.ravel().copy()
    out[take[:n]] = alpha
    return out.reshape(h, w)


def alpha_expansion(data_costs: np.ndarray, lam: float,
                    init_labels: np.ndarray) -> np.ndarray:
    """Minimize the Potts energy from init_labels; never increases energy.

    data_costs has shape (L, H, W) and must be finite; init_labels has shape
    (H, W) and values in [0, L).  Any other input, or a negative, NaN or
    infinite lambda, raises ValueError before the first cut.  Candidate
    labels are tried in ascending order, cyclically, until every label in a
    row has been rejected: a retry on unchanged labels would give the same
    candidate again.
    """
    if not 0 <= lam < np.inf:
        raise ValueError("lambda must be >= 0 and finite")
    if data_costs.ndim != 3 or data_costs.shape[1:] != init_labels.shape:
        raise ValueError(f"data costs of shape {data_costs.shape} do not fit "
                         f"init labels of shape {init_labels.shape}")
    num_labels = data_costs.shape[0]
    if not np.isfinite(data_costs).all():
        raise ValueError("data costs must be finite")
    if not ((init_labels >= 0) & (init_labels < num_labels)).all():
        raise ValueError(f"init labels must lie in [0, {num_labels})")
    if lam == 0:
        return np.argmin(data_costs, axis=0).astype(init_labels.dtype)
    labels = init_labels.copy()
    energy = labeling_energy(labels, data_costs, lam)
    alpha = rejected = 0
    while rejected < num_labels:
        candidate = _expand(labels, alpha, data_costs, lam)
        cand_energy = labeling_energy(candidate, data_costs, lam)
        if cand_energy < energy - 1e-9:
            labels = candidate
            energy = cand_energy
            rejected = 0
        else:
            rejected += 1
        alpha = (alpha + 1) % num_labels
    return labels
