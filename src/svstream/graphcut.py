"""Potts-model multi-label energy minimization by alpha-expansion.

Energy over a frame labeling f:

    E(f) = sum_p D_p(f_p) + lambda * sum_{(p,q) 4-adjacent} [f_p != f_q]

Each expansion move is a binary min-cut: every pixel either keeps its label
or switches to the candidate label alpha.  Cuts run on integer capacities
(costs scaled by 256); a move is accepted only when the exact float energy
strictly decreases, so rounding can never push the energy up.  lambda = 0
short-circuits to the per-pixel argmin (ties to the lowest label id).
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .imageops import grid_pairs4, round_half_up

_SCALE = 256.0
_CAP_MAX = 1 << 28


def labeling_energy(labels: np.ndarray, data_costs: np.ndarray, lam: float) -> float:
    """Exact energy of a labeling under (L, H, W) data costs."""
    taken = np.take_along_axis(data_costs, labels[None], axis=0)[0]
    cuts = (np.count_nonzero(labels[:, 1:] != labels[:, :-1])
            + np.count_nonzero(labels[1:, :] != labels[:-1, :]))
    return float(taken.sum()) + lam * cuts


def _expand(labels: np.ndarray, alpha: int, data_costs: np.ndarray, lam: float) -> np.ndarray:
    """Best labeling reachable by switching any pixel subset to alpha."""
    h, w = labels.shape
    n = h * w
    flat = labels.ravel()
    c0 = np.take_along_axis(data_costs, labels[None], axis=0)[0].ravel().astype(np.float64)
    c1 = data_costs[alpha].ravel().astype(np.float64)

    p_idx, q_idx = grid_pairs4(h, w)
    fp = flat[p_idx]
    fq = flat[q_idx]
    e00 = lam * (fp != fq)
    e01 = lam * (fp != alpha)
    e10 = lam * (fq != alpha)
    # E(xp, xq) = e00 + (e11-e01) xp + (e01-e00) xq + (e01+e10-e00-e11) xp (1-xq)
    pair_w = e01 + e10 - e00
    adj1 = np.zeros(n)
    np.add.at(adj1, p_idx, -e01)
    np.add.at(adj1, q_idx, e01 - e00)
    d = (c1 + adj1) - c0

    di = np.clip(round_half_up(d * _SCALE), -_CAP_MAX, _CAP_MAX).astype(np.int64)
    wi = np.clip(round_half_up(pair_w * _SCALE), 0, _CAP_MAX).astype(np.int64)

    src, snk = n, n + 1
    rows, cols, caps = [], [], []
    pos = di > 0
    rows.append(np.full(int(pos.sum()), src, dtype=np.int64))
    cols.append(np.flatnonzero(pos).astype(np.int64))
    caps.append(di[pos])
    neg = di < 0
    rows.append(np.flatnonzero(neg).astype(np.int64))
    cols.append(np.full(int(neg.sum()), snk, dtype=np.int64))
    caps.append(-di[neg])
    wpos = wi > 0
    rows.append(q_idx[wpos])
    cols.append(p_idx[wpos])
    caps.append(wi[wpos])

    graph = csr_matrix((np.concatenate(caps),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n + 2, n + 2), dtype=np.int64)
    result = maximum_flow(graph, src, snk)
    residual = graph - result.flow
    residual.data = np.where(residual.data > 0, residual.data, 0)
    residual.eliminate_zeros()
    reachable = breadth_first_order(residual, src, directed=True,
                                    return_predecessors=False)
    take = np.ones(n + 2, dtype=bool)
    take[reachable] = False
    out = flat.copy()
    out[take[:n]] = alpha
    return out.reshape(h, w)


def alpha_expansion(data_costs: np.ndarray, lam: float,
                    init_labels: np.ndarray) -> np.ndarray:
    """Minimize the Potts energy from init_labels; never increases energy.

    data_costs has shape (L, H, W); labels take values in [0, L).  Candidate
    labels are visited in ascending order, sweeping until no move is accepted.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    num_labels = data_costs.shape[0]
    if lam == 0:
        return np.argmin(data_costs, axis=0).astype(init_labels.dtype)
    labels = init_labels.copy()
    energy = labeling_energy(labels, data_costs, lam)
    improved = True
    while improved:
        improved = False
        for alpha in range(num_labels):
            candidate = _expand(labels, alpha, data_costs, lam)
            cand_energy = labeling_energy(candidate, data_costs, lam)
            if cand_energy < energy - 1e-9:
                labels = candidate
                energy = cand_energy
                improved = True
    return labels
