"""Independent oracles the library is checked against.

Everything here is deliberately written from scratch, without calling into
the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np


def grid_overlap_oracle(a, b, resolution: float = 2e-4) -> dict:
    """Brute-force pixel-grid estimate of the IoU-family metrics.

    Covers the joint enclosing box with square-ish cells no wider than
    ``resolution`` and counts cell centers inside each box; areas are
    ``count * cell_area``. Center-distance terms are plain arithmetic on the
    coordinates. Boxes are flat ``(x1, y1, x2, y2)`` tuples.
    """
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    x_lo, x_hi = min(ax1, bx1), max(ax2, bx2)
    y_lo, y_hi = min(ay1, by1), max(ay2, by2)
    nx = max(int(np.ceil((x_hi - x_lo) / resolution)), 1)
    ny = max(int(np.ceil((y_hi - y_lo) / resolution)), 1)
    dx = (x_hi - x_lo) / nx
    dy = (y_hi - y_lo) / ny
    xs = x_lo + (np.arange(nx) + 0.5) * dx
    ys = y_lo + (np.arange(ny) + 0.5) * dy

    in_ax = (xs >= ax1) & (xs <= ax2)
    in_bx = (xs >= bx1) & (xs <= bx2)
    in_ay = (ys >= ay1) & (ys <= ay2)
    in_by = (ys >= by1) & (ys <= by2)

    cell = dx * dy
    area_a = in_ax.sum() * in_ay.sum() * cell
    area_b = in_bx.sum() * in_by.sum() * cell
    inter = (in_ax & in_bx).sum() * (in_ay & in_by).sum() * cell
    enclosing = nx * ny * cell
    union = area_a + area_b - inter

    iou = inter / union
    giou = iou - (enclosing - union) / enclosing

    ca = (0.5 * (ax1 + ax2), 0.5 * (ay1 + ay2))
    cb = (0.5 * (bx1 + bx2), 0.5 * (by1 + by2))
    center_sq = (ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2
    diag_sq = (x_hi - x_lo) ** 2 + (y_hi - y_lo) ** 2
    diou = iou - center_sq / diag_sq
    return {"iou": iou, "giou": giou, "diou": diou}


def oracle_iou(a, b) -> float:
    """Standalone closed-form IoU on flat boxes (for exhaustive region checks)."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = iw * ih if (iw > 0 and ih > 0) else 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def oracle_diou(a, b) -> float:
    """Standalone closed-form DIoU on flat boxes."""
    cw = max(a[2], b[2]) - min(a[0], b[0])
    ch = max(a[3], b[3]) - min(a[1], b[1])
    ca = (0.5 * (a[0] + a[2]), 0.5 * (a[1] + a[3]))
    cb = (0.5 * (b[0] + b[2]), 0.5 * (b[1] + b[3]))
    rho_sq = (ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2
    return oracle_iou(a, b) - rho_sq / (cw * cw + ch * ch)


def brute_force_regions(anchors, gts, alpha_pos, gamma):
    """Exhaustive per-pair threshold check of main/VLR membership.

    Anchors and gts are lists of flat boxes. Returns (main, vlr) bool arrays.
    """
    n = len(anchors)
    main = np.zeros(n, dtype=bool)
    vlr = np.zeros(n, dtype=bool)
    for i, a in enumerate(anchors):
        for g in gts:
            if oracle_iou(a, g) >= alpha_pos:
                main[i] = True
        for g in gts:
            d = oracle_diou(a, g)
            if gamma * alpha_pos <= d <= alpha_pos:
                vlr[i] = True
        if main[i]:
            vlr[i] = False
    return main, vlr


def central_difference(f, x, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[k] += step
        xm.flat[k] -= step
        flat[k] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def relative_gradient_error(analytic, numeric) -> float:
    """Max elementwise gap, scaled by the gradient magnitude (floored at 1)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
    return float(np.abs(analytic - numeric).max() / scale)


def _oracle_log_softmax(z, tau=1.0):
    """Row-wise tempered log-softmax over the last axis."""
    zt = z / tau
    zt = zt - zt.max(axis=-1, keepdims=True)
    return zt - np.log(np.exp(zt).sum(axis=-1, keepdims=True))


def _oracle_two_hot(y, endpoints):
    """Dense two-hot targets of values ``y`` on a uniform grid, last axis."""
    n = endpoints.size - 1
    delta = (endpoints[-1] - endpoints[0]) / n
    idx = np.minimum(np.floor((y - endpoints[0]) / delta).astype(np.int64), n - 1)
    u2 = np.clip((y - endpoints[idx]) / delta, 0.0, 1.0)
    g = np.zeros(y.shape + (n + 1,))
    np.put_along_axis(g, idx[..., None], (1.0 - u2)[..., None], axis=-1)
    np.put_along_axis(g, idx[..., None] + 1, u2[..., None], axis=-1)
    return g


def _oracle_boxes(points, edges):
    """(K, 4) corner boxes from (K, 2) points and (K, 4) (t, b, l, r) edges."""
    t, b, l, r = edges.T
    px, py = points.T
    return np.stack([px - l, py - t, px + r, py + b], axis=1)


def _oracle_giou_and_grad(s, g):
    """GIoU of (K, 4) box pairs and its gradient w.r.t. the first box's
    corners, written out corner by corner. At a tie the max or min of two
    corners is taken to be the second box's."""
    sx1, sy1, sx2, sy2 = s.T
    gx1, gy1, gx2, gy2 = g.T
    iw = np.minimum(sx2, gx2) - np.maximum(sx1, gx1)
    ih = np.minimum(sy2, gy2) - np.maximum(sy1, gy1)
    overlap = (iw > 0) & (ih > 0)
    inter = np.where(overlap, iw * ih, 0.0)
    sw, sh = sx2 - sx1, sy2 - sy1
    union = sw * sh + (gx2 - gx1) * (gy2 - gy1) - inter
    cw = np.maximum(sx2, gx2) - np.minimum(sx1, gx1)
    ch = np.maximum(sy2, gy2) - np.minimum(sy1, gy1)
    hull = cw * ch
    giou = inter / union - (hull - union) / hull

    d_inter = np.stack([np.where(overlap & (sx1 > gx1), -ih, 0.0),
                        np.where(overlap & (sy1 > gy1), -iw, 0.0),
                        np.where(overlap & (sx2 < gx2), ih, 0.0),
                        np.where(overlap & (sy2 < gy2), iw, 0.0)], axis=1)
    d_area = np.stack([-sh, -sw, sh, sw], axis=1)
    d_hull = np.stack([np.where(sx1 < gx1, -ch, 0.0), np.where(sy1 < gy1, -cw, 0.0),
                       np.where(sx2 > gx2, ch, 0.0), np.where(sy2 > gy2, cw, 0.0)], axis=1)
    d_union = d_area - d_inter
    u, c, i = union[:, None], hull[:, None], inter[:, None]
    grad = (d_inter * u - i * d_union) / u ** 2 + (d_union * c - u * d_hull) / c ** 2
    return giou, grad


def composite_objective_oracle(student, teacher, labels, edge_targets, points, main, vlr,
                               endpoints, weights, tau, tbr_margin, tbr_weight=0.0,
                               edge_dists=None):
    """Reference for the composite scene objective, in the public layout
    with row-wise (last-axis) numpy.

    ``student`` and ``teacher`` are ``(cls (A, C), edges (A, E, m))`` pairs
    (``teacher`` may be None without distillation or TBR), ``main`` and
    ``vlr`` boolean masks, ``weights`` maps ``w_cls .. w_kd_vlr`` to floats.
    The main rows' edge targets are the two-hot encodings of
    ``edge_targets`` unless ``edge_dists`` ``(K, E, m)`` gives them.
    ``tbr_weight`` adds that multiple of teacher-bounded regression to the
    value and gradient. Returns ``(value, grad_cls, grad_edges,
    components)``.
    """
    cls, edges = student
    a, n_classes = cls.shape
    grad_cls = np.zeros_like(cls)
    grad_edges = np.zeros_like(edges)
    comps = dict.fromkeys(("cls", "reg", "dfl", "ld_main", "ld_vlr", "kd_main", "kd_vlr"), 0.0)

    onehot = np.eye(n_classes)[labels]
    log_p = _oracle_log_softmax(cls)
    comps["cls"] = -(onehot * log_p).sum() / a
    grad_cls += weights["w_cls"] * (np.exp(log_p) - onehot) / a

    rows = np.flatnonzero(main)
    k = rows.size
    value_tbr = 0.0
    if k:
        z = edges[rows]
        target = _oracle_two_hot(edge_targets[rows], endpoints) if edge_dists is None \
            else edge_dists
        log_p = _oracle_log_softmax(z)
        p = np.exp(log_p)
        comps["dfl"] = -(target * log_p).sum() / k
        grad_edges[rows] += weights["w_dfl"] * (p - target) / k
        yhat = (p * endpoints).sum(axis=-1)
        boxes_s = _oracle_boxes(points[rows], yhat)
        boxes_g = _oracle_boxes(points[rows], edge_targets[rows])
        giou, d_giou = _oracle_giou_and_grad(boxes_s, boxes_g)
        comps["reg"] = (1.0 - giou).sum() / k
        corner_w = np.full(k, weights["w_reg"])
        if tbr_weight > 0.0:
            q_t = np.exp(_oracle_log_softmax(teacher[1][rows]))
            boxes_t = _oracle_boxes(points[rows], (q_t * endpoints).sum(axis=-1))
            dist_s = np.sqrt(((boxes_s - boxes_g) ** 2).sum(axis=1))
            dist_t = np.sqrt(((boxes_t - boxes_g) ** 2).sum(axis=1))
            active = dist_s + tbr_margin > dist_t
            value_tbr = (1.0 - giou[active]).sum() / k
            corner_w = corner_w + tbr_weight * active
        g_corner = -corner_w[:, None] * d_giou / k
        gx1, gy1, gx2, gy2 = g_corner.T
        g_edge = np.stack([-gy1, gy2, -gx1, gx2], axis=1)  # d/dt, d/db, d/dl, d/dr
        grad_edges[rows] += g_edge[..., None] * p * (endpoints - yhat[..., None])

    for name, mask, head in (("ld_main", main, 1), ("ld_vlr", vlr, 1),
                             ("kd_main", main, 0), ("kd_vlr", vlr, 0)):
        idx = np.flatnonzero(mask)
        if weights["w_" + name] > 0.0 and idx.size:
            log_s = _oracle_log_softmax(student[head][idx], tau)
            log_t = _oracle_log_softmax(teacher[head][idx], tau)
            q = np.exp(log_t)
            comps[name] = (q * (log_t - log_s)).sum() / idx.size
            grad = weights["w_" + name] * (np.exp(log_s) - q) / (tau * idx.size)
            (grad_edges if head else grad_cls)[idx] += grad

    value = sum(weights["w_" + name] * comps[name] for name in
                ("cls", "reg", "dfl", "ld_main", "ld_vlr", "kd_main", "kd_vlr"))
    return value + tbr_weight * value_tbr, grad_cls, grad_edges, comps
