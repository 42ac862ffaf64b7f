"""Independent straight-loop reference implementations used by the acceptance suite.

Everything in this file is written as plain per-element Python loops over
`math` scalars, on purpose. Nothing here imports from the package under test,
and nothing in the package imports this file. These functions were written
before the library and are the ground truth the vectorized code must match.

Array arguments are indexed but never fed to numpy ufuncs, so the arithmetic
below is exactly the scalar formula it spells out.

The pose oracles at the end are the exception: they are the per-pose loops
the package ran before its trajectories became arrays, kept verbatim as the
reference the batched code must reproduce bit for bit. They call numpy where
those loops did (``np.cross`` on one 3-vector, ``np.linalg.norm``,
``np.mean``), because those calls fix the bits of the result.
"""

import math

import numpy as np


def _quat_to_matrix(w, x, y, z):
    # textbook rotation matrix of a unit Hamilton quaternion
    return [
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ]


def _apply_pose(rot_matrix, translation, point):
    out = []
    for row in range(3):
        m = rot_matrix[row]
        out.append(
            m[0] * point[0] + m[1] * point[1] + m[2] * point[2] + translation[row]
        )
    return out


def _move_ray(rot_matrix, translation, x, y, z):
    # z * (R @ (x, y, 1)) + t: the point at depth z on the ray (x, y, 1),
    # rotated as a ray before it is scaled by the depth
    return [z * (m[0] * x + m[1] * y + m[2]) + translation[row] for row, m in enumerate(rot_matrix)]


def _bilinear(values, valid, width, height, u, v):
    """Sample `values` at continuous (u, v).

    Returns (sample, ok). ok is False when (u, v) falls outside
    [0, width-1] x [0, height-1] or when any of the four surrounding grid
    cells is invalid. The corner index is clamped so that a sample exactly
    on the far edge still uses an in-bounds 2x2 block.
    """
    if not (0.0 <= u <= width - 1 and 0.0 <= v <= height - 1):
        return 0.0, False
    x0 = int(math.floor(u))
    y0 = int(math.floor(v))
    if x0 > width - 2:
        x0 = width - 2
    if y0 > height - 2:
        y0 = height - 2
    a = u - x0
    b = v - y0
    if not (valid[y0][x0] and valid[y0][x0 + 1] and valid[y0 + 1][x0] and valid[y0 + 1][x0 + 1]):
        return 0.0, False
    w00 = (1.0 - a) * (1.0 - b)
    w10 = a * (1.0 - b)
    w01 = (1.0 - a) * b
    w11 = a * b
    sample = (
        w00 * float(values[y0][x0])
        + w10 * float(values[y0][x0 + 1])
        + w01 * float(values[y0 + 1][x0])
        + w11 * float(values[y0 + 1][x0 + 1])
    )
    return sample, True


def oracle_resize_depth(values, valid, width, height, out_width, out_height):
    """Validity-aware bilinear resize by normalized convolution.

    Output pixel (i, j) samples the input at u = (j + 0.5) * width / out_width
    - 0.5 and v = (i + 0.5) * height / out_height - 0.5, each clamped into
    [0, width-1] x [0, height-1]. The corner index is clamped as in
    `_bilinear`. Only valid neighbors contribute, and the weighted sum is
    divided by their summed weight; the pixel is invalid when that sum is at
    most 1e-12. Values under invalid pixels are never read. Returns
    (values, valid) as nested lists; identical sizes return the input.
    """
    if (width, height) == (out_width, out_height):
        return (
            [[float(values[i][j]) for j in range(width)] for i in range(height)],
            [[bool(valid[i][j]) for j in range(width)] for i in range(height)],
        )
    sx = width / out_width
    sy = height / out_height
    out_values = []
    out_valid = []
    for i in range(out_height):
        v = min(max((i + 0.5) * sy - 0.5, 0.0), height - 1)
        y0 = min(int(math.floor(v)), max(height - 2, 0))
        y1 = min(y0 + 1, height - 1)
        b = v - y0
        row_values = []
        row_valid = []
        for j in range(out_width):
            u = min(max((j + 0.5) * sx - 0.5, 0.0), width - 1)
            x0 = min(int(math.floor(u)), max(width - 2, 0))
            x1 = min(x0 + 1, width - 1)
            a = u - x0
            total = 0.0
            wsum = 0.0
            for w, yy, xx in (
                ((1.0 - a) * (1.0 - b), y0, x0),
                (a * (1.0 - b), y0, x1),
                ((1.0 - a) * b, y1, x0),
                (a * b, y1, x1),
            ):
                if valid[yy][xx]:
                    total += w * float(values[yy][xx])
                    wsum += w
            ok = wsum > 1e-12
            row_values.append(total / wsum if ok else 0.0)
            row_valid.append(ok)
        out_values.append(row_values)
        out_valid.append(row_valid)
    return out_values, out_valid


def oracle_point_set_scale(points, valid, width, height):
    total = 0.0
    count = 0
    for i in range(height):
        for j in range(width):
            if not valid[i][j]:
                continue
            x, y, z = (float(points[i][j][k]) for k in range(3))
            total += math.sqrt(x * x + y * y + z * z)
            count += 1
    if count == 0:
        raise ValueError("no valid points")
    return total / count


def oracle_conf_loss(pred, pred_valid, ref, ref_valid, conf, alpha, width, height):
    """Sum over jointly valid pixels of c * ||p/s_hat - r/s||_2 - alpha * log c."""
    s_hat = oracle_point_set_scale(pred, pred_valid, width, height)
    s = oracle_point_set_scale(ref, ref_valid, width, height)
    total = 0.0
    for i in range(height):
        for j in range(width):
            if not (pred_valid[i][j] and ref_valid[i][j]):
                continue
            dx = float(pred[i][j][0]) / s_hat - float(ref[i][j][0]) / s
            dy = float(pred[i][j][1]) / s_hat - float(ref[i][j][1]) / s
            dz = float(pred[i][j][2]) / s_hat - float(ref[i][j][2]) / s
            residual = math.sqrt(dx * dx + dy * dy + dz * dz)
            c = float(conf[i][j])
            total += c * residual - alpha * math.log(c)
    return total


def oracle_pose_loss(pred, ref, s_hat, s):
    """pred/ref: lists of ((w, x, y, z), (tx, ty, tz)). Per-frame quaternion sign
    is chosen to minimize the quaternion L2 term."""
    total = 0.0
    for (q_p, t_p), (q_r, t_r) in zip(pred, ref):
        d_minus = 0.0
        d_plus = 0.0
        for k in range(4):
            d_minus += (q_p[k] - q_r[k]) ** 2
            d_plus += (q_p[k] + q_r[k]) ** 2
        q_term = math.sqrt(min(d_minus, d_plus))
        t_sq = 0.0
        for k in range(3):
            diff = t_p[k] / s_hat - t_r[k] / s
            t_sq += diff * diff
        total += q_term + math.sqrt(t_sq)
    return total


def oracle_c_temp(
    depth_i,
    valid_i,
    depth_j,
    valid_j,
    intr_i,
    intr_j,
    quat,
    translation,
    flow,
    flow_valid,
    width,
    height,
):
    """Mean over usable pixels of |max(P_z / D_j(p'), D_j(p') / P_z) - 1|.

    intr_* = (fx, fy, cx, cy); quat = (w, x, y, z) of the i->j motion;
    p' = p + flow. A pixel is usable when: depth_i valid, flow valid,
    transformed z > 0, p' inside the sampling domain, all four bilinear
    neighbors of D_j valid, and the sampled depth > 0.
    """
    fx_i, fy_i, cx_i, cy_i = intr_i
    rot = _quat_to_matrix(*quat)
    total = 0.0
    count = 0
    for i in range(height):
        for j in range(width):
            if not valid_i[i][j]:
                continue
            if not flow_valid[i][j]:
                continue
            z = float(depth_i[i][j])
            point = [(j - cx_i) / fx_i * z, (i - cy_i) / fy_i * z, z]
            moved = _apply_pose(rot, translation, point)
            p_z = moved[2]
            if p_z <= 0.0:
                continue
            u = j + float(flow[i][j][0])
            v = i + float(flow[i][j][1])
            sample, ok = _bilinear(depth_j, valid_j, width, height, u, v)
            if not ok or sample <= 0.0:
                continue
            r1 = p_z / sample
            r2 = sample / p_z
            ratio = r1 if r1 >= r2 else r2
            total += abs(ratio - 1.0)
            count += 1
    if count == 0:
        raise ValueError("no usable pixels")
    return total / count


def oracle_c_flow(
    depth,
    valid,
    intr_from,
    intr_to,
    quat,
    translation,
    flow,
    flow_valid,
    width,
    height,
):
    """Mean over usable pixels of |u_ind - u'| + |v_ind - v'|.

    intr_* = (fx, fy, cx, cy); quat = (w, x, y, z) of the source-to-target
    motion. (u_ind, v_ind) is the pinhole projection, with intr_to, of the
    pixel unprojected with intr_from and moved; (u', v') = p + flow. A pixel
    is usable when: depth valid, flow valid, moved z > 0, and (u', v') inside
    [0, width-1] x [0, height-1].

    The ray (x, y, 1) is rotated by the quaternion's matrix and then scaled
    by the depth, z * (R @ (x, y, 1)) + t. The projection divides by the
    moved z, which may be as small as the data make it, and that quotient
    magnifies without limit the last-bit difference between this order and
    another (rotating the scaled point, or rotating by the quaternion
    itself); in this order each pixel's term is the same scalar arithmetic
    written out.
    """
    fx_i, fy_i, cx_i, cy_i = intr_from
    fx_j, fy_j, cx_j, cy_j = intr_to
    rot = _quat_to_matrix(*quat)
    total = 0.0
    count = 0
    for i in range(height):
        for j in range(width):
            if not valid[i][j]:
                continue
            if not flow_valid[i][j]:
                continue
            z = float(depth[i][j])
            moved = _move_ray(rot, translation, (j - cx_i) / fx_i, (i - cy_i) / fy_i, z)
            if moved[2] <= 0.0:
                continue
            u = j + float(flow[i][j][0])
            v = i + float(flow[i][j][1])
            if not (0.0 <= u <= width - 1 and 0.0 <= v <= height - 1):
                continue
            u_ind = fx_j * moved[0] / moved[2] + cx_j
            v_ind = fy_j * moved[1] / moved[2] + cy_j
            total += abs(u_ind - u) + abs(v_ind - v)
            count += 1
    if count == 0:
        raise ValueError("no usable pixels")
    return total / count


def _pool2x2(grid, valid, width, height):
    out_w = width // 2
    out_h = height // 2
    pooled = [[0.0] * out_w for _ in range(out_h)]
    pooled_valid = [[False] * out_w for _ in range(out_h)]
    for i in range(out_h):
        for j in range(out_w):
            total = 0.0
            count = 0
            for di in (0, 1):
                for dj in (0, 1):
                    if valid[2 * i + di][2 * j + dj]:
                        total += grid[2 * i + di][2 * j + dj]
                        count += 1
            if count > 0:
                pooled[i][j] = total / count
                pooled_valid[i][j] = True
    return pooled, pooled_valid, out_w, out_h


def _grad_term(grid, valid, width, height):
    total = 0.0
    count = 0
    for i in range(height - 1):
        for j in range(width - 1):
            if not (valid[i][j] and valid[i][j + 1] and valid[i + 1][j]):
                continue
            total += abs(grid[i][j + 1] - grid[i][j]) + abs(grid[i + 1][j] - grid[i][j])
            count += 1
    if count == 0:
        return 0.0
    return total / count


def oracle_c_prior(
    depth,
    valid_d,
    ref,
    valid_r,
    intr,
    w_si,
    w_grad,
    w_normal,
    width,
    height,
):
    """Returns (total, c_si, c_grad, c_normal).

    c_si: mean(g^2) - (mean g)^2 over jointly valid pixels, g = log d - log ref.
    c_grad: sum over 4 dyadic scales (0..3 poolings) of the mean of
        |forward dx g| + |forward dy g| over pixels where the pixel and both
        forward neighbors are valid; 2x2 average pooling over valid members,
        odd edges cropped, pooled pixel valid if any member is.
    c_normal: mean of 1 - cos(angle) between normals of the two depth maps;
        normals are cross products of central differences of unprojected
        points; a pixel contributes when it and its 4 cross neighbors are
        jointly valid and both normals are nonzero.
    """
    fx, fy, cx, cy = intr
    g = [[0.0] * width for _ in range(height)]
    gv = [[False] * width for _ in range(height)]
    total_g = 0.0
    total_g2 = 0.0
    count = 0
    for i in range(height):
        for j in range(width):
            if not (valid_d[i][j] and valid_r[i][j]):
                continue
            dv = float(depth[i][j])
            rv = float(ref[i][j])
            if dv <= 0.0 or rv <= 0.0:
                continue
            val = math.log(dv) - math.log(rv)
            g[i][j] = val
            gv[i][j] = True
            total_g += val
            total_g2 += val * val
            count += 1
    if count == 0:
        raise ValueError("no jointly valid pixels")
    mean_g = total_g / count
    mean_g2 = total_g2 / count
    c_si = mean_g2 - mean_g * mean_g

    c_grad = 0.0
    grid, gvalid, w, h = g, gv, width, height
    for scale in range(4):
        if scale > 0:
            if w < 2 or h < 2:
                break
            grid, gvalid, w, h = _pool2x2(grid, gvalid, w, h)
        c_grad += _grad_term(grid, gvalid, w, h)

    def normal_at(d_grid, i, j):
        def point(ii, jj):
            z = float(d_grid[ii][jj])
            return [(jj - cx) / fx * z, (ii - cy) / fy * z, z]

        px = point(i, j + 1)
        mx = point(i, j - 1)
        py = point(i + 1, j)
        my = point(i - 1, j)
        tx = [px[k] - mx[k] for k in range(3)]
        ty = [py[k] - my[k] for k in range(3)]
        return [
            tx[1] * ty[2] - tx[2] * ty[1],
            tx[2] * ty[0] - tx[0] * ty[2],
            tx[0] * ty[1] - tx[1] * ty[0],
        ]

    total_n = 0.0
    count_n = 0
    for i in range(1, height - 1):
        for j in range(1, width - 1):
            ok = True
            for (ii, jj) in ((i, j), (i, j + 1), (i, j - 1), (i + 1, j), (i - 1, j)):
                if not (gv[ii][jj]):
                    ok = False
                    break
            if not ok:
                continue
            n_d = normal_at(depth, i, j)
            n_r = normal_at(ref, i, j)
            norm_d = math.sqrt(n_d[0] ** 2 + n_d[1] ** 2 + n_d[2] ** 2)
            norm_r = math.sqrt(n_r[0] ** 2 + n_r[1] ** 2 + n_r[2] ** 2)
            if norm_d <= 0.0 or norm_r <= 0.0:
                continue
            dot = n_d[0] * n_r[0] + n_d[1] * n_r[1] + n_d[2] * n_r[2]
            cos = dot / (norm_d * norm_r)
            total_n += 1.0 - cos
            count_n += 1
    c_normal = total_n / count_n if count_n > 0 else 0.0

    total = w_si * c_si + w_grad * c_grad + w_normal * c_normal
    return total, c_si, c_grad, c_normal


def _median(sorted_values):
    n = len(sorted_values)
    if n % 2 == 1:
        return sorted_values[n // 2]
    return (sorted_values[n // 2 - 1] + sorted_values[n // 2]) / 2.0


def oracle_depth_metrics(
    pred,
    pred_valid,
    gt,
    gt_valid,
    depth_min,
    depth_max,
    median_scaling,
    width,
    height,
):
    """Returns dict with abs_rel, sq_rel, rmse, rmse_log, delta_1_25, n_pixels.

    Valid pixels: gt valid and within [depth_min, depth_max], pred valid.
    Optional per-map median scaling: pred * (median(gt) / median(pred)).
    delta uses the strict inequality max(p/g, g/p) < 1.25.
    """
    ps = []
    gs = []
    for i in range(height):
        for j in range(width):
            gval = float(gt[i][j])
            if not gt_valid[i][j] or not pred_valid[i][j]:
                continue
            if gval < depth_min or gval > depth_max:
                continue
            ps.append(float(pred[i][j]))
            gs.append(gval)
    n = len(ps)
    if n == 0:
        raise ValueError("no valid pixels")
    if median_scaling:
        ratio = _median(sorted(gs)) / _median(sorted(ps))
        ps = [p * ratio for p in ps]
    sum_abs_rel = 0.0
    sum_sq_rel = 0.0
    sum_sq = 0.0
    sum_sq_log = 0.0
    hits = 0
    for p, gval in zip(ps, gs):
        diff = p - gval
        sum_abs_rel += abs(diff) / gval
        sum_sq_rel += diff * diff / gval
        sum_sq += diff * diff
        log_diff = math.log(p) - math.log(gval)
        sum_sq_log += log_diff * log_diff
        r1 = p / gval
        r2 = gval / p
        ratio = r1 if r1 >= r2 else r2
        if ratio < 1.25:
            hits += 1
    return {
        "abs_rel": sum_abs_rel / n,
        "sq_rel": sum_sq_rel / n,
        "rmse": math.sqrt(sum_sq / n),
        "rmse_log": math.sqrt(sum_sq_log / n),
        "delta_1_25": hits / n,
        "n_pixels": n,
    }


def _sign(x):
    return (x > 0) - (x < 0)


def oracle_heightfield_depth(components, extent, quat, origin, fx, fy, cx, cy, width, height):
    """Depth of the heightfield z = extent + sum of a * cos(kx * x + ky * y + phase)
    over `components` (amplitude, kx, ky, phase), seen by a pinhole camera at
    `origin` whose camera-to-world rotation is the unit quaternion `quat`
    (w, x, y, z).

    The ray of pixel (u, v) is X = origin + lam * R ((u - cx)/fx, (v - cy)/fy, 1).
    Its residual, ray z minus surface z, is sampled at 215 evenly spaced lam
    on [0, 3] * extent (numpy.linspace's points: start + k * step, with the
    last point exactly the stop). The residual is (origin z - extent) +
    lam * d_z - sum of a * cos(...), so no O(extent) sum is rounded before
    the subtraction. The first neighbouring pair whose signs differ (a zero
    counts as a sign of its own) brackets the hit, and bisection keeps the
    half whose ends differ in sign until the ends are neighbouring floats;
    the depth is the middle of the last bracket. A ray with no sign change,
    or with a zero residual at lam = 0 (the camera on the surface), is
    invalid with depth 0. Returns (values, valid) as nested lists.
    """
    rot = _quat_to_matrix(*quat)
    start, stop = 0.0, 3.0 * extent
    step = (stop - start) / 214
    grid = [k * step + start for k in range(214)] + [stop]
    values = []
    valid = []
    for v in range(height):
        row_values = []
        row_valid = []
        for u in range(width):
            d = _apply_pose(rot, (0.0, 0.0, 0.0), ((u - cx) / fx, (v - cy) / fy, 1.0))

            def residual(lam):
                x = origin[0] + lam * d[0]
                y = origin[1] + lam * d[1]
                relief = 0.0
                for amplitude, kx, ky, phase in components:
                    relief += amplitude * math.cos(kx * x + ky * y + phase)
                return (origin[2] - extent) + lam * d[2] - relief

            bracket = None
            prev = residual(grid[0])
            on_surface = prev == 0.0  # the camera sits on the surface: no hit
            for k in range(1, 1 if on_surface else len(grid)):
                cur = residual(grid[k])
                if _sign(cur) != _sign(prev):
                    bracket = grid[k - 1], grid[k], prev
                    break
                prev = cur
            if bracket is None:
                row_values.append(0.0)
                row_valid.append(False)
                continue
            lo, hi, res_lo = bracket
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):  # lo and hi are neighbouring floats
                    break
                res_mid = residual(mid)
                if _sign(res_mid) == _sign(res_lo):
                    lo, res_lo = mid, res_mid
                else:
                    hi = mid
            row_values.append(0.5 * (lo + hi))
            row_valid.append(True)
        values.append(row_values)
        valid.append(row_valid)
    return values, valid


# -- pose oracles: the former per-pose loops ---------------------------------
#
# A quaternion is a (w, x, y, z) tuple of floats, a pose a (quaternion,
# translation 3-vector) pair, and a trajectory a list of (frame, pose).

_RENORM_EPS = 1e-12
_SLERP_PARALLEL_EPS = 1e-10
_IDENTITY = (1.0, 0.0, 0.0, 0.0)


def oracle_quat(w, x, y, z):
    """The canonical quaternion: unit norm unless already within 1e-12 of
    it, then w >= 0."""
    w, x, y, z = float(w), float(x), float(y), float(z)
    n2 = w * w + x * x + y * y + z * z
    if not math.isfinite(n2) or n2 == 0.0:
        raise ValueError(f"quaternion not normalizable: ({w}, {x}, {y}, {z})")
    if abs(n2 - 1.0) >= _RENORM_EPS:
        inv = 1.0 / math.sqrt(n2)
        w *= inv
        x *= inv
        y *= inv
        z *= inv
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    return w, x, y, z


def oracle_quat_multiply(a, b):
    return oracle_quat(
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    )


def oracle_rotate(q, vector):
    v = np.asarray(vector, dtype=np.float64)
    u = np.array([q[1], q[2], q[3]])
    t = 2.0 * np.cross(u, v)
    return v + q[0] * t + np.cross(u, t)


def oracle_angle(q):
    s = math.sqrt(q[1] ** 2 + q[2] ** 2 + q[3] ** 2)
    return 2.0 * math.atan2(s, abs(q[0]))


def oracle_compose(a, b):
    return oracle_quat_multiply(a[0], b[0]), oracle_rotate(a[0], b[1]) + a[1]


def oracle_inverse(p):
    w, x, y, z = p[0]
    qi = oracle_quat(w, -x, -y, -z)
    return qi, -oracle_rotate(qi, p[1])


def oracle_slerp(q0, q1, t):
    d = q0[0] * q1[0] + q0[1] * q1[1] + q0[2] * q1[2] + q0[3] * q1[3]
    w1, x1, y1, z1 = q1
    if d < 0.0:
        d = -d
        w1, x1, y1, z1 = -w1, -x1, -y1, -z1
    if d > 1.0 - _SLERP_PARALLEL_EPS:
        a = 1.0 - t
        b = t
    else:
        theta = math.acos(min(d, 1.0))
        s = math.sin(theta)
        a = math.sin((1.0 - t) * theta) / s
        b = math.sin(t * theta) / s
    return oracle_quat(a * q0[0] + b * w1, a * q0[1] + b * x1, a * q0[2] + b * y1, a * q0[3] + b * z1)


def oracle_pose_interp(error, t):
    return oracle_slerp(_IDENTITY, error[0], t), t * error[1]


def oracle_pose_distance(a, b):
    w, x, y, z = a[0]
    rot = oracle_angle(oracle_quat_multiply(oracle_quat(w, -x, -y, -z), b[0]))
    return rot, float(np.linalg.norm(a[1] - b[1]))


def oracle_from_axis_angle(axis, angle):
    a = np.asarray(axis, dtype=np.float64)
    n = float(np.linalg.norm(a))
    half = 0.5 * float(angle)
    s = math.sin(half) / n
    return oracle_quat(math.cos(half), a[0] * s, a[1] * s, a[2] * s)


def oracle_from_rotation_vector(vector):
    v = np.asarray(vector, dtype=np.float64)
    angle = float(np.linalg.norm(v))
    if angle == 0.0:
        return _IDENTITY
    return oracle_from_axis_angle(v, angle)


def oracle_from_rotation_matrix(m):
    t = m[0][0] + m[1][1] + m[2][2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        return oracle_quat(
            0.25 * s, (m[2][1] - m[1][2]) / s, (m[0][2] - m[2][0]) / s, (m[1][0] - m[0][1]) / s
        )
    if m[0][0] >= m[1][1] and m[0][0] >= m[2][2]:
        s = math.sqrt(1.0 + m[0][0] - m[1][1] - m[2][2]) * 2.0
        return oracle_quat(
            (m[2][1] - m[1][2]) / s, 0.25 * s, (m[0][1] + m[1][0]) / s, (m[0][2] + m[2][0]) / s
        )
    if m[1][1] >= m[2][2]:
        s = math.sqrt(1.0 + m[1][1] - m[0][0] - m[2][2]) * 2.0
        return oracle_quat(
            (m[0][2] - m[2][0]) / s, (m[0][1] + m[1][0]) / s, 0.25 * s, (m[1][2] + m[2][1]) / s
        )
    s = math.sqrt(1.0 + m[2][2] - m[0][0] - m[1][1]) * 2.0
    return oracle_quat(
        (m[1][0] - m[0][1]) / s, (m[0][2] + m[2][0]) / s, (m[1][2] + m[2][1]) / s, 0.25 * s
    )


def oracle_look_at(position, target, up=(0.0, 1.0, 0.0)):
    position = np.asarray(position, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - position
    z = forward / float(np.linalg.norm(forward))
    x = np.cross(np.asarray(up, dtype=np.float64), z)
    x = x / float(np.linalg.norm(x))
    y = np.cross(z, x)
    return oracle_from_rotation_matrix(np.column_stack([x, y, z])), position


def oracle_gen_trajectory(n_frames, path, stream, radius, target):
    """``stream`` is the trajectory's random stream (``uniform_in(low, high)``)."""
    if path == "linear":
        return [(k, (_IDENTITY, np.array([float(k), 0.0, 0.0]))) for k in range(n_frames)]
    entries = []
    if path == "orbit":
        theta0 = stream.uniform_in(0.0, 2.0 * math.pi)
        arc = math.radians(stream.uniform_in(25.0, 45.0))
        for k in range(n_frames):
            t = k / (n_frames - 1) if n_frames > 1 else 0.0
            theta = theta0 + arc * t
            position = np.array([radius * math.cos(theta), radius * math.sin(theta), 0.0])
            entries.append((k, oracle_look_at(position, target)))
        return entries
    n_ctrl = 5
    ctrl = np.array(
        [
            [
                stream.uniform_in(-radius, radius),
                stream.uniform_in(-radius, radius),
                stream.uniform_in(-0.25 * radius, 0.25 * radius),
            ]
            for _ in range(n_ctrl)
        ]
    )
    padded = np.vstack([ctrl[0], ctrl, ctrl[-1]])
    for k in range(n_frames):
        t = k / (n_frames - 1) if n_frames > 1 else 0.0
        s = t * (n_ctrl - 1)
        i = min(int(math.floor(s)), n_ctrl - 2)
        f = s - i
        p0, p1, p2, p3 = padded[i], padded[i + 1], padded[i + 2], padded[i + 3]
        position = 0.5 * (
            2.0 * p1
            + (-p0 + p2) * f
            + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * f * f
            + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * f * f * f
        )
        entries.append((k, oracle_look_at(position, target)))
    return entries


def oracle_inject_drift(entries, sigma_rot, sigma_trans, stream):
    """``stream`` is the drift stream (``normals(count)``)."""
    out = [entries[0]]
    current = entries[0][1]
    for (_, p_prev), (f_cur, p_cur) in zip(entries, entries[1:]):
        rel = oracle_compose(oracle_inverse(p_prev), p_cur)
        t_noise = np.array(stream.normals(3)) * sigma_trans
        omega = np.array(stream.normals(3)) * sigma_rot
        noise = (oracle_from_rotation_vector(omega), t_noise)
        current = oracle_compose(current, oracle_compose(rel, noise))
        out.append((f_cur, current))
    return out


def oracle_correct_long_trajectory(anchors, segments):
    """Align, measure and spread the drift of each segment (a trajectory from
    one anchor frame to the next) in the world shifted by minus its start
    anchor's position c, shift the result back by c, then stitch. Returns
    (entries, per-segment (drift rot, drift trans, residual rot, residual
    trans)), the drift and residuals in the shifted world."""
    anchor_poses = dict(anchors)
    out = []
    reports = []
    for i, seg in enumerate(segments):
        a_start = anchor_poses[seg[0][0]]
        a_end = anchor_poses[seg[-1][0]]
        c = a_start[1]
        start, end = (a_start[0], a_start[1] - c), (a_end[0], a_end[1] - c)
        t = oracle_compose(start, oracle_inverse(seg[0][1]))
        aligned = [(seg[0][0], start)] + [(f, oracle_compose(t, p)) for f, p in seg[1:]]
        error = oracle_compose(end, oracle_inverse(aligned[-1][1]))
        f0, f1 = seg[0][0], seg[-1][0]
        corrected = [aligned[0]] + [
            (f, oracle_compose(oracle_pose_interp(error, (f - f0) / (f1 - f0)), p))
            for f, p in aligned[1:]
        ]
        res_rot, res_trans = oracle_pose_distance(corrected[-1][1], end)
        drift_trans = float((error[1] ** 2).sum() ** 0.5)
        reports.append((oracle_angle(error[0]), drift_trans, res_rot, res_trans))
        corrected = [(f, (q, p + c)) for f, (q, p) in corrected]
        corrected[0] = (corrected[0][0], a_start)
        corrected[-1] = (corrected[-1][0], a_end)
        out.extend(corrected if i == 0 else corrected[1:])
    return out, reports


def oracle_rpe(pred, gt, window):
    """(translation RMSE, rotation RMSE) over the entry pairs whose frames
    are ``window`` apart; None when there is no pair."""
    gt_at = dict(gt)
    pred_at = dict(pred)
    trans_sq = []
    rot_sq = []
    for frame, _ in pred:
        if frame + window not in pred_at:
            continue
        rel_pred = oracle_compose(oracle_inverse(pred_at[frame]), pred_at[frame + window])
        rel_gt = oracle_compose(oracle_inverse(gt_at[frame]), gt_at[frame + window])
        err = oracle_compose(oracle_inverse(rel_gt), rel_pred)
        trans_sq.append(float((err[1] ** 2).sum()))
        rot_sq.append(oracle_angle(err[0]) ** 2)
    if not trans_sq:
        return None
    return float(np.sqrt(np.mean(trans_sq))), float(np.sqrt(np.mean(rot_sq)))


def oracle_serialize_tum(entries):
    lines = ["# frame tx ty tz qx qy qz qw"]
    for frame, (q, t) in entries:
        values = (t[0], t[1], t[2], q[1], q[2], q[3], q[0])
        lines.append(" ".join([str(frame)] + [format(float(v), ".17g") for v in values]))
    return "\n".join(lines) + "\n"
