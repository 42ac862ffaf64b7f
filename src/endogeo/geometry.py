"""Rigid-body math: quaternions, SE(3) poses, pinhole projection, point-set alignment.

Conventions used throughout the package:

- Quaternions use the Hamilton convention and are stored scalar-first
  (w, x, y, z). The canonical representative of a rotation has w >= 0.
- Poses are camera-to-world unless a function documents otherwise;
  ``compose(a, b)`` is the transform that maps ``x`` to ``a(b(x))``.
- Translations are in millimeters, angles in radians, axes right-handed.

Batch shapes: a :class:`PoseBatch` holds N poses as ``quat`` (N, 4), canonical
(w, x, y, z) rows, and ``trans`` (N, 3). :func:`compose`, :func:`inverse`,
:func:`pose_interp` and :func:`pose_distance` take a single :class:`Pose` or a
:class:`PoseBatch` for each pose argument and broadcast a single pose against a
batch; ``pose_interp`` also takes an (N,) array of fractions. A batch in gives
a batch out, and ``pose_distance`` then returns two (N,) arrays.

Every formula is written once, as a kernel on components: a quaternion is a
4-tuple (w, x, y, z) and a vector a 3-tuple, each component a float or an (N,)
array. The scalar classes and the batched paths call the same kernels, so a
pose gets the same bits alone or in a batch. Trigonometric functions run
through ``math`` on floats, also for a batch, because numpy's ``arccos`` and
``arctan2`` may differ from libm in the last bit.

Raster geometry takes and returns (H, W) planes, one array per coordinate:
:func:`pixel_grid` (u, v), :func:`pixel_rays` (x, y; z is 1), the one ray
rotation :func:`rotated_rays` (rows of M @ (x, y, 1)), :meth:`Pose.move_rays`
(rows of z * (R @ (x, y, 1)) + t) and :func:`project_planes`. At the API
boundary results stay interleaved: ``Pointmap`` (H, W, 3), ``FlowField``
(H, W, 2), and :func:`project` on (..., 3) arrays.

Every array the Python API takes is read by the one array rule,
:func:`floats` (here, in ``rasters``, ``stereo``, ``sim`` and ``fileio``):
a numpy array of numbers is copied to float64, and anything else is read
entry by entry through :func:`~endogeo.errors.number`. :func:`finite_rows`
adds a (..., k) shape and finiteness, and :func:`vec3` one 3-vector. The
helpers below them (kernels, :func:`norms3`, :func:`rotated_rays`, the
``quats_from_*`` batches) take the float64 arrays those rules return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, boolean, finite_result, integer, number, real

# |norm^2 - 1| below this is treated as already unit and left untouched,
# which keeps text round trips bit-exact while staying well inside the
# 1e-9 unit-norm invariant.
_RENORM_EPS = 1e-12
# |dot| above 1 - this falls back to normalized lerp (tiny-angle regime).
_SLERP_PARALLEL_EPS = 1e-10
# Largest image width or height, px. CameraIntrinsics and the depth
# evaluation size enforce it, so a size from a calibration file or the
# command line is rejected before any array of that size is allocated.
MAX_IMAGE_SIDE = 2**15

_IDENTITY = (1.0, 0.0, 0.0, 0.0)


# -- kernels on components (floats or (N,) arrays) ---------------------------


def _where(cond, a, b):
    """``np.where`` for arrays; a plain choice for a scalar condition."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _map_floats(fn, *arrays, width=None):
    """``fn`` applied on floats to each element of the broadcast ``arrays``.
    With ``width``, ``fn`` returns that many values, stacked on a last axis."""
    arrays = np.broadcast_arrays(*arrays)
    out = [fn(*args) for args in zip(*(a.ravel().tolist() for a in arrays))]
    shape = arrays[0].shape if width is None else arrays[0].shape + (width,)
    return np.array(out, dtype=np.float64).reshape(shape)


def _hamilton(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _conjugate(q):
    w, x, y, z = q
    return w, -x, -y, -z


def _canonical(q):
    """The unit, w >= 0 representative of ``q``. Components whose squared
    norm is within _RENORM_EPS of 1 are kept bit for bit."""
    w, x, y, z = q
    n2 = w * w + x * x + y * y + z * z
    if isinstance(n2, np.ndarray):
        ok = np.isfinite(n2) & (n2 != 0.0)
        safe = np.where(ok, n2, 1.0)  # the bad entries raise below
        scale = np.where(np.abs(n2 - 1.0) >= _RENORM_EPS, 1.0 / np.sqrt(safe), 1.0)
    else:  # the same rule on floats, without numpy's per-call cost
        ok = math.isfinite(n2) and n2 != 0.0
        scale = 1.0 / math.sqrt(n2) if ok and abs(n2 - 1.0) >= _RENORM_EPS else 1.0
    if not np.all(ok):
        first = int(np.argmin(ok))
        bad = ", ".join(str(float(np.ravel(c)[first])) for c in q)
        raise ValidationError(f"quaternion not normalizable: ({bad})")
    scale = _where(w * scale < 0.0, -scale, scale)
    return w * scale, x * scale, y * scale, z * scale


def _cross(a, b):
    """a x b with the arithmetic of ``np.cross``."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _rotate(q, v):
    """v rotated by the unit quaternion q: v + w t + u x t with t = 2 u x v."""
    w, *u = q
    t = tuple(2.0 * c for c in _cross(u, v))
    return tuple(vc + w * tc + cc for vc, tc, cc in zip(v, t, _cross(u, t)))


def _compose(a, b):
    """(quaternion, translation) of a o b before canonicalization."""
    (qa, ta), (qb, tb) = a, b
    return _hamilton(qa, qb), tuple(r + s for r, s in zip(_rotate(qa, tb), ta))


def _slerp_weights(d, t):
    """(a, b) such that slerp = a q0 + b q1, for q0 . q1 = d >= 0, on floats."""
    if d > 1.0 - _SLERP_PARALLEL_EPS:
        # near-parallel: nlerp, renormalized by the canonicalization
        return 1.0 - t, t
    theta = math.acos(min(d, 1.0))
    s = math.sin(theta)
    return math.sin((1.0 - t) * theta) / s, math.sin(t * theta) / s


def _slerp(q0, q1, t):
    """Shortest-arc slerp before canonicalization; ``t`` a float or an array."""
    if not np.isfinite(t).all():
        raise ValidationError("interpolation fraction t must be finite")
    d = q0[0] * q1[0] + q0[1] * q1[1] + q0[2] * q1[2] + q0[3] * q1[3]
    sign = _where(d < 0.0, -1.0, 1.0)
    d = d * sign
    if isinstance(d, np.ndarray) or isinstance(t, np.ndarray):
        weights = _map_floats(_slerp_weights, d, t, width=2)
        a, b = weights[..., 0], weights[..., 1]
    else:
        a, b = _slerp_weights(d, t)
    return tuple(a * c0 + b * (c1 * sign) for c0, c1 in zip(q0, q1))


def _angle_of(w, x, y, z):
    return 2.0 * math.atan2(math.sqrt(x**2 + y**2 + z**2), abs(w))


def _angle(q):
    """Rotation angle in [0, pi]; a float, or an array for array components."""
    if isinstance(q[0], np.ndarray):
        return _map_floats(_angle_of, *q)
    return _angle_of(*(float(c) for c in q))  # ** on a numpy float is not pow


def norms3(v):
    """Euclidean norm of each (..., 3) row of ``v``. The stacked matmul uses
    the BLAS dot that ``np.linalg.norm`` uses for one vector, so a row has the
    same norm alone or in a batch."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


@finite_result("rotation quaternions")
def quats_from_axis_angle(axis, angle) -> np.ndarray:
    """(..., 4) canonical quaternions of rotations by the finite (...)
    ``angle`` about the (..., 3) ``axis``, whose norm is nonzero and finite."""
    if not np.all(np.isfinite(angle)):
        raise ValidationError("rotation angle must be finite")
    n = norms3(axis)
    if not np.all((n > 0.0) & (n < math.inf)):
        raise ValidationError("rotation axis must be nonzero with a finite norm")
    half = 0.5 * angle
    s = _map_floats(math.sin, half) / n
    q = (_map_floats(math.cos, half), axis[..., 0] * s, axis[..., 1] * s, axis[..., 2] * s)
    return np.stack(_canonical(q), axis=-1)


@finite_result("rotation quaternions")
def quats_from_rotation_vectors(vectors) -> np.ndarray:
    """(N, 4) canonical quaternions of the (N, 3) axis * angle ``vectors``
    (exponential map); zero vectors give the identity."""
    v = vectors.reshape(-1, 3)
    angle = norms3(v)  # an overflowing norm is a non-finite angle, rejected below
    zero = angle == 0.0
    q = quats_from_axis_angle(np.where(zero[:, None], 1.0, v), np.where(zero, 1.0, angle))
    q[zero] = _IDENTITY
    return q


def quats_from_rotation_matrices(m) -> np.ndarray:
    """(..., 4) canonical quaternions of the (..., 3, 3) rotation matrices
    ``m``, each row taking the branch (trace, or the largest diagonal entry)
    that keeps its divisor away from zero."""
    m00, m01, m02 = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    m10, m11, m12 = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    m20, m21, m22 = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    t = m00 + m11 + m22
    with np.errstate(invalid="ignore", divide="ignore"):  # a row keeps only the branch it picks
        s0 = np.sqrt(t + 1.0) * 2.0
        s1 = np.sqrt(1.0 + m00 - m11 - m22) * 2.0
        s2 = np.sqrt(1.0 + m11 - m00 - m22) * 2.0
        s3 = np.sqrt(1.0 + m22 - m00 - m11) * 2.0
        branches = [
            (0.25 * s0, (m21 - m12) / s0, (m02 - m20) / s0, (m10 - m01) / s0),
            ((m21 - m12) / s1, 0.25 * s1, (m01 + m10) / s1, (m02 + m20) / s1),
            ((m02 - m20) / s2, (m01 + m10) / s2, 0.25 * s2, (m12 + m21) / s2),
            ((m10 - m01) / s3, (m02 + m20) / s3, (m12 + m21) / s3, 0.25 * s3),
        ]
    pick = np.select([t > 0.0, (m00 >= m11) & (m00 >= m22), m11 >= m22], [0, 1, 2], 3)
    q = tuple(np.choose(pick, [b[k] for b in branches]) for k in range(4))
    return np.stack(_canonical(q), axis=-1)


# -- scalar types -------------------------------------------------------------


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        q = _canonical(tuple(number(c, "quaternion component") for c in (self.w, self.x, self.y, self.z)))
        for name, value in zip("wxyz", q):
            object.__setattr__(self, name, float(value))

    @property
    def wxyz(self) -> tuple:
        return self.w, self.x, self.y, self.z

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(*_IDENTITY)

    @staticmethod
    def from_axis_angle(axis, angle: float) -> "Quaternion":
        return Quaternion(*quats_from_axis_angle(_triple(axis, "rotation axis"), real(angle, "rotation angle")))

    @staticmethod
    @finite_result("rotation quaternion")
    def from_rotation_matrix(matrix) -> "Quaternion":
        """The rotation of the 3x3 ``matrix`` M, which must have det M > 0 and no
        entry of M M^T - I above 1e-6, or :class:`ValidationError`."""
        m = floats(matrix, "rotation matrix")
        if m.shape != (3, 3):
            raise ValidationError(f"rotation matrix must be 3x3, got {m.shape}")
        error = float(np.abs(m @ m.T - np.eye(3)).max())  # huge entries give inf or nan, rejected here
        if not error <= 1e-6:
            raise ValidationError(f"rotation matrix is not orthogonal (orthogonality error {error:.3g})")
        if not np.linalg.det(m) > 0.0:
            raise ValidationError("rotation matrix is a reflection (negative determinant)")
        return Quaternion(*quats_from_rotation_matrices(m))

    @finite_result("rotated vectors")
    def rotate(self, vectors):
        """Rotate one finite 3-vector or an (..., 3) stack of them."""
        v = finite_rows(vectors, 3, "vectors to rotate")
        return np.stack(_rotate(self.wxyz, tuple(np.moveaxis(v, -1, 0))), axis=-1)

    def to_rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
                [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
                [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
            ]
        )

    def angle(self) -> float:
        """Rotation angle in [0, pi]."""
        return _angle(self.wxyz)


def slerp(q0: Quaternion, q1: Quaternion, t: float) -> Quaternion:
    """Shortest-arc spherical interpolation at constant angular velocity."""
    return Quaternion(*_slerp(q0.wxyz, q1.wxyz, real(t, "interpolation fraction t")))


def quat_angles(quat) -> np.ndarray:
    """(N,) rotation angles in [0, pi] of the (N, 4) quaternions ``quat``."""
    return _angle(tuple(quat.T))


def floats(value, what: str) -> np.ndarray:
    """``value`` as a new float64 array: a numpy array of an int, uint or float
    dtype copied, anything else read entry by entry through
    :func:`~endogeo.errors.number`, so a bool, a string, a complex entry or a
    ragged nest raises :class:`ValidationError`; ``what`` names the array in
    the message. NaN and ±inf pass, for the caller to mask or reject."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(np.float64)
    try:
        entries = np.array(value, dtype=object)
    except ValueError:  # nested arrays that numpy cannot stack, even as objects
        raise ValidationError(f"{what} must be a regular nest of numbers") from None
    return np.array([number(v, f"{what} entry") for v in entries.flat], dtype=np.float64).reshape(entries.shape)


def _triple(value, what: str) -> np.ndarray:
    """``value`` (see :func:`floats`) as a float64 3-vector, not checked for
    finiteness."""
    t = floats(value, what)
    if t.shape != (3,):
        raise ValidationError(f"{what} must be a 3-vector, got shape {t.shape}")
    return t


def finite_rows(value, width: int, what: str) -> np.ndarray:
    """``value`` (see :func:`floats`) as a finite float64 array of
    (..., ``width``) rows; ``what`` names it in the error message."""
    a = floats(value, what)
    if a.shape[-1:] != (width,):
        raise ValidationError(f"{what} must be a (..., {width}) array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} must be finite")
    return a


def vec3(value, what: str) -> np.ndarray:
    """``value`` (see :func:`floats`) as a read-only, finite float64
    3-vector; ``what`` names it in the error message."""
    t = _triple(value, what)
    if not np.all(np.isfinite(t)):
        raise ValidationError(f"{what} must be finite")
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class Pose:
    rotation: Quaternion
    translation: np.ndarray = field(default=None)

    def __post_init__(self):
        if not isinstance(self.rotation, Quaternion):
            raise ValidationError(f"pose rotation must be a Quaternion, got {self.rotation!r}")
        t = self.translation if self.translation is not None else (0.0, 0.0, 0.0)
        object.__setattr__(self, "translation", vec3(t, "translation"))

    def move_rays(self, x, y, z, rows=(0, 1, 2)):
        """The ``rows`` of z * (R @ (x, y, 1)) + t: the points at depths ``z``
        on the rays with x and y planes ``x, y``, moved by this pose."""
        t = self.translation.tolist()
        rotated = rotated_rays(self.rotation.to_rotation_matrix(), x, y, rows)
        return tuple(z * r + t[k] for k, r in zip(rows, rotated))

    def __eq__(self, other):
        if not isinstance(other, Pose):
            return NotImplemented
        return self.rotation == other.rotation and bool(
            np.all(self.translation == other.translation)
        )


class PoseBatch:
    """N poses: ``quat`` (N, 4) canonical (w, x, y, z) rows and ``trans``
    (N, 3) finite translations, both read-only. Construction canonicalizes
    ``quat`` the way :class:`Quaternion` does; indexing with an int gives a
    :class:`Pose`, with a slice, mask or index array a PoseBatch."""

    __slots__ = ("quat", "trans")

    @finite_result("pose batch")
    def __init__(self, quat, trans):
        quat, trans = floats(quat, "quaternion"), floats(trans, "translation")
        if quat.ndim != 2 or quat.shape[1] != 4 or trans.shape != (len(quat), 3):
            raise ValidationError(
                f"a pose batch needs (N, 4) quaternions and (N, 3) translations, "
                f"got {quat.shape} and {trans.shape}"
            )
        if not np.all(np.isfinite(trans)):
            raise ValidationError("translation must be finite")
        self._set(np.stack(_canonical(tuple(quat.T)), axis=-1), trans)

    def _set(self, quat, trans):
        quat.flags.writeable = False
        trans.flags.writeable = False
        self.quat, self.trans = quat, trans

    @classmethod
    def _of(cls, quat, trans) -> "PoseBatch":
        """Wrap arrays that already hold canonical, finite poses."""
        batch = object.__new__(cls)
        batch._set(quat, trans)
        return batch

    @classmethod
    def stack(cls, items) -> "PoseBatch":
        """The poses of ``items`` (each a Pose or a PoseBatch), in order."""
        parts = [
            (np.array([p.rotation.wxyz]), p.translation[None, :])
            if isinstance(p, Pose)
            else (p.quat, p.trans)
            for p in items
        ]
        if not parts:
            return cls._of(np.zeros((0, 4)), np.zeros((0, 3)))
        return cls._of(*(np.concatenate(a) for a in zip(*parts)))

    def __len__(self):
        return len(self.quat)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Pose(Quaternion(*self.quat[index]), self.trans[index])
        return PoseBatch._of(self.quat[index], self.trans[index])

    def with_rows(self, index, rows: "PoseBatch") -> "PoseBatch":
        """A copy with the poses at ``index`` replaced by ``rows``."""
        quat, trans = self.quat.copy(), self.trans.copy()
        quat[index] = rows.quat
        trans[index] = rows.trans
        return PoseBatch._of(quat, trans)


def _parts(p):
    """(quaternion components, translation components) of a Pose or PoseBatch."""
    if isinstance(p, Pose):
        return p.rotation.wxyz, tuple(p.translation.tolist())
    return tuple(p.quat.T), tuple(p.trans.T)


def _pose(q, t):
    """A Pose from float components, a PoseBatch from array components; the
    constructors canonicalize ``q``."""
    if any(isinstance(c, np.ndarray) for c in q + t):
        q = np.broadcast_arrays(*q, *t)
        return PoseBatch(np.stack(q[:4], axis=-1), np.stack(q[4:], axis=-1))
    return Pose(Quaternion(*q), t)


def compose(a, b):
    """a o b: the transform x -> a(b(x)); Poses or PoseBatches, broadcast."""
    return _pose(*_compose(_parts(a), _parts(b)))


def inverse(p):
    q, t = _parts(p)
    qi = _conjugate(q)
    return _pose(qi, tuple(-c for c in _rotate(qi, t)))


def compose_cumulative(first: Pose, steps: PoseBatch) -> PoseBatch:
    """The N + 1 poses first, first o steps[0], first o steps[0] o steps[1], ...

    Each product depends on the one before, so the scan runs on floats, with
    the same kernels as :func:`compose`.
    """
    current = _parts(first)
    quats, transes = [current[0]], [current[1]]
    for q, t in zip(steps.quat.tolist(), steps.trans.tolist()):
        q_raw, t = _compose(current, (q, t))
        current = tuple(float(c) for c in _canonical(q_raw)), t
        quats.append(current[0])
        transes.append(t)
    return PoseBatch(np.array(quats), np.array(transes))


def pose_interp(error, t):
    """Fraction ``t`` of the transform ``error``: slerp on rotation, linear on
    translation. ``t`` may be an array, ``error`` a batch; they broadcast."""
    q, tr = _parts(error)
    return _pose(_slerp(_IDENTITY, q, t), tuple(t * c for c in tr))


def pose_distance(a, b):
    """(rotation angle rad, translation norm mm) between two poses; for
    batches, two arrays."""
    (qa, ta), (qb, tb) = _parts(a), _parts(b)
    rot = _angle(_canonical(_hamilton(_conjugate(qa), qb)))
    trans = norms3(np.stack(np.broadcast_arrays(*(r - s for r, s in zip(ta, tb))), axis=-1))
    return rot, (float(trans) if trans.ndim == 0 else trans)


def check_image_size(width, height, what: str) -> tuple:
    """``(width, height)`` as ints if both are integers from 1 to
    :data:`MAX_IMAGE_SIDE`, else :class:`ValidationError` naming ``what``."""
    sides = integer(width, f"{what} width"), integer(height, f"{what} height")
    if not all(0 < side <= MAX_IMAGE_SIDE for side in sides):
        raise ValidationError(f"{what} size must be 1..{MAX_IMAGE_SIDE} px per side: {width}x{height}")
    return sides


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        fx, fy = real(self.fx, "focal length fx", 0), real(self.fy, "focal length fy", 0)
        width, height = check_image_size(self.width, self.height, "image")
        cx, cy = real(self.cx, "principal point cx"), real(self.cy, "principal point cy")
        if not (0 <= cx < width and 0 <= cy < height):
            raise ValidationError(f"principal point ({cx}, {cy}) outside {width}x{height}")
        for name, value in dict(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height).items():
            object.__setattr__(self, name, value)
        x, y = self.widest_ray()
        if not math.isfinite(x * x + y * y):
            raise ValidationError(f"focal lengths too small, pixel rays overflow: fx={fx} fy={fy}")

    def widest_ray(self) -> tuple:
        """The largest |x| and |y| over the rays of :func:`pixel_rays`, those
        of the pixels farthest from the principal point, as Python floats:
        they overflow to inf without a warning."""
        return max(self.cx, self.width - 1 - self.cx) / self.fx, max(self.cy, self.height - 1 - self.cy) / self.fy


def pixel_grid(width: int, height: int):
    """The (u, v) planes: each pixel's own column and row, as (height, width)
    arrays."""
    v, u = np.indices((height, width), dtype=np.float64)
    return u, v


def pixel_rays(u, v, intrinsics: CameraIntrinsics):
    """The (x, y) planes of the camera-frame rays ((u - cx)/fx, (v - cy)/fy, 1)
    through the pixels (u, v); z is 1, so (x * depth, y * depth, depth) is the point."""
    return (u - intrinsics.cx) / intrinsics.fx, (v - intrinsics.cy) / intrinsics.fy


def rotated_rays(matrix, x, y, rows=(0, 1, 2)):
    """The ``rows`` of M @ (x, y, 1) for the 3x3 ``matrix`` M and the ray
    planes ``x, y``: row k is M[k][0] * x + M[k][1] * y + M[k][2]."""
    m = matrix.tolist()
    return tuple(m[k][0] * x + m[k][1] * y + m[k][2] for k in rows)


def project_planes(x, y, z, intrinsics: CameraIntrinsics):
    """Pinhole projection of camera-frame point planes: ``(u, v, valid)`` with
    ``valid`` = z > 0, and u and v set to 0 where it is False."""
    valid = z > 0
    z_safe = np.where(valid, z, 1.0)
    u = intrinsics.fx * x / z_safe + intrinsics.cx
    v = intrinsics.fy * y / z_safe + intrinsics.cy
    return np.where(valid, u, 0.0), np.where(valid, v, 0.0), valid


@finite_result("projected pixels")
def project(points, intrinsics: CameraIntrinsics):
    """Pinhole projection of (..., 3) camera-frame points to (..., 2) pixels.

    Raises when any point is not finite or has z <= 0; use
    :func:`project_planes` for per-pixel handling.
    """
    p = finite_rows(points, 3, "points to project")
    u, v, valid = project_planes(p[..., 0], p[..., 1], p[..., 2], intrinsics)
    if not np.all(valid):
        raise ValidationError("cannot project points with non-positive depth")
    return np.stack([u, v], axis=-1)


@dataclass(frozen=True)
class SimilarityTransform:
    scale: float
    rotation: Quaternion
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scale", real(self.scale, "scale", 0))
        object.__setattr__(self, "translation", vec3(self.translation, "translation"))

    @finite_result("transformed points")
    def apply(self, points):
        return self.scale * self.rotation.rotate(points) + self.translation


@finite_result("similarity transform")
def umeyama_align(source, target, with_scale: bool = True) -> SimilarityTransform:
    """Least-squares similarity (or rigid) transform mapping the finite
    (..., 3) points ``source`` onto as many ``target`` points.

    Minimizes sum ||s R x_i + t - y_i||^2 via the SVD of the cross-covariance,
    with the reflection guard that keeps det(R) = +1.
    """
    with_scale = boolean(with_scale, "with_scale")
    src = finite_rows(source, 3, "source points").reshape(-1, 3)
    tgt = finite_rows(target, 3, "target points").reshape(-1, 3)
    if src.shape != tgt.shape:
        raise ValidationError(f"point counts differ: {src.shape[0]} vs {tgt.shape[0]}")
    n = src.shape[0]
    if n < 2:
        raise ValidationError(f"alignment needs at least 2 point pairs, got {n}")
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    xs = src - mu_s
    ys = tgt - mu_t
    cov = ys.T @ xs / n
    if not np.all(np.isfinite(cov)):
        raise ValidationError("points are too large to align: their covariance overflows")
    u, d, vt = np.linalg.svd(cov)
    sign = 1.0 if np.linalg.det(u) * np.linalg.det(vt) >= 0 else -1.0
    rot = u @ np.diag([1.0, 1.0, sign]) @ vt
    if with_scale:
        var_s = float((xs**2).sum()) / n
        if var_s <= 0:
            raise ValidationError("scale is undefined: source points coincide")
        if var_s == math.inf:
            raise ValidationError("points are too large to align: their variance overflows")
        scale = float(d[0] + d[1] + sign * d[2]) / var_s
        if scale <= 0:
            raise ValidationError("alignment produced a non-positive scale")
    else:
        scale = 1.0
    q = Quaternion.from_rotation_matrix(rot)
    t = mu_t - scale * (rot @ mu_s)
    return SimilarityTransform(scale, q, t)
