"""The four isochronous flows, adaptive integration, finite-difference
Jacobians, and modal (linearised) evolution.

Two companion pictures of the same dynamics are integrated here.  In the
coefficient picture ("gamma" systems) the state is the coefficient vector of
a monic polynomial; in the zero picture ("zeta" systems) it is the ordered
zero vector of that polynomial, with the coefficients recovered through the
Vieta map whenever the flow needs them.  Every solution of all four flows is
periodic with period 2*pi, which is what the integration tests certify; the
zero vector of a stationary coefficient configuration is an equilibrium of
the corresponding zeta flow.

A state is one packed complex vector: the N positions, followed for the
second-order systems by the N velocities.  ``integrate`` steps any of the
four flows on such a state, and ``fd_jacobian`` differentiates the
zero-picture velocity and the zero-velocity acceleration.

First-order pair:

    d gamma_m / dt = i [gamma_m - sum_{l != m} 1/(gamma_m - gamma_l)]
    d zeta_n / dt  = -(sum_m d gamma_m/dt * zeta_n^(N-m))
                     / prod_{l != n} (zeta_n - zeta_l)

Second-order pair (goldfish velocity coupling in the zero picture):

    d2 gamma_m / dt2 = -gamma_m + 2 sum_{l != m} 1/(gamma_m - gamma_l)^3
    d2 zeta_n / dt2  = sum_{l != n} 2 zdot_n zdot_l / (zeta_n - zeta_l)
                       - (sum_m d2 gamma_m/dt2 * zeta_n^(N-m))
                       / prod_{l != n} (zeta_n - zeta_l)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CollisionAbort,
    DegenerateSpectrum,
    DimensionMismatch,
    NearCollision,
    NonConvergence,
    StepFloorReached,
)
from .hermite import _coefficient_rate
from .matrices import KIND_M1, KIND_M2, DiophantineMatrix
from .polynomials import (_derivative_at_zeros, _differences, _vieta, as_complex_vector,
                          check_positive)

__all__ = [
    "SYSTEMS",
    "COLLISION_FLOOR",
    "STEP_FLOOR",
    "TrajectoryRecord",
    "integrate",
    "central_difference_jacobian",
    "check_fd_step",
    "fd_jacobian",
    "linear_evolution_first",
    "linear_evolution_second",
]

SYSTEMS = ("gamma1", "zeta1", "gamma2", "zeta2")

COLLISION_FLOOR = 1e-10
STEP_FLOOR = 1e-12
_MAX_STEPS = 2_000_000  # steps, accepted or rejected, before integrate gives up

_FD_STEP_RANGE = (1e-8, 1e-4)

# Pairwise eigenvalue gap, relative to the spectrum scale, below which the
# eigenvectors no longer form a trustworthy modal basis.
_GAP_FLOOR = 1e-6


@dataclass(frozen=True)
class TrajectoryRecord:
    """One integrated trajectory: samples at the accepted steps (final time
    hit exactly), step acceptance statistics, and the smallest pairwise
    separation of the position components over those samples.

    The separation is sampled only at accepted states, not at the stage
    points between them, so a close approach inside a step goes unseen; the
    eighth-order integrator takes large steps, which makes this sampling
    coarse."""

    samples: list
    step_stats: tuple
    min_separation_seen: float

    @property
    def final_state(self) -> np.ndarray:
        return self.samples[-1][1]


def _diff_gap(values: np.ndarray, *names: str):
    """``_differences``, with the gaps as Python floats: one for a row, a list
    for a stack.  NearCollision names the first row closer than COLLISION_FLOOR."""
    if values.shape[-1] < 2:
        raise ValueError(f"{names[0]} needs at least two components")
    diff, gaps = _differences(values)
    gaps = gaps.tolist()
    for name, gap in zip(names, gaps if values.ndim > 1 else [gaps]):
        if gap < COLLISION_FLOOR:
            raise NearCollision(f"{name} separation {gap:.3e} below {COLLISION_FLOOR}")
    return diff, gaps


def _gamma_first(y: np.ndarray, n: int, out: np.ndarray) -> float:
    diff, gap = _diff_gap(y, "gamma")
    _coefficient_rate(y, diff, 1, out)
    return gap


def _gamma_second(y: np.ndarray, n: int, out: np.ndarray) -> float:
    gamma = y[:n]
    diff, gap = _diff_gap(gamma, "gamma")
    out[:n] = y[n:]
    _coefficient_rate(gamma, diff, 2, out[n:])
    return gap


def _zeta_rate(zeta: np.ndarray, n: int, out: np.ndarray, order: int = 1,
               zeta_dot=None) -> float:
    """Coefficient-flow rate at the Vieta coefficients of zeta, transported to
    zero space and written into ``out``: component k is -(sum_m rate_m
    zeta_k^(N-m)) / prod_{l != k} (zeta_k - zeta_l).  ``zeta_dot`` adds the
    goldfish coupling 2 zdot_k zdot_l / (zeta_k - zeta_l) from the same
    difference matrix.  Coefficients are checked finite before their shared
    difference pass."""
    coefficients = _vieta(zeta)
    if not all(map(cmath.isfinite, coefficients)):
        raise ValueError("coefficients must have finite components")
    stack = np.empty((2, n), dtype=complex)
    stack[0] = zeta
    stack[1] = coefficients
    diff, (gap, _) = _diff_gap(stack, "zeta", "gamma")
    rate = _coefficient_rate(stack[1], diff[1], order).tolist()
    # Horner's rule in place on the negated rate, which negates every
    # rounding of np.polyval's arithmetic exactly.
    out.fill(-rate[0])
    for c in rate[1:]:
        out *= zeta
        out -= c
    out /= _derivative_at_zeros(diff[0])
    if zeta_dot is not None:
        out += 2.0 * zeta_dot * np.add.reduce(zeta_dot / diff[0], axis=1)
    return gap


def _zeta_second(y: np.ndarray, n: int, out: np.ndarray) -> float:
    out[:n] = y[n:]
    return _zeta_rate(y[:n], n, out[n:], 2, y[n:])


# Fields of the packed state y (n positions, then any velocities), which the
# caller has checked finite.  Each kernel writes the time derivative into
# ``out``, an array of y's shape that it may fill in part before raising,
# and returns the separation of the positions it was evaluated at.
_FIELDS = {"gamma1": _gamma_first, "zeta1": _zeta_rate,
           "gamma2": _gamma_second, "zeta2": _zeta_second}


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, after Prince & Dormand
# 1981): row i of _A, lower triangle only, weights the stages feeding stage
# i, and _B weights all twelve into the eighth-order solution: _STAGE_WEIGHTS
# stacks them.  _E5 and _E3 weight them into the fifth- and third-order error
# estimates, which _error_norm combines.  Stage sums multiply and add row by
# row in a fixed order, not through a BLAS product, so trajectories do not
# depend on the BLAS kernel.
_A_ROWS = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_A = np.array([row + (0.0,) * (12 - len(row)) for row in ((),) + _A_ROWS])
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1])
# _B less the third-order weights.
_E3 = _B - np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1])
_STAGE_WEIGHTS = np.vstack((_A[1:], _B))
_ERROR_WEIGHTS = np.stack((_E5, _E3))[:, :, None]


def _error_norm(stages: np.ndarray, scale: np.ndarray, h: float) -> float:
    """Hairer's DOP853 error norm of a step of size h: with err5 and err3 the
    2-norms of the fifth- and third-order estimates divided by ``scale``
    componentwise, h err5^2 / sqrt(n (err5^2 + 0.01 err3^2)).  Both estimates
    come from one stacked product, reduced row by row as each alone would be."""
    e = np.abs(np.add.reduce(_ERROR_WEIGHTS * stages, axis=1)) / scale
    e5_sq, e3_sq = np.add.reduce(e * e, axis=1).tolist()
    if e5_sq == 0.0:
        return 0.0
    return h * e5_sq / math.sqrt((e5_sq + 0.01 * e3_sq) * scale.size)


def integrate(system: str, initial, t_end: float, rel_tol: float = 1e-10,
              abs_tol: float = 1e-12) -> TrajectoryRecord:
    """Adaptive DOP853 (8th order, 5th/3rd-order error estimate) integration
    of one of the four flows.

    Second-order systems integrate as doubled first-order systems (positions
    then velocities).  Each step evaluates twelve stages; an accepted step
    evaluates the field once more at the new state, and that evaluation is
    the next step's first stage.  The final accepted step lands on ``t_end``
    exactly.  Steps whose evaluations raise NearCollision are rejected and
    the step is halved; halving below 1e-12 raises CollisionAbort, while
    ordinary error control shrinking the step below the same floor raises
    StepFloorReached.  ``min_separation_seen`` is taken from the evaluations
    at the start and at each accepted state, so it is as coarse as the steps.
    """
    for name, value in (("t_end", t_end), ("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        check_positive(name, value)
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")

    # Validate and copy the start once; the steps work on raw arrays.
    if system.endswith("1"):
        y = as_complex_vector(initial, "initial").copy()
        n_pos = y.size
    else:
        pos, vel = initial
        pos = as_complex_vector(pos, "initial position")
        vel = as_complex_vector(vel, "initial velocity")
        if pos.size != vel.size:
            raise DimensionMismatch("position and velocity lengths differ")
        y = np.concatenate([pos, vel])
        n_pos = pos.size
    field = _FIELDS[system]
    t = 0.0
    samples = [(0.0, y)]
    accepted = rejected = 0

    # Row 0 of ``table`` is y, weighted 1 in every stage sum; rows 1..12 are
    # the stages, each written by the kernel evaluated at its stage sum.  The
    # twelfth sum is the new state, whose field goes to the spare row 13 and
    # into the first stage only once the step is accepted.  Complex weights
    # of the table's shape spare each product a cast and a broadcast; numpy
    # casts a real weight w to w + 0i anyway.
    table = np.empty((14, y.size), dtype=complex)
    table[0] = y
    stages, new_stage = table[1:13], table[13]
    weights = np.ones((12, 13, y.size), dtype=complex)
    prefixes = [(weights[i, :i + 2], table[:i + 2], table[i + 2] if i < 11 else None)
                for i in range(12)]
    try:
        min_sep = field(y, n_pos, stages[0])
    except NearCollision as exc:  # a collision at the start is not recoverable
        raise CollisionAbort(str(exc)) from exc
    h = min(t_end, 1e-2)

    for _ in range(_MAX_STEPS):
        if t >= t_end:
            break
        final_step = h >= t_end - t
        if final_step:
            h = t_end - t

        weights[:, 1:] = (h * _STAGE_WEIGHTS)[:, :, None]
        try:
            for w, rows, out in prefixes:
                y_stage = np.add.reduce(w * rows, axis=0)
                if not all(map(cmath.isfinite, y_stage.tolist())):
                    raise ValueError("state must have finite components")
                if out is not None:
                    field(y_stage, n_pos, out)
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_stage))
            err = _error_norm(stages, scale, h)
            if err <= 1.0:
                gap = field(y_stage, n_pos, new_stage)
        except NearCollision:
            rejected += 1
            h *= 0.5
            if h < STEP_FLOOR:
                raise CollisionAbort(
                    f"collision pressure drove the step below {STEP_FLOOR} at t={t:.6f}")
            continue

        if err <= 1.0:
            t = t_end if final_step else t + h
            y = table[0] = y_stage  # the eighth-order solution
            stages[0] = new_stage
            samples.append((t, y))
            accepted += 1
            min_sep = min(min_sep, gap)
            grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
            h *= grow
        else:
            rejected += 1
            h *= max(0.1, 0.9 * err ** -0.125)
            if h < STEP_FLOOR:
                raise StepFloorReached(
                    f"error control drove the step below {STEP_FLOOR} at t={t:.6f}")
    else:
        raise StepFloorReached(f"step budget {_MAX_STEPS} exhausted at t={t:.6f}")

    return TrajectoryRecord(samples, (accepted, rejected), float(min_sep))


def central_difference_jacobian(field: Callable[[np.ndarray], np.ndarray],
                                z, h: float) -> np.ndarray:
    """Column m is (field(z + h e_m) - field(z - h e_m)) / (2h)."""
    zz = as_complex_vector(z, "z")
    n = zz.size
    jac = np.empty((n, n), dtype=complex)
    for m in range(n):
        bump = np.zeros(n, dtype=complex)
        bump[m] = h
        jac[:, m] = (field(zz + bump) - field(zz - bump)) / (2.0 * h)
    return jac


def check_fd_step(h: float) -> None:
    """Raise ValueError unless h is a usable central-difference step."""
    lo, hi = _FD_STEP_RANGE
    if not lo <= h <= hi:
        raise ValueError(f"step h={h} outside [{lo}, {hi}]")


def fd_jacobian(system: str, z, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a zero-picture vector field at z.

    ``system`` selects the field: "zeta1" differentiates the first-order flow
    velocity (so J/i, equivalently -i J, reproduces the M1 matrix at an
    equilibrium), "zeta2_force" differentiates the zero-velocity acceleration
    (so -J reproduces M2).
    """
    check_fd_step(h)
    orders = {"zeta1": 1, "zeta2_force": 2}
    if system not in orders:
        raise ValueError(f"unknown field {system!r}; expected one of {tuple(orders)}")
    order = orders[system]

    def rate(y):
        out = np.empty_like(y)
        _zeta_rate(y, y.size, out, order)
        return out

    return central_difference_jacobian(rate, z, h)


def _modal(matrix: DiophantineMatrix, kind: str, **vectors):
    """LAPACK eigenvalues, unit-norm eigenvector columns and the amplitudes of
    each initial vector in them; raises DegenerateSpectrum when two eigenvalues
    lie within the gap floor."""
    if matrix.kind != kind:
        order = "first" if kind == KIND_M1 else "second"
        raise ValueError(f"{order}-order evolution needs kind {kind}, got {matrix.kind}")
    vectors = [as_complex_vector(v, name) for name, v in vectors.items()]
    if any(v.size != matrix.n for v in vectors):
        raise DimensionMismatch("initial vectors do not match the matrix")
    try:
        values, basis = np.linalg.eig(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigen-decomposition failed: {exc}") from exc
    gap = float(_differences(values)[1])
    scale = max(1.0, float(np.max(np.abs(values))))
    if gap <= _GAP_FLOOR * scale:
        raise DegenerateSpectrum(
            f"minimum eigenvalue gap {gap:.3e} below {_GAP_FLOOR} * {scale:.3e}")
    return values, basis, [np.linalg.solve(basis, v) for v in vectors]


def linear_evolution_first(matrix: DiophantineMatrix, v0, t: float) -> np.ndarray:
    """Evolve v under dv/dt = i M v by eigen-reconstruction:
    v(t) = sum_m a_m exp(i lambda_m t) u_m with U a = v(0).

    Integer eigenvalues make every mode 2*pi-periodic, so v(2*pi) = v(0).
    """
    values, basis, (a,) = _modal(matrix, KIND_M1, v0=v0)
    return basis @ (a * np.exp(1j * values * t))


def linear_evolution_second(matrix: DiophantineMatrix, v0, vdot0, t: float) -> np.ndarray:
    """Evolve v under d2v/dt2 = -M v by eigen-reconstruction:
    v(t) = sum_m [a_m cos(w_m t) + b_m sin(w_m t)/w_m] u_m.

    The modal frequency is taken as w_m = sqrt(eigenvalue); with the
    squared-integer eigenvalues of an M2 matrix this gives integer
    frequencies, hence 2*pi-periodic modes.  Eigenvalues must have positive
    real part for the square root to define a frequency.
    """
    values, basis, (a, b) = _modal(matrix, KIND_M2, v0=v0, vdot0=vdot0)
    if np.any(values.real <= 0):
        raise DegenerateSpectrum("eigenvalues with non-positive real part have no frequency")
    omega = np.sqrt(values)
    return basis @ (a * np.cos(omega * t) + b * np.sin(omega * t) / omega)
