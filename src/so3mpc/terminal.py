"""Terminal cost, local feedback law, and terminal-set calibration.

The pipeline linearizes the attitude dynamics in exponential coordinates,
turns the trace-form stage cost into a quadratic form through the tilde
transform, solves a discrete-time algebraic Riccati equation for the
terminal weight, extracts the feedback gain, and then calibrates the
largest ellipsoid level on which the resulting local law provably (by
dense sampling) keeps the nonlinear closed loop inside the set while
decreasing the terminal cost by at least the stage cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DesignFileError,
    NoConvergence,
    NoFeasibleLevel,
    NotPositiveDefinite,
    NotStabilizable,
    OutOfChart,
    So3MpcError,
)
from .lgvi import _FLOAT64, SpacecraftState, _step_rows, step_jacobians
from .so3 import _log_so3_pair, exp_so3_rows, inverse_right_jacobian, log_so3_rows
from .validation import check_spd

_EYE3 = np.eye(3)

# Fixed tolerances of the design: the Riccati doubling's stop, cap (64
# doublings stand for 2^64 Riccati steps) and residual bound; the calibration
# grid's size and lowest level; and the slack of the decrease condition
# F(x+) - F(x) + L(x, u) <= DECREASE_SLACK.
_DARE_TOL = 1e-12
_DARE_MAX_DOUBLINGS = 64
_DARE_RESIDUAL_TOL = 1e-8
_GRID_POINTS = 48
_LEVEL_FLOOR = 1e-8
DECREASE_SLACK = 1e-10

# Defaults of the design shared by the library and the CLI: the attitude and
# torque weights as multiples of the identity and the decay factor of
# :func:`default_weights`, the torque bound in N m, the number of certificate
# samples and the safety shrink applied to the calibrated level.
DEFAULT_ATTITUDE_WEIGHT = 1.0
DEFAULT_TORQUE_WEIGHT = 2.0
DEFAULT_DECAY = 0.1
DEFAULT_TORQUE_BOUND = 100.0
DEFAULT_TERMINAL_SAMPLES = 1000
DEFAULT_TERMINAL_SHRINK = 0.9


@dataclass(frozen=True)
class StageWeights:
    """Weights of the running cost: attitude, rate, torque, and the decay
    factor splitting the stage cost from the terminal design."""

    attitude: np.ndarray
    rate: np.ndarray
    torque: np.ndarray
    decay: float

    def __post_init__(self):
        object.__setattr__(self, "attitude", check_spd(self.attitude, "attitude weight"))
        object.__setattr__(self, "rate", check_spd(self.rate, "rate weight"))
        object.__setattr__(self, "torque", check_spd(self.torque, "torque weight"))
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")
        # Constant pieces of the stage cost, computed once per weight set:
        # the traces, and the weights' entries as Python floats.
        object.__setattr__(
            self, "_traces", (float(np.trace(self.attitude)), float(np.trace(self.rate)))
        )
        object.__setattr__(
            self,
            "_weight_entries",
            (self.attitude.tolist(), self.rate.tolist(), tilde_transform(self.torque).tolist()),
        )

    def stage_cost(self, state: SpacecraftState, torque, h: float) -> float:
        """Trace-form running cost of one step:
        tr(Q_g (I - g)) + tr(Q_f (I - f)) / h^2 + u^T (tr(R) I - R) u / 2.

        Takes a stack of states and torques too, and returns one cost per row,
        equal to the single state's cost bit for bit: both are computed from
        entries, floats for one state and arrays over the stack.
        """
        if type(torque) is not np.ndarray or torque.dtype is not _FLOAT64:
            torque = np.asarray(torque, dtype=float)
        if state.g.ndim == 2:
            g, f, u = state.g.tolist(), state.f.tolist(), torque.tolist()
        else:
            g, f, u = state.g.transpose(1, 2, 0), state.f.transpose(1, 2, 0), torque.T
        attitude, rate, torque_tilde = self._weight_entries
        trace_att, trace_rate = self._traces
        g_term = trace_att - _trace_product(attitude, g)
        f_term = (trace_rate - _trace_product(rate, f)) / (h * h)
        u_term = 0.5 * _quadratic_form(torque_tilde, u)
        return g_term + f_term + u_term


# The cost formulas in components.  Every entry is a Python float (one state)
# or an array with one element per row (a stack); only elementwise + - * /
# appear, which round alike on both, so a stack's rows equal the single
# results bit for bit.


def _trace_product(w, m):
    """tr(W M) for 3x3 W and M given as rows of entries."""
    (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = w
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return (
        (w00 * m00 + w01 * m10 + w02 * m20)
        + (w10 * m01 + w11 * m11 + w12 * m21)
        + (w20 * m02 + w21 * m12 + w22 * m22)
    )


def _quadratic_form(a, x):
    """x^T A x for a 3x3 A given as rows of entries."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    x0, x1, x2 = x
    return (
        x0 * (a00 * x0 + a01 * x1 + a02 * x2)
        + x1 * (a10 * x0 + a11 * x1 + a12 * x2)
        + x2 * (a20 * x0 + a21 * x1 + a22 * x2)
    )


def default_weights(inertia) -> StageWeights:
    """Identity attitude weight, inertia-matched rate weight, 2I torque
    weight and decay 0.1."""
    return StageWeights(
        DEFAULT_ATTITUDE_WEIGHT * _EYE3,
        np.asarray(inertia, dtype=float),
        DEFAULT_TORQUE_WEIGHT * _EYE3,
        DEFAULT_DECAY,
    )


class Linearization(NamedTuple):
    """Discrete-time (A, B) pair used for the terminal design."""

    A: np.ndarray
    B: np.ndarray


class QuadraticCostData(NamedTuple):
    """Quadratic-form data (state block, control block) fed to the Riccati
    equation; there is no state-control cross term."""

    Q: np.ndarray
    R_dare: np.ndarray


class Certification(NamedTuple):
    """Sampling certificate attached to a calibrated terminal level."""

    n_samples: int
    max_violation: float


def tilde_transform(m) -> np.ndarray:
    """tilde(sym(M)) = tr(M) I - (M + M^T) / 2, for one matrix or a stack;
    a symmetric Q maps to trace(Q) I - Q.

    Converts trace-form rotation costs into quadratic forms on rotation
    vectors.  Each output eigenvalue of a symmetric input is the sum of the
    complementary input eigenvalues, so positive-definite inputs stay
    positive-definite.
    """
    m = np.asarray(m, dtype=float)
    sym = 0.5 * (m + np.swapaxes(m, -1, -2))
    return np.trace(sym, axis1=-2, axis2=-1)[..., None, None] * _EYE3 - sym


def build_linearization(h: float, inertia) -> Linearization:
    """The design's (A, B): :func:`~so3mpc.lgvi.step_jacobians` at the
    equilibrium, the exact Jacobian of the implicit integrator step there,
    which the terminal decrease condition on the nonlinear dynamics needs.

    It has the double-integrator structure of exponential coordinates: the
    rotation vector integrates the rate, and the torque enters the rate row
    through h times the inverse of trace(J) I - J.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    return Linearization(*step_jacobians(_EYE3, _EYE3, h, inertia))


def stage_hessians(weights: StageWeights, state: SpacecraftState) -> QuadraticCostData:
    """Hessians of the trace-form stage cost at ``state``, in the tangent
    coordinates g exp(hat(zeta)), f exp(h hat(omega)) of
    :func:`~so3mpc.lgvi.step_jacobians`: blockdiag(tilde(sym(Q_g g)),
    tilde(sym(Q_f f))) in the state, each block with its negative
    eigenvalues set to zero, and tilde(R) in the control.  There is no
    state-control cross term.

    The second-order term of tr(Q (I - g exp(hat(zeta)))) is
    zeta^T tilde(sym(Q g)) zeta / 2, and the rate term's 1/h^2 cancels
    against the h in its coordinate.  At the equilibrium both blocks are the
    tilde transforms of the weights, the chart Hessians of the design, as
    they are.  A stack of states, with g and f of shape (n, 3, 3), gives one
    state block per state.
    """
    blocks = _clip_negative(np.stack([
        tilde_transform(weights.attitude @ state.g), tilde_transform(weights.rate @ state.f)
    ]))
    q = np.zeros(state.g.shape[:-2] + (6, 6))
    q[..., :3, :3] = blocks[0]
    q[..., 3:, 3:] = blocks[1]
    return QuadraticCostData(q, tilde_transform(weights.torque))


def _clip_negative(m: np.ndarray) -> np.ndarray:
    """A stack of symmetric 3x3 matrices with each negative eigenvalue set to
    zero.  A matrix that Sylvester's criterion (positive leading minors)
    shows positive definite is returned as it is, without an
    eigendecomposition."""
    m00, m01, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
    minor = m00 * m11 - m01 * m01
    check = ~((m00 > 0.0) & (minor > 0.0) & (np.linalg.det(m) > 0.0))
    if check.any():
        values, vectors = np.linalg.eigh(m[check])
        if (values < 0.0).any():
            m = m.copy()
            m[check] = (vectors * np.maximum(values, 0.0)[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    return m


def terminal_hessian(p: np.ndarray, state: SpacecraftState, h: float) -> np.ndarray:
    """Gauss-Newton Hessian 2 C^T P C of the terminal cost xi^T P xi at
    ``state``, in the tangent coordinates of :func:`stage_hessians`.  C is
    the Jacobian of :func:`coordinates` there, blockdiag of the inverse right
    Jacobians of log_so3 at log g and at log f (the h of the rate coordinate
    cancels); it stays finite up to the branch cut."""
    xi = coordinates(state, h)
    chart = np.zeros((6, 6))
    chart[:3, :3] = inverse_right_jacobian(xi[:3])
    chart[3:, 3:] = inverse_right_jacobian(h * xi[3:])
    return 2.0 * (chart.T @ p @ chart)


def build_cost_data(weights: StageWeights) -> QuadraticCostData:
    """Quadratic cost blocks for the Riccati design: the
    :func:`stage_hessians` at the equilibrium, scaled by 1/decay."""
    scale = 1.0 / weights.decay
    q, r = (scale * block for block in stage_hessians(weights, SpacecraftState.identity()))
    try:
        check_spd(q, "state cost block")
        check_spd(r, "control cost block")
    except NotPositiveDefinite as err:
        raise NotPositiveDefinite(
            f"tilde transform lost positive-definiteness: {err}"
        ) from err
    return QuadraticCostData(q, r)


def _controllable(a: np.ndarray, b: np.ndarray) -> bool:
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks)) == n


def _riccati_map(p, lin: Linearization, cost: QuadraticCostData) -> np.ndarray:
    """One step of the Riccati difference equation,
    A^T P A + Q - A^T P B (B^T P B + R)^{-1} B^T P A."""
    a, b = lin
    q, r = cost
    apb = a.T @ p @ b
    return a.T @ p @ a + q - apb @ np.linalg.solve(b.T @ p @ b + r, apb.T)


def dare_residual(p, lin: Linearization, cost: QuadraticCostData) -> float:
    """Frobenius norm of the fixed-point defect of the Riccati equation."""
    return float(np.linalg.norm(_riccati_map(p, lin, cost) - p))


def solve_dare(lin: Linearization, cost: QuadraticCostData) -> np.ndarray:
    """Stabilizing solution of the discrete-time algebraic Riccati equation,
    by the structure-preserving doubling algorithm.

    Starts from A_0 = A, G_0 = B R^{-1} B^T and H_0 = Q.  Each doubling sets
    W = I + G_k H_k and

        A_{k+1} = A_k W^{-1} A_k,
        G_{k+1} = G_k + A_k W^{-1} G_k A_k^T,
        H_{k+1} = H_k + A_k^T H_k W^{-1} A_k,

    with G and H symmetrized.  H_k equals the Riccati difference equation's
    iterate after 2^k steps from P = 0, so it converges to P quadratically.
    Stops once successive H agree to ``_DARE_TOL`` in the Frobenius norm,
    then checks the residual against ``_DARE_RESIDUAL_TOL``.

    Raises:
        NotStabilizable: if the controllability matrix of (A, B) is rank
            deficient.
        NoConvergence: if ``_DARE_MAX_DOUBLINGS`` doublings do not converge
            or the residual check fails.
    """
    if not _controllable(*lin):
        raise NotStabilizable("(A, B) has a rank-deficient controllability matrix")
    a, b = lin
    g = b @ np.linalg.solve(cost.R_dare, b.T)
    h = cost.Q
    eye = np.eye(a.shape[0])
    for _ in range(_DARE_MAX_DOUBLINGS):
        w = eye + g @ h
        w_inv_a = np.linalg.solve(w, a)
        w_inv_g = np.linalg.solve(w, g)
        h_next = h + a.T @ h @ w_inv_a
        h_next = 0.5 * (h_next + h_next.T)
        g = g + a @ w_inv_g @ a.T
        g = 0.5 * (g + g.T)
        a = a @ w_inv_a
        gap = float(np.linalg.norm(h_next - h))
        h = h_next
        if gap < _DARE_TOL:
            break
    else:
        raise NoConvergence(f"Riccati doubling did not converge within {_DARE_MAX_DOUBLINGS} doublings")
    residual = dare_residual(h, lin, cost)
    if residual > _DARE_RESIDUAL_TOL:
        raise NoConvergence(f"Riccati residual {residual:.3e} exceeds {_DARE_RESIDUAL_TOL:.1e}")
    return h


def lqr_gain(p, lin: Linearization, cost: QuadraticCostData) -> np.ndarray:
    """Feedback gain K of the law u = -K x associated with the Riccati
    solution, computed as (B^T P B + R)^{-1} (A^T P B)^T."""
    a, b = lin
    _, r = cost
    inner = b.T @ p @ b + r
    try:
        check_spd(inner, "gain inner matrix")
    except NotPositiveDefinite as err:
        raise NotPositiveDefinite(f"gain inner matrix is singular: {err}") from err
    return np.linalg.solve(inner, (a.T @ p @ b).T)


def coordinates(state: SpacecraftState, h: float) -> np.ndarray:
    """Chart coordinates (rotation vector of g, rotation vector of f over h).

    A stack of states, with g and f of shape (n, 3, 3), gives one row of
    coordinates per state.  One state takes both logarithms in one pass
    (:func:`~so3mpc.so3._log_so3_pair`); either way the result equals
    ``concatenate([log_so3(g), log_so3(f) / h])`` bit for bit.
    """
    if state.g.ndim == 2:
        (z0, z1, z2), (w0, w1, w2) = _log_so3_pair(state.g, state.f)
        return np.array((z0, z1, z2, w0 / h, w1 / h, w2 / h))
    zeta = log_so3_rows(state.g)
    omega = log_so3_rows(state.f) / h
    return np.concatenate([zeta, omega], axis=-1)


def terminal_value(p: np.ndarray, xi: np.ndarray) -> float:
    """Terminal cost F = xi^T P xi at chart coordinates ``xi``; one value per
    row for a stack of coordinates.

    Stays a BLAS product: for six coordinates it is as fast as the
    component form, which also rounds differently.  One state calls
    ``ndarray.dot``, the same kernels as ``@`` with less dispatch.  A stack
    goes through matrix products whose summation order may differ, so its
    rows agree with the single values to about an ulp, not bit for bit.
    """
    if xi.ndim == 1:
        return float(xi.dot(p).dot(xi))
    v = xi @ p
    return (v[..., None, :] @ xi[..., :, None])[..., 0, 0]


def feedback(k: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Local law u = -K xi at chart coordinates ``xi``; one torque per row
    for a stack of coordinates."""
    return -(k @ xi[..., None])[..., 0]


@dataclass(frozen=True)
class TerminalDesign:
    """Everything the terminal cost, terminal set, and local law need.

    Plain data with JSON round trip; :func:`terminal_value` and
    :func:`feedback` evaluate the cost and the law from ``P`` and ``K``.
    """

    h: float
    inertia: np.ndarray
    weights: StageWeights
    P: np.ndarray
    K: np.ndarray
    c: float
    certification: Certification

    def to_json_dict(self) -> dict:
        return {
            "h": self.h,
            "J": self.inertia.tolist(),
            "Q_g": self.weights.attitude.tolist(),
            "Q_f": self.weights.rate.tolist(),
            "R": self.weights.torque.tolist(),
            "lambda": self.weights.decay,
            "P": [float(x) for x in self.P.reshape(36)],
            "K": [float(x) for x in self.K.reshape(18)],
            "c": self.c,
            "certification": {
                "n_samples": self.certification.n_samples,
                "max_violation": self.certification.max_violation,
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TerminalDesign":
        """Inverse of :meth:`to_json_dict`.  Raises
        :class:`~so3mpc.errors.DesignFileError` naming a missing key or an
        entry that does not convert or is out of range: ``h`` and ``c`` must
        be positive and finite, ``J`` and ``P`` symmetric positive definite,
        ``K`` finite and ``certification.n_samples`` at least 1."""
        try:
            weights = StageWeights(
                _design_entry(data, _matrix(3, 3), "Q_g"),
                _design_entry(data, _matrix(3, 3), "Q_f"),
                _design_entry(data, _matrix(3, 3), "R"),
                _design_entry(data, float, "lambda"),
            )
        except ValueError as err:
            raise DesignFileError(f"weights: {err}") from None
        cert = Certification(
            _design_entry(data, _sample_count, "certification", "n_samples"),
            _design_entry(data, float, "certification", "max_violation"),
        )
        return cls(
            h=_design_entry(data, _positive, "h"),
            inertia=_design_entry(data, _spd_matrix(3), "J"),
            weights=weights,
            P=_design_entry(data, _spd_matrix(6), "P"),
            K=_design_entry(data, _finite_matrix(3, 6), "K"),
            c=_design_entry(data, _positive, "c"),
            certification=cert,
        )

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "TerminalDesign":
        """Read a file written by :meth:`save`.  Raises
        :class:`~so3mpc.errors.DesignFileError` naming the file when it is
        not valid JSON or does not hold a valid design."""
        with open(path) as handle:
            try:
                data = json.load(handle)
            except ValueError as err:
                raise DesignFileError(f"{path}: invalid JSON: {err}") from None
        try:
            return cls.from_json_dict(data)
        except So3MpcError as err:
            raise DesignFileError(f"{path}: {err}") from None


def _matrix(*shape):
    """Converter of a nested list to a float array of ``shape``."""
    return lambda value: np.asarray(value, dtype=float).reshape(shape)


def _finite_matrix(*shape):
    """:func:`_matrix` that rejects a NaN or infinite entry."""

    def convert(value):
        arr = _matrix(*shape)(value)
        if not np.isfinite(arr).all():
            raise ValueError("must be finite")
        return arr

    return convert


def _spd_matrix(n):
    """:func:`_finite_matrix` of shape (n, n) that rejects a matrix that is
    not symmetric positive definite."""

    def convert(value):
        try:
            return check_spd(_finite_matrix(n, n)(value), "matrix")
        except NotPositiveDefinite as err:
            raise ValueError(f"must be symmetric positive definite: {err}") from None

    return convert


def _positive(value) -> float:
    number = float(value)
    if not 0.0 < number < np.inf:
        raise ValueError(f"must be positive and finite, got {number}")
    return number


def _sample_count(value) -> int:
    number = int(value)
    if number < 1:
        raise ValueError(f"must be at least 1, got {number}")
    return number


def _design_entry(data, convert, *keys):
    """``convert(data[keys[0]][keys[1]]...)``, or a DesignFileError naming the
    dotted key when it is missing or does not convert."""
    name = ".".join(keys)
    value = data
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            raise DesignFileError(f"missing key {name!r}")
        value = value[key]
    try:
        return convert(value)
    except (TypeError, ValueError) as err:
        raise DesignFileError(f"key {name!r}: {err}") from None


def _ellipsoid_samples(p: np.ndarray, n_samples: int, rng: np.random.Generator):
    """Unit-level samples: directions on the ellipsoid {x^T P x = 1}, half of
    them pulled inside with volume-uniform radii.  Scaling by sqrt(c) turns
    them into samples of the level-c set."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    evals, evecs = np.linalg.eigh(p)
    p_inv_half = (evecs / np.sqrt(evals)) @ evecs.T
    directions = rng.standard_normal((n_samples, 6))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = np.ones(n_samples)
    interior = n_samples // 2
    radii[:interior] = rng.uniform(0.0, 1.0, interior) ** (1.0 / 6.0)
    return (radii[:, None] * directions) @ p_inv_half.T


def _level_ceiling(design_p: np.ndarray, h: float) -> float:
    """Largest level whose ellipsoid {xi^T P xi <= c} stays inside the chart.

    On the ellipsoid |xi| <= sqrt(c / lambda_min(P)); keeping that below
    min(pi, pi/h) keeps both the attitude vector and h times the rate vector
    shorter than pi, where exp_so3 and log_so3 are mutually inverse.
    """
    lam_min = float(np.linalg.eigvalsh(design_p)[0])
    chart_radius = min(np.pi, np.pi / h) * (1.0 - 1e-9)
    return lam_min * chart_radius**2


def evaluate_level(
    design_p: np.ndarray,
    design_k: np.ndarray,
    weights: StageWeights,
    h: float,
    inertia,
    torque_bound: float,
    level: float,
    unit_samples: np.ndarray,
) -> dict:
    """Worst margins of the three local-law conditions over scaled samples.

    Returns a dict with the worst torque-bound excess, the worst terminal
    excess of the successor, and the worst decrease defect
    F(x+) - F(x) + L(x, u).  All are violations: negative or tiny values mean
    the condition holds.  Every sample is evaluated at once, as array
    operations along the sample axis.  A sample whose step is unsolvable
    makes the terminal excess infinite; the other two margins are then
    taken over the samples whose step is solvable.

    Raises :class:`~so3mpc.errors.OutOfChart` for a level above
    :func:`_level_ceiling`: samples past the chart would be wrapped by the
    exponential map and report the margins of other states.
    """
    ceiling = _level_ceiling(design_p, h)
    if level > ceiling:
        raise OutOfChart(
            f"level {level:.6g} exceeds the chart ceiling {ceiling:.6g} of the terminal ellipsoid"
        )
    xi = np.sqrt(level) * unit_samples
    state = SpacecraftState(exp_so3_rows(xi[:, :3]), exp_so3_rows(h * xi[:, 3:]))
    coords = coordinates(state, h)
    torque = feedback(design_k, coords)
    successor, margins = _step_rows(state, torque, h, inertia)
    worst_invariance = -np.inf
    solvable = margins >= 0.0
    if not solvable.all():
        # An unsolvable step is a hard violation of the invariance condition;
        # the other margins are taken over the samples that can be stepped.
        worst_invariance = np.inf
        state, successor = (SpacecraftState(x.g[solvable], x.f[solvable]) for x in (state, successor))
        coords, torque = coords[solvable], torque[solvable]
    succ_value = terminal_value(design_p, coordinates(successor, h))
    value = terminal_value(design_p, coords)
    stage = weights.stage_cost(state, torque, h)
    worst_torque = float(np.max(np.abs(torque), initial=-np.inf)) - torque_bound
    worst_invariance = max(worst_invariance, float(np.max(succ_value, initial=-np.inf)) - level)
    worst_decrease = float(np.max(succ_value - value + stage, initial=-np.inf))
    return {
        "torque": worst_torque,
        "invariance": worst_invariance,
        "decrease": worst_decrease,
        "passed": (
            worst_torque <= 0.0
            and worst_invariance <= 0.0
            and worst_decrease <= DECREASE_SLACK
        ),
    }


def calibrate_level(
    design_p: np.ndarray,
    design_k: np.ndarray,
    weights: StageWeights,
    h: float,
    inertia,
    torque_bound: float,
    n_samples: int = DEFAULT_TERMINAL_SAMPLES,
    shrink: float = DEFAULT_TERMINAL_SHRINK,
    seed: int = 0,
) -> tuple[float, Certification]:
    """Largest certified level of the terminal ellipsoid.

    Bisects a logarithmic grid between ``_LEVEL_FLOOR`` and the largest level
    that stays inside the coordinate chart, certifying each candidate on the
    same pre-drawn sample directions, then applies the safety ``shrink`` and
    re-certifies at the returned level.

    Raises :class:`~so3mpc.errors.NoFeasibleLevel` when even the smallest
    grid level fails, and ``ValueError`` when ``n_samples`` is below 1: with
    no samples every level would pass vacuously.
    """
    rng = np.random.default_rng(seed)
    unit_samples = _ellipsoid_samples(design_p, n_samples, rng)
    grid = np.geomspace(_LEVEL_FLOOR, _level_ceiling(design_p, h), _GRID_POINTS)

    def passes(level: float) -> bool:
        report = evaluate_level(
            design_p, design_k, weights, h, inertia, torque_bound,
            level, unit_samples,
        )
        return report["passed"]

    if not passes(grid[0]):
        raise NoFeasibleLevel(
            f"no terminal level down to {_LEVEL_FLOOR:.1e} passes certification"
        )
    lo, hi = 0, len(grid) - 1
    if passes(grid[hi]):
        lo = hi
    else:
        # Largest passing index, assuming violations grow with the level.
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if passes(grid[mid]):
                lo = mid
            else:
                hi = mid
    level = float(grid[lo] * shrink)
    final = evaluate_level(
        design_p, design_k, weights, h, inertia, torque_bound,
        level, unit_samples,
    )
    if not final["passed"]:
        raise NoFeasibleLevel("shrunken level failed re-certification")
    max_violation = max(final["torque"], final["invariance"], final["decrease"])
    return level, Certification(n_samples, float(max_violation))


def design_terminal(
    inertia,
    h: float,
    weights: StageWeights,
    torque_bound: float = DEFAULT_TORQUE_BOUND,
    n_samples: int = DEFAULT_TERMINAL_SAMPLES,
    shrink: float = DEFAULT_TERMINAL_SHRINK,
    seed: int = 0,
) -> TerminalDesign:
    """Run the full terminal design pipeline and return the result."""
    inertia = check_spd(inertia, "inertia")
    lin = build_linearization(h, inertia)
    cost = build_cost_data(weights)
    p = solve_dare(lin, cost)
    k = lqr_gain(p, lin, cost)
    level, certification = calibrate_level(
        p, k, weights, h, inertia, torque_bound,
        n_samples=n_samples, shrink=shrink, seed=seed,
    )
    return TerminalDesign(
        h=float(h), inertia=inertia, weights=weights,
        P=p, K=k, c=level, certification=certification,
    )
