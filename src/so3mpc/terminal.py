"""Terminal cost, local feedback law, and terminal-set calibration.

The pipeline linearizes the attitude dynamics in exponential coordinates,
turns the trace-form stage cost into a quadratic form through the tilde
transform, solves a discrete-time algebraic Riccati equation for the
terminal weight, extracts the feedback gain, and then calibrates the
ellipsoid level of the local law.  The level starts at the smaller of two
closed-form ceilings, the chart's and the torque bound's; the two
conditions without a closed form, that the nonlinear closed loop stays
inside the set and decreases the terminal cost by at least the stage cost,
are checked on dense samples, and only if they fail there is the level
bisected down.
"""

from __future__ import annotations

import json
import struct
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
from .lgvi import SOLVABILITY_FLOOR, SpacecraftState, _step_rows, step_jacobians
from .so3 import _log_so3_pair, exp_so3_rows, inverse_right_jacobian, log_so3_rows
from .validation import as_fraction, as_integer, as_matrix, as_number, as_parameter, as_positive, check_spd

_EYE3 = np.eye(3)
_pack6 = struct.Struct("6d").pack

# Fixed tolerances of the design: the Riccati doubling's stop, cap (64
# doublings stand for 2^64 Riccati steps) and residual bound; the lowest
# level and the relative width at which the level bisection stops; and the
# slack of the decrease condition F(x+) - F(x) + L(x, u) <= DECREASE_SLACK.
_DARE_TOL = 1e-12
_DARE_MAX_DOUBLINGS = 64
_DARE_RESIDUAL_TOL = 1e-8
_LEVEL_FLOOR = 1e-8
_LEVEL_RTOL = 1e-3
DECREASE_SLACK = 1e-10
# Largest difference, relative to the largest entry, between the P or K of a
# design file and those recomputed from its h, J and weights.  At the
# reference design a fixed-point and a Schur-method Riccati solve agree with
# the doubling to 2e-15 and 7e-14.
RECOMPUTE_RTOL = 1e-9

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
    factor splitting the stage cost from the terminal design.

    ``torque_hessian`` is tilde(R), the Hessian of the stage cost in the
    torque, computed once per weight set as a read-only array."""

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
        # the torque Hessian tilde(R), read-only, the stacked (Q_g, Q_f)
        # that stage_derivatives multiplies the (g, f) pairs by, the traces,
        # and the entries of Q_g, Q_f and tilde(R), row by row, as one flat
        # tuple of Python floats.
        torque_hessian = tilde_transform(self.torque)
        torque_hessian.flags.writeable = False
        object.__setattr__(self, "torque_hessian", torque_hessian)
        object.__setattr__(self, "_state_weights", np.stack([self.attitude, self.rate]))
        object.__setattr__(
            self, "_traces", (float(np.trace(self.attitude)), float(np.trace(self.rate)))
        )
        object.__setattr__(
            self,
            "_weight_entries",
            tuple(np.concatenate([self.attitude, self.rate, torque_hessian]).ravel().tolist()),
        )

    def stage_cost(self, state: SpacecraftState, torque, h: float) -> float:
        """Trace-form running cost of one step:
        tr(Q_g (I - g)) + tr(Q_f (I - f)) / h^2 + u^T (tr(R) I - R) u / 2.

        The one stage-cost formula, in components: every entry is a Python
        float for one state, or an array with one element per row for a
        stack of states and torques, which gives one cost per row.  Only
        elementwise + - * / appear, which round alike on both, so a row's
        cost equals the single state's bit for bit.  A ``list`` torque is
        taken as a ready row of three Python floats, as the solver's
        predictions pass it, and is not converted.
        """
        u = torque
        if type(u) is not list:
            torque = np.asarray(torque, dtype=float)
            u = torque.tolist() if torque.ndim == 1 else torque.T
        g, f = state.entries
        (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = g
        (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = f
        u0, u1, u2 = u
        (
            a00, a01, a02, a10, a11, a12, a20, a21, a22,
            q00, q01, q02, q10, q11, q12, q20, q21, q22,
            t00, t01, t02, t10, t11, t12, t20, t21, t22,
        ) = self._weight_entries
        trace_att, trace_rate = self._traces
        # tr(Q_g g), tr(Q_f f) and u^T tilde(R) u.
        att = (
            (a00 * g00 + a01 * g10 + a02 * g20)
            + (a10 * g01 + a11 * g11 + a12 * g21)
            + (a20 * g02 + a21 * g12 + a22 * g22)
        )
        rate = (
            (q00 * f00 + q01 * f10 + q02 * f20)
            + (q10 * f01 + q11 * f11 + q12 * f21)
            + (q20 * f02 + q21 * f12 + q22 * f22)
        )
        quad = (
            u0 * (t00 * u0 + t01 * u1 + t02 * u2)
            + u1 * (t10 * u0 + t11 * u1 + t12 * u2)
            + u2 * (t20 * u0 + t21 * u1 + t22 * u2)
        )
        return (trace_att - att) + (trace_rate - rate) / (h * h) + 0.5 * quad


def default_weights(inertia) -> StageWeights:
    """Identity attitude weight, inertia-matched rate weight, 2I torque
    weight and decay 0.1.  An inertia that is not symmetric positive-definite
    raises :class:`~so3mpc.errors.NotPositiveDefinite` naming it."""
    return StageWeights(
        DEFAULT_ATTITUDE_WEIGHT * _EYE3,
        check_spd(inertia, "inertia"),
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
    sym = 0.5 * (m + m.swapaxes(-1, -2))
    return sym.trace(axis1=-2, axis2=-1)[..., None, None] * _EYE3 - sym


def build_linearization(h: float, inertia) -> Linearization:
    """The design's (A, B): :func:`~so3mpc.lgvi.step_jacobians` of the
    step from rest to rest, the stack (I, I) of increments, at the
    equilibrium: the exact Jacobian of the implicit integrator step there,
    which the terminal decrease condition on the nonlinear dynamics needs.

    It has the double-integrator structure of exponential coordinates: the
    rotation vector integrates the rate, and the torque enters the rate row
    through h times the inverse of trace(J) I - J.  Raises
    :class:`~so3mpc.errors.NotStabilizable` when that matrix is singular in
    floating point or an entry overflows (an inertia entry of 1e300, say),
    and ``ValueError`` naming ``h`` when the step is not a positive finite
    number.
    """
    h = as_parameter("h", h, as_positive, False)
    try:
        with np.errstate(over="raise", invalid="raise"):
            a, b = step_jacobians(np.stack([_EYE3, _EYE3]), h, inertia)
            return Linearization(a[0], b[0])
    except (FloatingPointError, np.linalg.LinAlgError) as err:
        raise NotStabilizable(f"no torque-to-rate map at the equilibrium: {err}") from None


def stage_derivatives(weights: StageWeights, pairs: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the trace-form stage cost in the state, in
    the tangent coordinates g exp(hat(zeta)), f exp(h hat(omega)) of
    :func:`~so3mpc.lgvi.step_jacobians`, at the states whose (g, f) are
    ``pairs``: shape (2, 3, 3) for one state (``np.asarray`` of it), or
    (n, 2, 3, 3) for n states, which give one row and one (6, 6) block per
    state.  Both come from one product of the weights with the pairs,
    M = (Q_g g, Q_f f).

    The gradient is (2 vee(skew(Q_g g)), 2 vee(skew(Q_f f)) / h), and the
    Hessian blockdiag(tilde(sym(Q_g g)), tilde(sym(Q_f f))), each block with
    its negative eigenvalues set to zero.  The first-order term of
    tr(Q (I - g exp(hat(zeta)))) is -tr(Q g hat(zeta)) =
    2 vee(skew(Q g)) . zeta and its second-order term
    zeta^T tilde(sym(Q g)) zeta / 2; the rate term's 1/h^2 meets the h in
    its coordinate once in the gradient and cancels against it in the
    Hessian.  At the equilibrium the gradient is zero and the Hessian is
    blockdiag(tilde(Q_g), tilde(Q_f)), the chart Hessian of the design
    (:func:`build_cost_data`).  The torque part of the cost is the quadratic
    u^T tilde(R) u / 2, whose Hessian is ``weights.torque_hessian`` and
    whose gradient that times u; there is no state-control cross term.
    """
    products = weights._state_weights @ pairs
    # 2 vee(skew(M)) = (M_21 - M_12, M_02 - M_20, M_10 - M_01).
    gradient = (products - products.swapaxes(-1, -2))[..., (2, 0, 1), (1, 2, 0)]
    gradient[..., 1, :] /= h
    blocks = _clip_negative(tilde_transform(products))
    return gradient.reshape(gradient.shape[:-2] + (6,)), _block_diagonal(blocks[..., 0, :, :], blocks[..., 1, :, :])


def _block_diagonal(attitude: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """blockdiag(attitude, rate) of two 3x3 blocks, or of two stacks."""
    q = np.zeros(attitude.shape[:-2] + (6, 6))
    q[..., :3, :3] = attitude
    q[..., 3:, 3:] = rate
    return q


def _clip_negative(m: np.ndarray) -> np.ndarray:
    """A stack of symmetric 3x3 matrices with each negative eigenvalue set to
    zero.  A stack that has a Cholesky factor, every matrix positive
    definite, is returned as it is, without an eigendecomposition; otherwise
    the matrices with a negative eigenvalue are rebuilt from theirs."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        values, vectors = np.linalg.eigh(m)
        negative = (values < 0.0).any(axis=-1)
        values, vectors = np.maximum(values[negative], 0.0), vectors[negative]
        m = m.copy()
        m[negative] = (vectors * values[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    return m


def terminal_derivatives(p: np.ndarray, state: SpacecraftState, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient 2 C^T P xi and Gauss-Newton Hessian 2 C^T P C of the terminal
    cost xi^T P xi at ``state``, in the tangent coordinates of
    :func:`stage_derivatives`, from the chart coordinates xi, which a state
    built from entries keeps once its terminal cost has run
    (:func:`coordinates`), and one evaluation of C.  C is the Jacobian of
    :func:`coordinates` there, blockdiag of the inverse right Jacobians of
    log_so3 at log g and at log f (the h of the rate coordinate cancels); it
    stays finite up to the branch cut."""
    xi = coordinates(state, h)
    chart = np.zeros((6, 6))
    chart[:3, :3] = inverse_right_jacobian(xi[:3])
    chart[3:, 3:] = inverse_right_jacobian(h * xi[3:])
    return 2.0 * (chart.T @ (p @ xi)), 2.0 * (chart.T @ p @ chart)


def build_cost_data(weights: StageWeights) -> QuadraticCostData:
    """Quadratic cost blocks for the Riccati design: the stage cost's
    Hessians at the equilibrium, blockdiag(tilde(Q_g), tilde(Q_f)) in the
    state (:func:`stage_derivatives` there) and tilde(R) in the torque,
    scaled by 1/decay."""
    scale = 1.0 / weights.decay
    q = scale * _block_diagonal(tilde_transform(weights.attitude), tilde_transform(weights.rate))
    r = scale * weights.torque_hessian
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
        NoConvergence: if ``_DARE_MAX_DOUBLINGS`` doublings do not converge,
            the residual check fails, or an entry overflows or a solve meets
            a singular matrix on the way (an extreme but finite step or
            inertia, say); the overflow raises instead of warning.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            if not _controllable(*lin):
                raise NotStabilizable("(A, B) has a rank-deficient controllability matrix")
            a, b = lin
            g = b @ np.linalg.solve(cost.R_dare, b.T)
            h = cost.Q
            n = a.shape[0]
            eye = np.eye(n)
            for _ in range(_DARE_MAX_DOUBLINGS):
                # W^{-1} A_k and W^{-1} G_k from one factorization of W.
                w_inv = np.linalg.solve(eye + g @ h, np.concatenate([a, g], axis=1))
                w_inv_a, w_inv_g = w_inv[:, :n], w_inv[:, n:]
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
    except (FloatingPointError, np.linalg.LinAlgError) as err:
        raise NoConvergence(f"Riccati solve broke down: {err}") from None
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
    coordinates per state.  Both take the two logarithms in one pass: one
    state from its entries (:func:`~so3mpc.so3._log_so3_pair`), a stack in
    one :func:`~so3mpc.so3.log_so3_rows` call over g and f stacked together.
    Either way the result equals ``concatenate([log_so3(g), log_so3(f) / h])``
    bit for bit.

    One state's coordinates are a read-only array.  A state built from
    entries keeps them with ``h`` (see :class:`~so3mpc.lgvi.SpacecraftState`),
    and a later call at the same ``h`` returns the kept array without taking
    a logarithm: a model built along a rollout reads the coordinates of its
    terminal cost, and a prediction that repeats another reads those of the
    first.  A stack's coordinates are a new writable array on every call.
    """
    kept = state._coordinates
    if kept is not None and kept[0] == h:
        return kept[1]
    g, f = state.entries
    if not isinstance(g, np.ndarray):
        (z0, z1, z2), (w0, w1, w2) = _log_so3_pair(g, f)
        # An array over the bytes of the packed floats is read-only, and
        # faster to build than np.array of them.
        xi = np.frombuffer(_pack6(z0, z1, z2, w0 / h, w1 / h, w2 / h))
        if state._rows is not None:
            state._coordinates = (h, xi)
        return xi
    n = len(state.g)
    logs = log_so3_rows(np.concatenate([state.g, state.f]))
    return np.concatenate([logs[:n], logs[n:] / h], axis=-1)


def terminal_value(p: np.ndarray, xi: np.ndarray) -> float:
    """Terminal cost F = xi^T P xi at chart coordinates ``xi``; one value per
    row for a stack of coordinates, shape (n, 6).

    Stays a BLAS product: for six coordinates it is as fast as the
    component form, which also rounds differently.  One state calls
    ``ndarray.dot``, the same kernels as ``@`` with less dispatch.  A stack
    takes one product ``xi @ P`` and one ``einsum`` of its rows with those
    of ``xi``, whose summation order may differ from the single form's, so
    its rows agree with the single values to about an ulp, not bit for bit.
    """
    if xi.ndim == 1:
        return float(xi.dot(p).dot(xi))
    return np.einsum("ij,ij->i", xi @ p, xi)


def feedback(k: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Local law u = -K xi at chart coordinates ``xi``; one torque per row
    for a stack of coordinates, shape (n, 6).

    One product ``-(xi @ K^T)`` for both.  For one state it equals
    ``-(K @ xi)`` bit for bit; a stack's rows agree with the single torques
    to round-off, as the matrix product may sum in another order.
    """
    return -(xi @ k.T)


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
        """Inverse of :meth:`to_json_dict`.  Entries convert as in the
        configuration (:mod:`~so3mpc.validation`); ``P`` and ``K`` must match
        the design recomputed from h, J and the weights to ``RECOMPUTE_RTOL``
        (the file's values are kept), and ``c`` must lie at or below
        :func:`_level_ceiling`.  Anything else raises
        :class:`~so3mpc.errors.DesignFileError` naming the key."""
        try:
            weights = StageWeights(
                _design_entry(data, "Q_g", as_matrix, (3, 3), True),
                _design_entry(data, "Q_f", as_matrix, (3, 3), True),
                _design_entry(data, "R", as_matrix, (3, 3), True),
                _design_entry(data, "lambda", as_positive, False),
            )
        except ValueError as err:
            raise DesignFileError(f"weights: {err}") from None
        cert = Certification(
            _design_entry(data, "certification.n_samples", as_integer, 1),
            _design_entry(data, "certification.max_violation", as_number),
        )
        h = _design_entry(data, "h", as_positive, False)
        inertia = _design_entry(data, "J", as_matrix, (3, 3), True)
        lin = build_linearization(h, inertia)
        cost = build_cost_data(weights)
        p = solve_dare(lin, cost)
        design_p = _design_entry(data, "P", _recomputed, p)
        design_k = _design_entry(data, "K", _recomputed, lqr_gain(p, lin, cost))
        c = _design_entry(data, "c", as_positive, False)
        ceiling = _level_ceiling(design_p, h)
        if c > ceiling:
            raise DesignFileError(f"key 'c': {c} exceeds the chart ceiling {ceiling:.6g} of the terminal ellipsoid")
        return cls(h=h, inertia=inertia, weights=weights, P=design_p, K=design_k, c=c, certification=cert)

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "TerminalDesign":
        """Read a file written by :meth:`save`.  Raises
        :class:`~so3mpc.errors.DesignFileError` naming the file when it
        cannot be read (missing, a directory, not readable), is not valid
        JSON or does not hold a valid design."""
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as err:
            raise DesignFileError(f"{path}: cannot read: {err.strerror}") from None
        except ValueError as err:
            raise DesignFileError(f"{path}: invalid JSON: {err}") from None
        try:
            return cls.from_json_dict(data)
        except So3MpcError as err:
            raise DesignFileError(f"{path}: {err}") from None


def _recomputed(value, recomputed: np.ndarray) -> np.ndarray:
    """``value``, a flat list as :meth:`TerminalDesign.to_json_dict` writes
    it, as a matrix within ``RECOMPUTE_RTOL`` of ``recomputed``; NaN fails."""
    stored = as_matrix(value, (recomputed.size,), False).reshape(recomputed.shape)
    gap = float(np.max(np.abs(stored - recomputed)) / np.max(np.abs(recomputed)))
    if not gap <= RECOMPUTE_RTOL:
        raise ValueError(f"differs by {gap:.3e} relative from the value recomputed from h, J and the weights")
    return stored


def _design_entry(data, key: str, convert, *args):
    """``convert(value, *args)`` of the entry at the dotted ``key`` of
    ``data``, or a DesignFileError naming the key when it is missing or does
    not convert."""
    value = data
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise DesignFileError(f"missing key {key!r}")
        value = value[part]
    try:
        return convert(value, *args)
    except ValueError as err:
        raise DesignFileError(f"key {key!r}: {err}") from None


def _ellipsoid_samples(p: np.ndarray, n_samples: int, rng: np.random.Generator):
    """Unit-level samples: directions on the ellipsoid {x^T P x = 1}, half of
    them pulled inside with volume-uniform radii.  Scaling by sqrt(c) turns
    them into samples of the level-c set."""
    evals, evecs = np.linalg.eigh(p)
    p_inv_half = (evecs / np.sqrt(evals)) @ evecs.T
    directions = rng.standard_normal((n_samples, 6))
    directions /= np.sqrt(np.einsum("ij,ij->i", directions, directions))[:, None]
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


def _torque_gain(design_p: np.ndarray, design_k: np.ndarray) -> float:
    """max_i K_i P^-1 K_i^T, the square of the largest torque component that
    the law u = -K xi asks for on the unit ellipsoid {xi^T P xi <= 1}: the
    maximum of K_i xi there is sqrt(K_i P^-1 K_i^T), at xi proportional to
    P^-1 K_i^T.  On the level-c ellipsoid the largest component is
    sqrt(c * gain), so the torque bound holds exactly up to
    c = tau^2 / gain."""
    return float(np.max(np.einsum("ij,ji->i", design_k, np.linalg.solve(design_p, design_k.T))))


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
    """Worst margins of the three local-law conditions at ``level``.

    Returns a dict with the torque-bound excess, the worst terminal excess
    of the successor, and the worst decrease defect F(x+) - F(x) + L(x, u).
    All are violations: negative or tiny values mean the condition holds.
    The torque excess is exact, sqrt(level * max_i K_i P^-1 K_i^T) - tau
    (:func:`_torque_gain`); the other two are taken over the scaled samples,
    all evaluated at once as array operations along the sample axis: one
    :func:`~so3mpc.so3.exp_so3_rows` call maps the attitude and rate halves
    of every sample to its state, and the chart coordinates, the law, the
    stacked step, the terminal values and the stage costs each act on the
    whole stack.  A sample whose step margin falls below
    :data:`~so3mpc.lgvi.SOLVABILITY_FLOOR`, the solver's domain, makes the
    terminal excess infinite; the decrease defect is then taken over the
    samples whose step lies inside it.  So a certified level's local-law
    step is one that the solver's predictions may take.

    The logarithms, the step and the stage cost equal their single-state
    forms bit for bit; the exponentials, the law and the terminal values
    agree with theirs to round-off (see README, *Numerical conventions*).

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
    n = len(xi)
    rotations = exp_so3_rows(np.concatenate([xi[:, :3], h * xi[:, 3:]]))
    state = SpacecraftState(rotations[:n], rotations[n:])
    coords = coordinates(state, h)
    torque = feedback(design_k, coords)
    successor, margins = _step_rows(state, torque, h, inertia)
    worst_invariance = -np.inf
    solvable = margins >= SOLVABILITY_FLOOR
    if not solvable.all():
        # A step outside the domain is a hard violation of the invariance
        # condition; the other margins are taken over the samples inside it.
        worst_invariance = np.inf
        state, successor = (SpacecraftState(x.g[solvable], x.f[solvable]) for x in (state, successor))
        coords, torque = coords[solvable], torque[solvable]
    succ_value = terminal_value(design_p, coordinates(successor, h))
    value = terminal_value(design_p, coords)
    stage = weights.stage_cost(state, torque, h)
    worst_torque = float(np.sqrt(level * _torque_gain(design_p, design_k))) - torque_bound
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
    n_samples: int,
    shrink: float,
    seed: int,
) -> tuple[float, Certification]:
    """Largest certified level of the terminal ellipsoid.

    Starts at the smaller of the chart ceiling (:func:`_level_ceiling`) and
    the torque ceiling tau^2 / max_i K_i P^-1 K_i^T (:func:`_torque_gain`),
    both less a round-off margin, and checks it on pre-drawn samples.  Only
    if invariance or decrease fails there, bisects between ``_LEVEL_FLOOR``
    and it to ``_LEVEL_RTOL`` relative on the same samples.  Then applies the
    safety ``shrink`` and re-certifies at the returned level.

    Raises :class:`~so3mpc.errors.NoFeasibleLevel` when no level down to
    ``_LEVEL_FLOOR`` passes, and ``ValueError`` naming the argument when
    ``torque_bound`` is not positive (+inf allowed), ``n_samples`` not an
    integer of at least 1 (with no samples every level would pass
    vacuously), ``shrink`` not in (0, 1] or ``seed`` not an integer of at
    least 0 (``None`` would draw a level that no run reproduces).
    """
    torque_bound = as_parameter("torque_bound", torque_bound, as_positive, True)
    n_samples = as_parameter("n_samples", n_samples, as_integer, 1)
    shrink = as_parameter("shrink", shrink, as_fraction)
    seed = as_parameter("seed", seed, as_integer, 0)
    unit_samples = _ellipsoid_samples(design_p, n_samples, np.random.default_rng(seed))

    def report(level: float) -> dict:
        return evaluate_level(design_p, design_k, weights, h, inertia, torque_bound, level, unit_samples)

    torque_ceiling = torque_bound**2 / _torque_gain(design_p, design_k) * (1.0 - 1e-9)
    level = min(_level_ceiling(design_p, h), torque_ceiling)
    if level < _LEVEL_FLOOR or not report(level)["passed"]:
        if not report(_LEVEL_FLOOR)["passed"]:
            raise NoFeasibleLevel(f"no terminal level down to {_LEVEL_FLOOR:.1e} passes certification")
        lo, hi = _LEVEL_FLOOR, level
        # Largest passing level, assuming violations grow with the level.
        while hi - lo > _LEVEL_RTOL * lo:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if report(mid)["passed"] else (lo, mid)
        level = lo
    level = float(level * shrink)
    final = report(level)
    if not final["passed"]:
        raise NoFeasibleLevel("shrunken level failed re-certification")
    return level, Certification(n_samples, max(final["torque"], final["invariance"], final["decrease"]))


def design_terminal(
    inertia,
    h: float,
    weights: StageWeights,
    torque_bound: float = DEFAULT_TORQUE_BOUND,
    n_samples: int = DEFAULT_TERMINAL_SAMPLES,
    shrink: float = DEFAULT_TERMINAL_SHRINK,
    seed: int = 0,
) -> TerminalDesign:
    """Run the full terminal design pipeline and return the result.  The
    step ``h`` must be a positive finite number, or ``ValueError`` names
    it."""
    inertia = check_spd(inertia, "inertia")
    h = as_parameter("h", h, as_positive, False)
    lin = build_linearization(h, inertia)
    cost = build_cost_data(weights)
    p = solve_dare(lin, cost)
    k = lqr_gain(p, lin, cost)
    level, certification = calibrate_level(
        p, k, weights, h, inertia, torque_bound,
        n_samples=n_samples, shrink=shrink, seed=seed,
    )
    return TerminalDesign(
        h=h, inertia=inertia, weights=weights,
        P=p, K=k, c=level, certification=certification,
    )
