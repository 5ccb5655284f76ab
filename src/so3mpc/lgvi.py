"""Variational integrator for rigid-body attitude on SO(3).

The state is the pair (g, f): the attitude and the one-step attitude
increment, both rotation matrices.  The attitude update is explicit,
``g_next = g f``; the increment update is implicit and is resolved by
Newton iteration on the Cayley vector of the increment, a 3-vector, so the
new increment is a rotation by construction.  Both updates keep the state on
the group to round-off, which is what makes long prediction rollouts
trustworthy inside an optimizer.  Newton starts at the second fixed-point
iterate of the implicit update, one past its linearized root
(:func:`_start`), from which a small momentum stops after one update.  A
step may be handed a state near its successor to start that iteration
from instead: the optimizer's perturbed finite-difference rollouts pass
the unperturbed rollout's.  The first update from such a start is a chord
update, the Newton update with the inverse Jacobian at the start state in
place of the one at the iterate; that state keeps the inverse, so the tail
steps handed it share one.  A state the step built also keeps its last
step taken without a start
(:class:`SpacecraftState`), and a repeat of that step returns the kept
successor without solving.  ``tests/test_reference_runs.py`` counts, on
each reference closed loop, the kernel calls, the implicit solves they
run, the tail steps handed a start value with their updates, and the
Newton updates of the solves handed none.

One step runs on Python floats: the entries of g, f and the torque go in,
and the successor comes out as the entries of g f, summed in component
order, the entries of the new increment and the Cayley vector they came
from.  A state built from arrays is read through its entries, and a state
the step built makes its arrays on first use; the solver's predictions pass
the torque as a list of floats, and other callers as an array, converted
per step.  So the public functions on arrays and the solver's predictions
run the same kernel.  The terminal certificate steps stacks of states
through the same component formulas on arrays (:func:`_step_rows`).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NoConvergence, NotSolvable
from .so3 import exp_so3, hat, log_so3
from .validation import as_parameter, as_positive, check_controls, check_rotation, check_spd, check_vector3

_EYE3 = np.eye(3)

# Newton on the Cayley vector of the increment: the step size at which it
# stops, and the iteration cap.  From the second-order start, quadratic
# convergence takes 1-4 iterations on the solvable set (criterion 3's draws)
# and one on the certificate's samples; the linear convergence at margin
# zero takes about 20.
_NEWTON_STEP_TOL = 1e-6
_NEWTON_MAX_ITERS = 50

# The solvability gate.  LAPACK's smallest eigenvalue of J^2 + M^2/4 (the
# margin) is computed only where a certified lower bound on it falls below
# MARGIN_CUTOFF.  Every threshold the margin is compared with (zero, and
# SOLVABILITY_FLOOR, which must lie below the cutoff) is then compared with
# LAPACK's value.  _MARGIN_ALLOWANCE, relative to |J|^2 + |m|^2/4, covers
# the round-off of the bound and of LAPACK's eigenvalue: it is about 450
# ulps of that scale, where LAPACK's error on these 3x3 matrices is a few.
MARGIN_CUTOFF = 1e-2
_MARGIN_ALLOWANCE = 1e-13
# Smallest margin of a step inside the solver's domain: the attitude system
# reports a predicted step below it as unsolvable, and the terminal-set
# certificate counts a sample below it as a failed step.
SOLVABILITY_FLOOR = 1e-6

DEFAULT_INERTIA = np.diag([1.0, 1.2, 1.5])
DEFAULT_STEP_SECONDS = 0.1


class SpacecraftState:
    """Attitude ``g`` and one-step increment ``f``, both in SO(3).

    Built from two arrays: shape (3, 3) for one state, or (n, 3, 3) for a
    stack of them.  The integrator builds its successors from entries
    instead (:func:`_state_of`): the rows of g and f as Python floats, and
    the Cayley vector of f.  Such a state makes its arrays on first use, as
    float64 (3, 3) arrays that are read-only, because the dynamics read the
    entries; a state built from arrays reads its entries from them at each
    use.  Either way it unpacks as ``g, f = state``, and ``np.asarray`` of it
    is the (2, 3, 3) pair.

    A state handed to a step as the start of its implicit solve keeps, from
    the first such step, what the chord update needs of it for that step's
    inertia (:func:`_chord`): its Cayley vector, the momentum that vector
    solves and the inverse Jacobian there.  They are functions of the state
    and the inertia alone, so the steps that read them later, in whatever
    order, see what the first computed.

    A state the step built keeps, in ``_next``, its last step taken without
    a start state: a copy of the torque row, h, the inertia constants, the
    successor and the margin.  A later such step with a row equal bit for
    bit, the same h and the same constants object returns that successor
    and margin, which a new solve would reproduce bit for bit: a rollout
    that repeats another from the same state object solves nothing.  The
    row is copied because a finite-difference gradient moves its entries in
    place.  A state built from arrays keeps no step, since the caller may
    still write to them; :func:`check_state` and the attitude module's
    ``rest_state`` and ``spinning_state`` build theirs from entries, so
    they keep steps.

    Such a state keeps two values by the same rules.  In ``_coordinates``
    it keeps its chart coordinates with the h they were taken at
    (:func:`~so3mpc.terminal.coordinates`), and in ``_stage`` its last
    stage cost of a torque row, with the weights object and the h it was
    taken with and a copy of the row
    (:meth:`~so3mpc.attitude.SpacecraftAttitudeSystem.stage_cost`).  A
    later call with the same h (and for the stage cost the same weights
    and a row equal bit for bit) returns the kept value, which a new
    evaluation would reproduce bit for bit.  A state built from arrays
    keeps neither.
    """

    __slots__ = ("_g", "_f", "_rows", "_cayley", "_chord", "_next", "_coordinates", "_stage")

    def __init__(self, g, f):
        self._g, self._f, self._rows, self._cayley, self._chord = g, f, None, None, None
        self._next = self._coordinates = self._stage = None

    @classmethod
    def identity(cls) -> "SpacecraftState":
        return cls(np.eye(3), np.eye(3))

    @property
    def g(self) -> np.ndarray:
        if self._g is None:
            self._make_arrays()
        return self._g

    @property
    def f(self) -> np.ndarray:
        if self._f is None:
            self._make_arrays()
        return self._f

    def _make_arrays(self) -> None:
        self._g, self._f = (np.array(rows) for rows in self._rows)
        self._g.flags.writeable = self._f.flags.writeable = False

    @property
    def entries(self) -> tuple:
        """g and f as rows of entries: Python floats for one state, and for
        a stack arrays with one element per state, as the component formulas
        take them."""
        if self._rows is not None:
            return self._rows
        if self._g.ndim == 2:
            return self._g.tolist(), self._f.tolist()
        return self._g.transpose(1, 2, 0), self._f.transpose(1, 2, 0)

    def __iter__(self):
        return iter((self.g, self.f))

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index):
        return (self.g, self.f)[index]

    def __repr__(self) -> str:
        return f"SpacecraftState(g={self.g!r}, f={self.f!r})"


def _state_of(g, f, x) -> SpacecraftState:
    """The state with rows of entries ``g`` and ``f``, where ``x`` is the
    Cayley vector of ``f`` (:func:`_cayley`), or ``None`` for a state not
    built by a step, whose vector :func:`_chord` computes when read."""
    state = object.__new__(SpacecraftState)
    state._g = state._f = None
    state._rows = (g, f)
    state._cayley = x
    state._chord = None
    state._next = state._coordinates = state._stage = None
    return state


def check_state(state: SpacecraftState) -> SpacecraftState:
    """Validate both rotation components of a state, and return the state
    built from their entries (:func:`_state_of`): it shares no array with
    the caller, so it keeps its steps as the step's own successors do."""
    g = check_rotation(state.g, "g")
    f = check_rotation(state.f, "f")
    return _state_of(g.tolist(), f.tolist(), None)


def _momentum(f, tau, hh, j):
    """m = a + hh tau with hat(a) = J f - f^T J, the vector of the skew
    momentum M, from the entries of f, tau and J: Python floats for one step,
    arrays with one element per row for a stack, as in the Newton formulas."""
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = f
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = j
    t0, t1, t2 = tau
    return (
        (j20 * f01 + j21 * f11 + j22 * f21) - (f02 * j01 + f12 * j11 + f22 * j21) + hh * t0,
        (j00 * f02 + j01 * f12 + j02 * f22) - (f00 * j02 + f10 * j12 + f20 * j22) + hh * t1,
        (j10 * f00 + j11 * f10 + j12 * f20) - (f01 * j00 + f11 * j10 + f21 * j20) + hh * t2,
    )


def _step_margin(momentum, inertia: np.ndarray):
    """Smallest eigenvalue of J^2 + M^2/4, for one M or a stack of them:
    the implicit step is solvable iff it is nonnegative."""
    m_half = 0.5 * np.asarray(momentum, dtype=float)
    return np.linalg.eigvalsh(inertia @ inertia + m_half @ m_half)[..., 0]


def _eigen_discs(j):
    """Gershgorin's discs of a symmetric J from entries: each row's centre
    minus and plus its radius, which bound the eigenvalues of J."""
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = j
    r0 = abs(j01) + abs(j02)
    r1 = abs(j10) + abs(j12)
    r2 = abs(j20) + abs(j21)
    return (j00 - r0, j11 - r1, j22 - r2), (j00 + r0, j11 + r1, j22 + r2)


def _margin_bound(m, lo, hi):
    """Certified lower bound on the margin from entries, for 0 <= lo <=
    lambda_min(J) and hi >= lambda_max(J).

    M^2 has eigenvalues 0, -|m|^2, -|m|^2, so by Weyl's inequality the
    margin is at least lambda_min(J)^2 - |m|^2/4; less the allowance, the
    bound also stays below LAPACK's value of the margin.
    """
    m0, m1, m2 = m
    quarter = 0.25 * (m0 * m0 + m1 * m1 + m2 * m2)
    return lo * lo - quarter - _MARGIN_ALLOWANCE * (hi * hi + quarter)


class _InertiaConstants(NamedTuple):
    """What a step needs of J: its entries; a = tr J I - J and its inverse,
    as rows of entries, the inverse by :func:`_solve3` on the unit vectors,
    for the start of every unstarted solve (:func:`_start`); the Gershgorin
    bounds lo <= lambda_min(J) (at least zero) and hi >= lambda_max(J) of
    :func:`_margin_bound`; and the array for LAPACK's margin, read-only."""

    j: tuple
    a: tuple
    a_inv: tuple
    lo: float
    hi: float
    inertia: np.ndarray


def _inertia_constants(inertia: np.ndarray) -> _InertiaConstants:
    """The constants of a float64 (3, 3) inertia, computed once per value of
    its entries: the cache is keyed by the bytes, so an array mutated in
    place gets its new constants."""
    if inertia.shape != (3, 3):
        raise ValueError(f"inertia must have shape (3, 3), got {inertia.shape}")
    return _constants_of(inertia.tobytes())


@functools.lru_cache(maxsize=16)
def _constants_of(key: bytes) -> _InertiaConstants:
    inertia = np.frombuffer(key).reshape(3, 3)
    j = tuple(map(tuple, inertia.tolist()))
    a = _trace_shift(j)
    a_inv = tuple(zip(*(_solve3(a, e) for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))))
    lows, highs = _eigen_discs(j)
    return _InertiaConstants(j, a, a_inv, max(min(lows), 0.0), max(highs), inertia)


def _margin(m, constants: _InertiaConstants) -> float:
    """The margin of one step: LAPACK's value where the bound of
    :func:`_margin_bound` is below ``MARGIN_CUTOFF``, the bound above it."""
    bound = _margin_bound(m, constants.lo, constants.hi)
    if bound >= MARGIN_CUTOFF:
        return bound
    return float(_step_margin(hat(m), constants.inertia))


def _margins(m, constants: _InertiaConstants) -> np.ndarray:
    """:func:`_margin` of every row of ``m``, shape (n, 3).  LAPACK runs only
    on the rows in the band; every row equals the single step's margin bit
    for bit."""
    margins = _margin_bound(m.T, constants.lo, constants.hi)
    band = np.flatnonzero(~(margins >= MARGIN_CUTOFF))
    if band.size:
        margins[band] = _step_margin(hat(m[band]), constants.inertia)
    return margins


# The Newton iteration in components.  Every entry is a Python float (the
# single step) or an array with one element per row (the stacked step).  Only
# elementwise + - * / appear, which round alike on both, so the two steps
# agree bit for bit; ``**`` and ``pow`` would not.


def _trace_shift(j):
    """tr J I - J, the linear part of the Cayley residual, as rows of entries."""
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = j
    t = j00 + j11 + j22
    return ((t - j00, -j01, -j02), (-j10, t - j11, -j12), (-j20, -j21, t - j22))


def _solve3(a, b):
    """Solve a x = b for a 3x3 ``a`` given as rows of entries, by Cramer's rule."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    b0, b1, b2 = b
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    return (
        (c00 * b0 + (a02 * a21 - a01 * a22) * b1 + (a01 * a12 - a02 * a11) * b2) / det,
        (c01 * b0 + (a00 * a22 - a02 * a20) * b1 + (a02 * a10 - a00 * a12) * b2) / det,
        (c02 * b0 + (a01 * a20 - a00 * a21) * b1 + (a00 * a11 - a01 * a10) * b2) / det,
    )


def _start(m, j, b):
    """Where Newton starts without a start state: the second fixed-point
    iterate x1 = b (x0 cross J x0 + (1 + x0^T x0) m / 2) of r(x) = 0, from
    the linearized root x0 = b m / 2, where b is the inverse of
    a = tr J I - J as rows of entries."""
    m0, m1, m2 = m
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = j
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    h0, h1, h2 = 0.5 * m0, 0.5 * m1, 0.5 * m2
    x0 = b00 * h0 + b01 * h1 + b02 * h2
    x1 = b10 * h0 + b11 * h1 + b12 * h2
    x2 = b20 * h0 + b21 * h1 + b22 * h2
    y0 = j00 * x0 + j01 * x1 + j02 * x2
    y1 = j10 * x0 + j11 * x1 + j12 * x2
    y2 = j20 * x0 + j21 * x1 + j22 * x2
    s = 0.5 * (1.0 + (x0 * x0 + x1 * x1 + x2 * x2))
    c0 = (x1 * y2 - x2 * y1) + s * m0
    c1 = (x2 * y0 - x0 * y2) + s * m1
    c2 = (x0 * y1 - x1 * y0) + s * m2
    return (
        b00 * c0 + b01 * c1 + b02 * c2,
        b10 * c0 + b11 * c1 + b12 * c2,
        b20 * c0 + b21 * c1 + b22 * c2,
    )


def _residual(x, m, j, a):
    """r(x) = a x - x cross J x - (1 + x^T x) m / 2, with a = tr J I - J,
    and J x, which the Jacobian reads."""
    x0, x1, x2 = x
    m0, m1, m2 = m
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = j
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    y0 = j00 * x0 + j01 * x1 + j02 * x2
    y1 = j10 * x0 + j11 * x1 + j12 * x2
    y2 = j20 * x0 + j21 * x1 + j22 * x2
    s = 0.5 * (1.0 + (x0 * x0 + x1 * x1 + x2 * x2))
    residual = (
        a00 * x0 + a01 * x1 + a02 * x2 - (x1 * y2 - x2 * y1) - s * m0,
        a10 * x0 + a11 * x1 + a12 * x2 - (x2 * y0 - x0 * y2) - s * m1,
        a20 * x0 + a21 * x1 + a22 * x2 - (x0 * y1 - x1 * y0) - s * m2,
    )
    return residual, (y0, y1, y2)


def _jacobian(x, m, j, a, y):
    """The Jacobian a - hat(x) J + hat(J x) - m x^T of r at x, where ``y``
    is J x."""
    x0, x1, x2 = x
    m0, m1, m2 = m
    y0, y1, y2 = y
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = j
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    return (
        (
            a00 + x2 * j10 - x1 * j20 - m0 * x0,
            a01 + x2 * j11 - x1 * j21 - y2 - m0 * x1,
            a02 + x2 * j12 - x1 * j22 + y1 - m0 * x2,
        ),
        (
            a10 - x2 * j00 + x0 * j20 + y2 - m1 * x0,
            a11 - x2 * j01 + x0 * j21 - m1 * x1,
            a12 - x2 * j02 + x0 * j22 - y0 - m1 * x2,
        ),
        (
            a20 + x1 * j00 - x0 * j10 - y1 - m2 * x0,
            a21 + x1 * j01 - x0 * j11 + y0 - m2 * x1,
            a22 + x1 * j02 - x0 * j12 - m2 * x2,
        ),
    )


def _newton_update(x, m, j, a):
    """One Newton step on r(x) = a x - x cross J x - (1 + x^T x) m / 2,
    with a = tr J I - J.  Returns the new x and |dx|^2."""
    (r0, r1, r2), y = _residual(x, m, j, a)
    d0, d1, d2 = _solve3(_jacobian(x, m, j, a, y), (-r0, -r1, -r2))
    x0, x1, x2 = x
    return (x0 + d0, x1 + d1, x2 + d2), d0 * d0 + d1 * d1 + d2 * d2


def _chord_update(m, chord):
    """One chord step on r from x0 with momentum ``m``: the Newton step with
    r's Jacobian taken at x0 and at the momentum m0 that x0 solves, for a
    ``chord`` (J's constants, x0, m0, W) of :func:`_chord`.  With
    s0 = (1 + x0^T x0) / 2, r(x0) = a x0 - x0 cross J x0 - s0 m is
    s0 (m0 - m), so the step is W (m - m0), where W is s0 times the inverse
    Jacobian.  Returns the new x and |dx|^2."""
    _, (x0, x1, x2), (n0, n1, n2), ((w00, w01, w02), (w10, w11, w12), (w20, w21, w22)) = chord
    e0, e1, e2 = m[0] - n0, m[1] - n1, m[2] - n2
    d0 = w00 * e0 + w01 * e1 + w02 * e2
    d1 = w10 * e0 + w11 * e1 + w12 * e2
    d2 = w20 * e0 + w21 * e1 + w22 * e2
    return (x0 + d0, x1 + d1, x2 + d2), d0 * d0 + d1 * d1 + d2 * d2


def _chord(near: SpacecraftState, constants: _InertiaConstants) -> tuple:
    """What :func:`_chord_update` needs of a start state ``near``, for the J
    of ``constants``, kept on the state: the constants, the Cayley vector x0
    of its increment (the one its step solved for, or :func:`_cayley_vector`
    of the entries of a state built from arrays), the momentum that x0
    solves, m0 = 2 (a x0 - x0 cross J x0) / (1 + x0^T x0), and W, the
    inverse of r's Jacobian at x0 and m0 times (1 + x0^T x0) / 2.

    They are functions of the state and J alone, so every finite-difference
    tail step handed the same base state shares one inverse, and a carried
    tail reads the inverse that a fresh one would compute."""
    x = near._cayley
    if x is None:
        x = _cayley_vector(near.entries[1])
    j, a = constants.j, constants.a
    (r0, r1, r2), y = _residual(x, (0.0, 0.0, 0.0), j, a)
    x0, x1, x2 = x
    s = 0.5 * (1.0 + (x0 * x0 + x1 * x1 + x2 * x2))
    m = (r0 / s, r1 / s, r2 / s)
    jacobian = _jacobian(x, m, j, a, y)
    columns = (_solve3(jacobian, e) for e in ((s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, s)))
    near._chord = chord = (constants, x, m, tuple(zip(*columns)))
    return chord


def _cayley(x):
    """The rotation I + 2 (hat(x) + hat(x)^2) / (1 + x^T x) as rows of
    entries."""
    x0, x1, x2 = x
    q00, q11, q22 = x0 * x0, x1 * x1, x2 * x2
    q01, q02, q12 = x0 * x1, x0 * x2, x1 * x2
    s = 2.0 / (1.0 + (q00 + q11 + q22))
    return (
        (1.0 - s * (q11 + q22), s * (q01 - x2), s * (q02 + x1)),
        (s * (q01 + x2), 1.0 - s * (q00 + q22), s * (q12 - x0)),
        (s * (q02 - x1), s * (q12 + x0), 1.0 - s * (q00 + q11)),
    )


def _cayley_vector(f):
    """The Cayley vector vee(f - f^T) / (1 + tr f) of a rotation f given as
    rows of entries, the x with :func:`_cayley` (x) = f; f must not be a
    half turn, where 1 + tr f = 0."""
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = f
    s = 1.0 + (f00 + f11 + f22)
    return ((f21 - f12) / s, (f02 - f20) / s, (f10 - f01) / s)


def _product(a, b):
    """The product of two 3x3 matrices given as rows of entries, as rows,
    each entry summed in component order."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21, a00 * b02 + a01 * b12 + a02 * b22),
        (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21, a10 * b02 + a11 * b12 + a12 * b22),
        (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21, a20 * b02 + a21 * b12 + a22 * b22),
    )


def _implicit_increment(m, constants: _InertiaConstants, near=None) -> tuple[tuple, float]:
    """The Cayley vector x of the increment F in SO(3) with
    F J - J F^T = hat(m), and the solvability margin.  ``m`` is the momentum
    vector and ``constants`` are the :func:`_inertia_constants` of J.
    ``near``, a state whose increment lies near F, is where the iteration
    starts instead of the second-order start (see below).  The entries are
    Python floats.

    The margin is the smallest eigenvalue of J^2 + M^2/4 from LAPACK where a
    certified lower bound on it is below ``MARGIN_CUTOFF``, and that bound
    above it (see :func:`_margin`); the step raises
    :class:`~so3mpc.errors.NotSolvable` iff LAPACK's value is negative.

    F is the Cayley map of x, I + 2 (hat(x) + hat(x)^2) / (1 + x^T x)
    (:func:`_cayley`), so it stays on the group by construction.  The
    implicit update reads
    r(x) = a x - x cross J x - (1 + x^T x) m / 2 = 0 with a = tr J I - J,
    solved by Newton from x1 = a^{-1} (x0 cross J x0 + (1 + x0^T x0) m / 2),
    the fixed-point iterate after the linearized root x0 = a^{-1} m / 2
    (:func:`_start`, on the a^{-1} that the constants keep).  Its error is of
    order |m|^3 where x0's is |m|^2, so the first update's step is too, and
    a small momentum (every fresh sample of the certificate at the 1 N m
    reference design) stops after that one update.  Since r is
    quadratic, the residual after a step dx is exactly
    -dx cross J dx - |dx|^2 m / 2, so stopping once |dx| <= _NEWTON_STEP_TOL
    leaves a residual of order 1e-12, and under quadratic convergence the
    last step is usually far smaller.  On the solvable set the iteration
    converges to the branch with sym(F J) positive semi-definite,
    quadratically for a positive margin and linearly at margin zero.

    The iteration starts at the Cayley vector x0 of ``near``'s increment
    where the margin is at least ``MARGIN_CUTOFF``.  Its first update there
    is a chord update (:func:`_chord_update`): the Newton update with r's
    Jacobian taken at x0 and at the momentum that x0 solves, whose inverse
    ``near`` keeps (:func:`_chord`), so the tail steps handed one state
    invert one Jacobian.  Its error is of the order of Newton's, |x0 - x|^2
    (the chord method of Kelley, *Iterative Methods for Linear and
    Nonlinear Equations*, ch. 5), so a start within about 1e-6 of the root
    stops after it.  The residual after it is Newton's plus
    (m0 - m) x0^T dx, where m0 is the momentum x0 solves; dx is of the
    order of |m - m0|, so the stop test leaves a residual of the same order.  Otherwise Newton updates continue
    from where it lands, the chord update counting against the same cap.  F
    moves from the unstarted result at round-off only (at most 1e-10 for
    starts up to 1e-2 away).  Below the cutoff ``near`` is ignored and the
    iteration starts at x1 as an unstarted one does: the two roots there lie
    within about sqrt(margin) of each other, and a start 1e-2 away at margin
    1e-8 converged to the other one.  x1 has not been seen to: over 20,000
    random inertias and momenta at margins down to 1e-9 lambda_min(J)^2, it
    reached the root of the linearized start within 1e-12 / sqrt(margin).

    Near the solvability boundary F is less accurate than the residual: the
    root is close to a double root, with condition about 1/sqrt(margin), so
    the residual's 1e-12 leaves F within 3e-12 / sqrt(margin) of the exact
    increment in every entry (at most about 1e-12 / sqrt(margin) against the
    closed-form planar solution): up to 3e-8 at margin 1e-8, 3e-12 at
    margin 1.

    The unstarted iteration runs through the component formulas
    :func:`_start` and :func:`_newton_update`, which
    :func:`_implicit_increments` runs on arrays of rows.
    """
    margin = _margin(m, constants)
    if margin < 0.0:
        raise NotSolvable(f"implicit step unsolvable: min eig of J^2 + M^2/4 is {margin:.3e}")
    j, a = constants.j, constants.a
    if near is None or margin < MARGIN_CUTOFF:
        x, step = _newton_update(_start(m, j, constants.a_inv), m, j, a)
    else:
        chord = near._chord
        if chord is None or chord[0] is not constants:
            chord = _chord(near, constants)
        x, step = _chord_update(m, chord)
    updates = 1
    while step > _NEWTON_STEP_TOL**2:
        if updates == _NEWTON_MAX_ITERS:
            raise NoConvergence(
                f"implicit step Newton iteration did not converge in {_NEWTON_MAX_ITERS} iterations"
            )
        x, step = _newton_update(x, m, j, a)
        updates += 1
    return x, margin


def _implicit_increments(m, inertia) -> tuple[np.ndarray, np.ndarray]:
    """The increments of :func:`_implicit_increment` for a stack of momentum
    vectors, shape (n, 3), with one inertia, shape (3, 3).  Returns the
    increments, shape (n, 3, 3), and the margins, shape (n,).  A row whose
    margin is negative is unsolvable: its increment is NaN.

    Every solvable row runs the scalar kernel's component formulas, on the
    same :func:`_inertia_constants`, from the same start (:func:`_start`)
    and stops after the same test on its own step, so its increment equals
    :func:`_cayley` of the scalar kernel's result bit for bit.  At the 1 N m
    reference design every fresh certificate sample stops after its first
    update, so the stack runs one pass.
    """
    m = np.asarray(m, dtype=float)
    constants = _inertia_constants(np.asarray(inertia, dtype=float))
    margins = _margins(m, constants)
    increments = np.full((len(m), 3, 3), np.nan)
    rows = np.flatnonzero(margins >= 0.0)
    # Each entry of m and x is an array with one element per row; the
    # entries of J and a are floats.
    j, a = constants.j, constants.a
    m = m[rows].T
    x = np.array(_start(m, j, constants.a_inv))
    for _ in range(_NEWTON_MAX_ITERS):
        x, step = _newton_update(x, m, j, a)
        x = np.array(x)
        done = step <= _NEWTON_STEP_TOL**2
        if done.all():
            increments[rows] = np.array(_cayley(x)).transpose(2, 0, 1)
            return increments, margins
        # Each selection once, by integer index: a boolean mask copies through
        # a slower path.
        stopped, going = np.flatnonzero(done), np.flatnonzero(~done)
        increments[rows.take(stopped)] = np.array(_cayley(x.take(stopped, 1))).transpose(2, 0, 1)
        rows, x, m = rows.take(going), x.take(going, 1), m.take(going, 1)
    raise NoConvergence(
        f"implicit step Newton iteration did not converge in {_NEWTON_MAX_ITERS} iterations"
    )


def _step_rows(state: SpacecraftState, torque: np.ndarray, h: float, inertia):
    """:func:`step_with_margin` of every row of a stack of states, g and f of
    shape (n, 3, 3), under torques of shape (n, 3): the successors and the
    margins, shape (n,).  A row whose margin is negative is unsolvable: its
    successor's increment is NaN (see :func:`_implicit_increments`).  The
    successor's g is numpy's product, which may differ from the single
    step's component sums at round-off."""
    inertia = np.asarray(inertia, dtype=float)
    m = _momentum(state.entries[1], torque.T, h * h, inertia.tolist())
    f_next, margins = _implicit_increments(np.stack(m, axis=-1), inertia)
    return SpacecraftState(state.g @ state.f, f_next), margins


def lgvi_step(state: SpacecraftState, torque, h: float, inertia) -> SpacecraftState:
    """Advance one step: g_next = g f with the current increment, then the
    new increment from the implicit momentum balance.

    ``h`` must be a positive finite number and ``torque`` three finite
    entries; anything else raises ``ValueError`` naming the argument."""
    h = as_parameter("h", h, as_positive, False)
    return step_with_margin(state, check_vector3(torque, "torque"), h, inertia)[0]


def step_with_margin(
    state: SpacecraftState, torque, h: float, inertia, near=None
) -> tuple[SpacecraftState, float]:
    """One integrator step plus the solvability margin it consumed.

    The margin is the smallest eigenvalue of J^2 + M^2/4, which the
    optimizer keeps above its floor inside predicted rollouts.  It is
    LAPACK's exact value below ``MARGIN_CUTOFF`` and a certified lower bound
    on it above (see :func:`_implicit_increment`), so every comparison with
    zero or with a floor below the cutoff sees the exact value.

    This is the one scalar step of the package: the momentum goes from the
    entries of f, torque and J straight into Newton, and the successor is
    built from the entries of g f and of the new increment
    (:func:`_state_of`), for states built from arrays and for the successors
    of earlier steps alike.  ``inertia`` is the (3, 3) array, or its
    :func:`_inertia_constants`, which a caller that steps one inertia many
    times looks up once.  ``near``, a state near the successor, is where
    the implicit solve starts: at the Cayley vector of its increment, with
    one chord update on the inverse Jacobian that ``near`` keeps (see
    :func:`_implicit_increment`); it changes the new increment at round-off
    only.  A ``list`` torque is taken as a ready row of three Python floats,
    as the solver's predictions pass it, and is not converted; any other
    torque is read as a float array of three entries.  Nothing here is
    checked: :func:`lgvi_step` and :func:`rollout` check their arguments.

    A step without ``near`` from a state the step built is kept on that
    state, and a repeat of it returns the kept successor object and margin
    without solving (see :class:`SpacecraftState`).  The key is a copy of
    the row, compared bit for bit, so a row moved in place afterwards
    misses.  A step with ``near`` neither reads nor keeps one: a
    finite-difference tail runs as it would without the kept steps, and a
    gradient's tails hold no successors.  An unsolvable step keeps nothing.
    """
    constants = inertia
    if type(constants) is not _InertiaConstants:
        constants = _inertia_constants(np.asarray(inertia, dtype=float))
    if type(torque) is not list:
        torque = np.asarray(torque, dtype=float).reshape(3).tolist()
    if near is None:
        last = state._next
        if last is not None and last[2] is constants and last[1] == h and _same_row(last[0], torque):
            return last[3], last[4]
    g, f = state.entries
    m = _momentum(f, torque, h * h, constants.j)
    x, margin = _implicit_increment(m, constants, near)
    successor = _state_of(_product(g, f), _cayley(x), x)
    if near is None and state._rows is not None:
        state._next = (torque.copy(), h, constants, successor, margin)
    return successor, margin


def _same_row(row, torque) -> bool:
    """Whether two rows of floats hold the same numbers bit for bit.  ``==``
    takes -0.0 for 0.0, but a momentum entry of -0.0 keeps the torque's sign
    of zero, and a kept successor must be what a new solve gives from that
    momentum; so the signs of zero entries are compared too.  No search has
    found signed-zero torques whose fresh steps differ, but no argument
    shows that the Newton formulas drop every sign they are given."""
    return row == torque and (
        0.0 not in torque or all(math.copysign(1.0, a) == math.copysign(1.0, b) for a, b in zip(row, torque))
    )


def step_jacobians(f, h: float, inertia) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (A, B) of the n steps of a rollout whose n + 1 increments
    are the stack ``f``, shape (n + 1, 3, 3): step k runs from increment
    f[k] under some torque to the increment f[k + 1] that it returned.  They
    are in the tangent coordinates g exp(hat(zeta)), f exp(h hat(omega)) of
    the state and the torque itself: (zeta, omega) after step k is
    A[k] (zeta, omega) + B[k] du to first order.  The stacks have shape
    (n, 6, 6) and (n, 6, 3).

    The attitude row is (f^T, h I), from g f exp(hat(zeta')) =
    g exp(hat(zeta)) f exp(h hat(omega)).  The increment row follows from the
    implicit balance F J - J F^T = hat(m) by the implicit-function theorem:
    perturbing F to F exp(hat(psi)) moves its left side by
    hat(F S psi) with S = tr(J F) I - J F, and the momentum m by
    T h omega + h^2 du with T = tr(J f) I - f^T J, so one 3x3 solve with S
    per step gives both blocks.  For a symmetric J, T is the transpose of
    the S of f, so S is formed once per increment: f[k + 1]'s S serves
    step k, and its transpose is step k + 1's T.  At the identity it is the
    terminal design's linearization,
    :func:`~so3mpc.terminal.build_linearization`.
    """
    f = np.asarray(f, dtype=float)
    j_f = np.asarray(inertia, dtype=float) @ f
    s = j_f.trace(axis1=1, axis2=2)[:, None, None] * _EYE3 - j_f
    f_t = f.transpose(0, 2, 1)
    f_next_t = f_t[1:]
    t = s[:-1].transpose(0, 2, 1)
    rows = np.linalg.solve(s[1:], np.concatenate([f_next_t @ t, h * f_next_t], axis=-1))
    n = len(f) - 1
    a = np.zeros((n, 6, 6))
    a[:, :3, :3] = f_t[:-1]
    a[:, :3, 3:] = h * _EYE3
    a[:, 3:, 3:] = rows[..., :3]
    b = np.zeros((n, 6, 3))
    b[:, 3:, :] = rows[..., 3:]
    return a, b


def rollout(
    state0: SpacecraftState, torques: Sequence, h: float, inertia
) -> list[SpacecraftState]:
    """Roll the integrator over a torque sequence.

    Returns ``len(torques) + 1`` states, the first being ``state0``.
    Torques of the wrong shape or with a NaN or infinity raise
    ``ValueError`` naming the first bad step
    (:func:`~so3mpc.validation.check_controls`), and so does an ``h`` that
    is not a positive finite number; a step that cannot be solved raises
    :class:`~so3mpc.errors.NotSolvable` with its index.  The arguments are
    checked once, and the steps run :func:`step_with_margin` on rows of
    floats.
    """
    state0 = check_state(state0)
    h = as_parameter("h", h, as_positive, False)
    constants = _inertia_constants(check_spd(inertia, "inertia"))
    states = [state0]
    for i, tau in enumerate(check_controls(torques, 3, "torques").tolist()):
        try:
            states.append(step_with_margin(states[-1], tau, h, constants)[0])
        except NotSolvable as err:
            raise NotSolvable(f"rollout failed at step {i}: {err}", step=i) from err
    return states


def body_rate(state: SpacecraftState, h: float) -> np.ndarray:
    """Angular velocity log_so3(f) / h implied by the increment."""
    return log_so3(state.f) / h


def spatial_momentum(state: SpacecraftState, inertia) -> np.ndarray:
    """Momentum g a, with hat(a) = f J - J f^T, constant along torque-free
    trajectories."""
    inertia = np.asarray(inertia, dtype=float)
    a = state.f @ inertia - inertia @ state.f.T
    vec = 0.5 * np.array(
        [a[2, 1] - a[1, 2], a[0, 2] - a[2, 0], a[1, 0] - a[0, 1]]
    )
    return state.g @ vec


def random_spin_state(rng: np.random.Generator, rate_scale: float, h: float) -> SpacecraftState:
    """A random attitude with a random spin; used by conservation checks."""
    axis_angle = rng.uniform(-np.pi, np.pi) * _unit(rng.standard_normal(3))
    rate = rate_scale * rng.standard_normal(3)
    return SpacecraftState(exp_so3(axis_angle), exp_so3(h * rate))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def free_momentum_drift(states: Sequence[SpacecraftState], inertia) -> float:
    """Worst relative drift of the spatial momentum along a trajectory."""
    reference = spatial_momentum(states[0], inertia)
    scale = max(float(np.linalg.norm(reference)), 1e-12)
    worst = 0.0
    for state in states:
        gap = float(np.linalg.norm(spatial_momentum(state, inertia) - reference))
        worst = max(worst, gap / scale)
    return worst


def orthogonality_drift(states: Sequence[SpacecraftState]) -> float:
    """Worst Frobenius drift of g^T g and f^T f from the identity."""
    worst = 0.0
    for g, f in states:
        worst = max(
            worst,
            float(np.linalg.norm(g.T @ g - _EYE3)),
            float(np.linalg.norm(f.T @ f - _EYE3)),
        )
    return worst
