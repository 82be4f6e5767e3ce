"""Coherent-drive master equation for the two-atom system.

This is the beyond-one-photon verifier: a weak coherent tone replaces the
single photon, the two qubits evolve under a Lindblad generator with
individual and collective decay plus the photon-mediated exchange coupling,
and input-output relations convert steady-state atomic moments into
transmission, reflection, and the inelastically scattered flux.  Photon
number conservation (F / |alpha|^2 = 1 - T - R) and the weak-drive limit
against the one-photon amplitudes are the headline cross-checks.  Drives and
outputs carry the coupling points' own phases, as the closed form does, so
that limit holds for the complex t and r, not only for T and R.

Basis ordering is fixed as {gg, ge, eg, ee} (first letter = atom a) and the
Liouvillian acts on column-stacked density matrices, so the 16 x 16 generator
is reproducible bit-for-bit.

The generator is assembled directly in its real Hermitian-basis form
F = B^H L B (:func:`_master_form`): every term of :data:`_SUPEROPS` maps
Hermitian matrices to Hermitian matrices and carries a real coefficient, so
F is a real combination of the terms' real forms, projected once at import.
It is built in the unit of the one-photon quantities, the config's largest
bare rate s (:func:`gawqed.core.rate_scale`), its callers dividing
detunings, frequencies and |alpha|^2 by s: every output is bit-identical
under scaling by a power of 4, and F stays finite from rates of 1e-300 to
1e300.  Only :func:`build_liouvillian` returns the complex
L = s B F B^H.  Steady states are solved on F, with the trace condition
bordering the null-space problem, by one solver: the generator is affine in
the drive detuning, so :func:`_pencil_steady_states` solves a whole grid
from one eigendecomposition of the bordered pencil, and one point is the pencil
whose reference is that point.  :func:`_steady_state` turns a one-point
verdict into its error, for :func:`steady_state`, the spectra and every
point of a sweep that the pencil does not accept (:func:`_steady_states`).

The inelastic spectrum (:func:`inelastic_spectrum`) takes the modes of F from
one ``eig`` and sums their real partial fractions over fixed blocks of the
frequency grid (:data:`SPECTRUM_BLOCK`), with no complex array and no BLAS
call on the frequency axis, so its memory does not grow with the grid.  The
stationary mode's weight is rounding, and at nu = 0, where its fraction is
singular, it contributes 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, GawqedError, SystemConfig, characteristics, rate_scale

#: |eigenvalue| <= this times ||L||_F is a stationary direction (all 16 for L = 0)
STATIONARY_TOL = 1e-10

BASIS = ("gg", "ge", "eg", "ee")

#: frequencies evaluated together by :func:`inelastic_spectrum` (a block
#: holds a few (16, 256) real arrays, so the peak does not grow with the grid)
SPECTRUM_BLOCK = 256

_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_ID2 = np.eye(2, dtype=complex)
_ID4 = np.eye(4, dtype=complex)
SIGMA_MINUS_A = np.kron(_SM, _ID2)
SIGMA_MINUS_B = np.kron(_ID2, _SM)


class SteadyStateError(GawqedError):
    """The steady state is missing, degenerate, or unphysical."""


class SpectrumSingularError(GawqedError):
    """The correlation resolvent is singular at a requested frequency."""


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive: photon flux |alpha|^2 (in the units of the config's
    rates) and its detuning from atom a."""

    amplitude_sq: float
    frequency_detuning: float

    def __post_init__(self) -> None:
        for name in ("amplitude_sq", "frequency_detuning"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.amplitude_sq >= 0.0:
            raise ConfigError(f"amplitude_sq must be >= 0, got {self.amplitude_sq}")

    @property
    def alpha(self) -> float:
        return math.sqrt(self.amplitude_sq)


@dataclass(frozen=True)
class SteadyState:
    """Steady-state density matrix over {gg, ge, eg, ee}."""

    rho: np.ndarray

    def population(self, state: str) -> float:
        return float(self.rho[BASIS.index(state), BASIS.index(state)].real)


@dataclass(frozen=True)
class LindbladResult:
    steady: SteadyState
    t: complex
    r: complex
    T: float
    R: float
    inelastic_flux: float
    conservation_residual: float


@dataclass(frozen=True)
class SpectrumResult:
    """Per-channel inelastic power spectra on a caller-supplied frequency grid.

    Normalised so that the integral over nu of each channel equals that
    channel's incoherent flux <db' db>.
    """

    nu: np.ndarray
    s_transmit: np.ndarray
    s_reflect: np.ndarray

    @property
    def s_total(self) -> np.ndarray:
        return self.s_transmit + self.s_reflect


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _commutator(h: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> -i [h, rho]."""
    return -1j * (np.kron(_ID4, h) - np.kron(h.T, _ID4))


def _dissipator(sj: np.ndarray, sk: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> sj rho sk^+ - {sj^+ sk, rho} / 2."""
    k = sj.conj().T @ sk
    return np.kron(sk.conj(), sj) - 0.5 * (np.kron(_ID4, k) + np.kron(k.T, _ID4))


_SP_A, _SP_B = SIGMA_MINUS_A.conj().T, SIGMA_MINUS_B.conj().T
_N_A, _N_B = _SP_A @ SIGMA_MINUS_A, _SP_B @ SIGMA_MINUS_B

#: the terms of the generator, each mapping Hermitian matrices to Hermitian
#: matrices, in the order of the real coefficients of :func:`_master_form`
_SUPEROPS = np.stack([
    _commutator(_N_A),
    _commutator(_N_B),
    _commutator(_SP_A @ SIGMA_MINUS_B + _SP_B @ SIGMA_MINUS_A),
    _commutator(-0.5j * (_SP_A - SIGMA_MINUS_A)),
    _commutator(0.5 * (_SP_A + SIGMA_MINUS_A)),
    _commutator(-0.5j * (_SP_B - SIGMA_MINUS_B)),
    _commutator(0.5 * (_SP_B + SIGMA_MINUS_B)),
    _dissipator(SIGMA_MINUS_A, SIGMA_MINUS_A),
    _dissipator(SIGMA_MINUS_B, SIGMA_MINUS_B),
    _dissipator(SIGMA_MINUS_A, SIGMA_MINUS_B) + _dissipator(SIGMA_MINUS_B, SIGMA_MINUS_A),
])


def _hermitian_members() -> np.ndarray:
    """(16, 4, 4): an orthonormal basis of the Hermitian 4 x 4 matrices,
    E_jj, (E_jk + E_kj)/sqrt2 and i (E_jk - E_kj)/sqrt2."""
    members = []
    for j in range(4):
        for k in range(j, 4):
            unit = np.zeros((4, 4), dtype=complex)
            unit[j, k] = 1.0
            if j == k:
                members.append(unit)
            else:
                members.append((unit + unit.T) / math.sqrt(2.0))
                members.append(1j * (unit - unit.T) / math.sqrt(2.0))
    return np.stack(members)


_MEMBERS = _hermitian_members()
#: the unitary B whose columns are the vecs of the members H_k; a generator
#: L that maps Hermitian matrices to Hermitian matrices has the real form
#: F = B^H L B, which is similar to L and has the same Frobenius norm
_HERMITIAN_BASIS = np.stack([_vec(m) for m in _MEMBERS], axis=1)
_HERMITIAN_BASIS_H = _HERMITIAN_BASIS.conj().T
#: row k is H_k flattened row-major: ``y @ _MEMBER_ROWS`` is sum_k y_k H_k
#: flattened, and ``X.reshape(-1, 16) @ _MEMBER_ROWS.conj().T`` holds the
#: coordinates tr(H_k X) of X
_MEMBER_ROWS = _MEMBERS.reshape(16, 16)

#: the real forms B^H S B of the terms of :data:`_SUPEROPS` (their imaginary
#: parts are rounding, below 3e-17), and d F / d delta = -(F_0 + F_1)
_FORMS = (_HERMITIAN_BASIS_H @ _SUPEROPS @ _HERMITIAN_BASIS).real
_DETUNING_FORM = -(_FORMS[0] + _FORMS[1])

#: tr sum_k y_k H_k = _TRACE_ROW @ y: 1 on the diagonal members, 0 elsewhere
_TRACE_ROW = np.trace(_MEMBERS, axis1=1, axis2=2).real

#: ||M_s^-1||_F ||L||_F below this certifies one stationary direction
#: (:func:`_pencil_steady_states`): 100 times clear of 1 / (sqrt2 STATIONARY_TOL)
_CERTIFIED_BOUND = 1.0 / (100.0 * math.sqrt(2.0) * STATIONARY_TOL)

#: ||V||_F ||V^-1||_F (>= kappa_2(V)) above this fails every point of a
#: sweep in :func:`_pencil_steady_states`.  With unit eigenvectors sigma_min(V) >=
#: 1 / kappa_2(V), so the Gram form of ||V D W_1||_F^2 rounds within
#: ~800 u kappa^2 <= 1e-3 of itself, far inside the certificate's factor-100
#: margin; and the unrefined y is within ~u kappa <= 1e-11 of
#: M(delta)^-1 e_0, which one refinement step reduces to rounding.  5000
#: random driven configs read at most 4.7e3 (median 23).
_PENCIL_CONDITION = 1e5


def _master_form(cfg: SystemConfig, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(F0, F1, c, s): the real form
    F(delta) / s = F0 + (delta / s) F1 = B^H L(delta) B / s of the generator,
    B the unitary of :data:`_HERMITIAN_BASIS`, delta the drive detuning and
    s the config's :func:`~gawqed.core.rate_scale`, and the per-atom
    coefficients c of the output operators divided by sqrt(s).

    H = lamb_a n_a + (lamb_b - delta_ab) n_b + g_ab (s_a^+ s_b + s_b^+ s_a)
    - (i/2) sum_j (Omega_j s_j^+ - Omega_j^* s_j) - delta (n_a + n_b), with
    each drive written as Re Omega_j (-i/2)(s_j^+ - s_j)
    + Im Omega_j (s_j^+ + s_j)/2, and the dissipators carry Gamma_a, Gamma_b
    and Gamma_ab: F0 = sum_k x_k _FORMS[k] with these ten real
    coefficients x, each divided by s.  Every phase is the coupling points'
    own, as in the closed form and the real-space solve: c[j] = w_j / sqrt2,
    w_j the atom's coupling phasor from ``characteristics(cfg)``, the drives
    are Omega_j = 2 alpha c[j] = sum_n sqrt(2 gamma_jn) alpha e^{i theta_jn},
    and the outputs are b_r = sum_j c[j] sigma_j^- and
    b_t = alpha + sum_j conj(c[j]) sigma_j^-.
    """
    ch = characteristics(cfg)
    unit = float(rate_scale((cfg.atom_a.rates, cfg.atom_b.rates)))
    root = math.sqrt(unit)
    c = np.array([ch.w_a, ch.w_b]) / root / math.sqrt(2.0)
    om_a, om_b = 2.0 * (alpha / root) * c
    coefficients = np.array([
        ch.lamb_a / unit, (ch.lamb_b - cfg.delta_ab) / unit, ch.g_ab / unit,
        om_a.real, om_a.imag, om_b.real, om_b.imag,
        ch.gamma_a / unit, ch.gamma_b / unit, ch.gamma_ab / unit,
    ])
    f0 = np.tensordot(coefficients, _FORMS, axes=1)
    return f0, _DETUNING_FORM, c, unit


def build_liouvillian(cfg: SystemConfig, drive: DriveSpec) -> np.ndarray:
    """Assemble the 16 x 16 Lindblad generator in the drive rotating frame.

    The Hamiltonian carries the Lamb-shifted detunings, the exchange coupling
    g_ab and the position-phased Rabi drives; dissipation consists of the two
    individual decays and the collective cross terms weighted by Gamma_ab.
    It is L = s B F B^H of the real form F / s of :func:`_master_form`.
    """
    f0, f1, *_, unit = _master_form(cfg, drive.alpha)
    form = f0 + (drive.frequency_detuning / unit) * f1
    return unit * (_HERMITIAN_BASIS @ form @ _HERMITIAN_BASIS_H)


def _steady_state(form: np.ndarray) -> np.ndarray:
    """Stationary density matrix of the real form ``form`` of one generator,
    F = B^H L B (B the unitary of :data:`_HERMITIAN_BASIS`): the one-point
    pencil (:func:`_pencil_steady_states`), raising its first failed check's
    error.  Where the certificate fails, a real ``eigvals`` of F counts the
    stationary directions, and a count of 1 goes on to the next check; so an
    exactly singular bordered matrix with one stationary direction raises as
    a trace failure (where t F = 0, its null vector v has t v = 0 and
    F v = 0: that direction is traceless).  A non-finite F reaches neither
    ``inv`` nor ``eigvals``."""
    rho, failed, residual = _pencil_steady_states(form, np.zeros_like(form), np.zeros(1))
    messages = (
        "generator is not finite",
        None,  # no certificate: the count decides
        "steady state trace deviates from 1",  # M exactly singular
        f"stationarity residual {residual[0]:.2e} too large",
        "steady state trace deviates from 1",
        "steady state has a negative eigenvalue",
    )
    for check in np.flatnonzero(failed[:, 0]):
        if messages[check] is not None:
            raise SteadyStateError(messages[check])
        n_zero = int(np.sum(np.abs(np.linalg.eigvals(form)) <= STATIONARY_TOL * np.linalg.norm(form)))
        if n_zero != 1:
            raise SteadyStateError(
                f"steady state is not unique: {n_zero} stationary directions "
                "(decoupled or purely Hamiltonian dynamics)"
            )
    return rho[0]


def _negative_states(rho: np.ndarray) -> np.ndarray:
    """Whether each Hermitian rho of an (N, 4, 4) stack has an eigenvalue
    below -1e-10, from the pivots of the LDL^H factorisation of
    A = rho + 1e-10 I, which has a negative eigenvalue exactly there.

    Eliminating column k leaves the Schur complement of its pivot p, and
    by Sylvester's law of inertia A has a negative eigenvalue if p < 0.  So
    it has if p = 0 over a nonzero column b: the principal block
    [[0, b_i], [b_i*, c]] has the determinant -|b_i|^2.  A zero pivot over a
    zero column splits off an eigenvalue 0 (rho's -1e-10, not below), and
    elimination goes on without it; if every pivot is positive, A is
    positive definite.  A step after a pivot that is not positive only adds
    more verdicts of the same kind, and a NaN pivot reads as negative."""
    a = rho + 1e-10 * _ID4
    # a tiny pivot may overflow the update: the pivot after it is then
    # -inf or NaN, both negative verdicts
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(3):
            column, pivot = a[:, k + 1:, k], a[:, k, k].real
            scaled = column.conj() / np.where(pivot > 0.0, pivot, np.inf)[:, None]
            a[:, k + 1:, k + 1:] -= column[:, :, None] * scaled[:, None, :]
    pivots = a.diagonal(axis1=1, axis2=2).real
    lowest = pivots.min(axis=-1)  # NaN if any pivot is
    negative = ~(lowest >= 0.0)
    if (lowest == 0.0).any():
        for k in range(3):
            negative |= (pivots[:, k] == 0.0) & np.any(a[:, k + 1:, k] != 0.0, axis=-1)
    return negative


def _pencil_steady_states(
    f0: np.ndarray, f1: np.ndarray, detuning: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steady states of the real form F(delta) = F0 + delta F1 on the grid
    ``detuning`` from one eigendecomposition, and the verdict of every check
    at every point.

    The coordinates y of a steady state solve M y = e_0, M the bordered
    matrix: F with row 0 replaced by the real trace row t
    (t y = tr sum_k y_k H_k).  rho = sum_k y_k H_k is Hermitian exactly, its
    entries (j, k) and (k, j) being y_s / sqrt2 +- i y_a / sqrt2 of the same
    two real coordinates.  M(delta) = M_r + (delta - delta_r) J, with M_r
    that of the grid's midpoint delta_r and J = F1 with row 0 zeroed (it is
    zero already: the detuning term leaves the trace row alone).  With
    M_r^-1 J = V diag(mu) V^-1 and W = V^-1 M_r^-1,
    M(delta)^-1 = V diag(d) W for d = 1 / (1 + (delta - delta_r) mu), so
    every point costs (16,)-vector work: y = Re V (d W e_0), refined once
    against the exact M(delta) with the residual y F0^T + delta y F1^T,
    trace row in row 0.  Where every point is the reference (one point),
    d = 1 for every mu: V = I, mu = 0, W = M_r^-1, and no ``eig`` runs.

    The same inverse certifies that F has exactly one stationary direction.
    Let F preserve the trace (t F = 0) and let M_s be M with its trace row
    scaled by ||L||_F (= ||F||_F, B being unitary).  An eigenvector v with
    F v = lambda v, lambda != 0, has t v = 0, so M_s v = lambda (v - v_0 e_0)
    and sigma_min(M_s) <= |lambda|; a zero eigenvalue of multiplicity two or
    more has an eigenvector with t v = 0, which makes M singular.  So an
    invertible M means one zero eigenvalue, and every other one has
    |lambda| >= 1 / ||M_s^-1||_F.  The argument holds in any orthonormal
    basis, and F is similar to L.  The bound ||M_s^-1||_F ||L||_F does not
    change with the scale of the rates; M_s^-1 is M^-1 with column 0 (y)
    divided by ||L||_F.  Below 1 / (100 sqrt2 ``STATIONARY_TOL``) = 7.1e7,
    every nonzero eigenvalue lies more than 100 sqrt2 times outside the
    threshold of the count, and the count is 1.  On the pencil, ||L||_F
    comes from the Gram entries of (F0, F1), t F is t F0 + delta t F1, and
    ||M(delta)^-1[:, 1:]||_F^2 is the exact Gram form
    Re d^H [(V^H V) o (W_1 W_1^H)^T] d, W_1 = W[:, 1:].

    Returns the (N, 4, 4) states, the (6, N) mask of failed checks and the
    (N,) residuals ||F y||.  The mask's rows, in :func:`_steady_state`'s
    order: F(delta) is not finite (every tolerance scales with ||L||_F); no
    certificate; M_r is exactly singular; the residual exceeds
    1e-9 ||L||_F; the trace is off 1 by more than 1e-12; rho has an
    eigenvalue below -1e-10 (:func:`_negative_states`).  A grid whose F0,
    F1 or M_r is not finite (it reaches no ``inv``), whose M_r is exactly
    singular or whose V is ill-conditioned (:data:`_PENCIL_CONDITION`)
    fails every check but the first at every point.
    """
    count = len(detuning)
    column = detuning[:, None]

    def generator_times(y):  # F(delta) y at every point
        return y @ f0.T + column * (y @ f1.T)

    # overflow and nan fail the checks, each written so that a nan fails it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parts = np.stack([f0.ravel(), f1.ravel()])
        gram = parts @ parts.T
        scale = np.sqrt(gram[0, 0] + detuning * (2.0 * gram[0, 1] + detuning * gram[1, 1]))
        refused = np.zeros((count, 4, 4), dtype=complex), np.ones((6, count), dtype=bool), np.full(count, np.nan)
        refused[1][0] = ~np.isfinite(scale)
        reference = 0.5 * (detuning.min() + detuning.max()) if count else 0.0
        bordered = f0 + reference * f1
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(bordered))):
            return refused
        bordered[0] = _TRACE_ROW
        try:
            inverse = np.linalg.inv(bordered)
            if np.all(detuning == reference):
                mu, v, w = np.zeros(16), np.eye(16), inverse
            else:
                slope = f1.copy()
                slope[0] = 0.0
                mu, v = np.linalg.eig(inverse @ slope)
                v_inv = np.linalg.inv(v)
                if not np.linalg.norm(v) * np.linalg.norm(v_inv) <= _PENCIL_CONDITION:
                    return refused
                w = v_inv @ inverse
        except np.linalg.LinAlgError:  # M_r or V singular, or M_r^-1 not finite
            return refused

        d = 1.0 / (1.0 + (column - reference) * mu)
        y = ((d * w[:, 0]) @ v.T).real
        correction = -generator_times(y)
        correction[:, 0] = 1.0 - y @ _TRACE_ROW
        y = y + ((d * (correction @ w.T)) @ v.T).real

        trace_leak = np.max(np.abs(_TRACE_ROW @ f0 + column * (_TRACE_ROW @ f1)), axis=-1)
        w1 = w[:, 1:]
        weights = (v.conj().T @ v) * (w1 @ w1.conj().T).T
        tail = np.sqrt(np.real(np.sum(d.conj() * (d @ weights.T), axis=-1)))
        bound = np.hypot(scale * tail, np.linalg.norm(y, axis=-1))
        residual = np.linalg.norm(generator_times(y), axis=-1)
        rho = (y @ _MEMBER_ROWS).reshape(-1, 4, 4)
        failed = np.stack([
            ~np.isfinite(scale),
            ~((trace_leak <= 1e-12 * scale) & (bound < _CERTIFIED_BOUND)),
            np.zeros(count, dtype=bool),  # M_r is invertible
            ~(residual <= 1e-9 * scale),
            np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0) > 1e-12,
            _negative_states(rho),
        ])
    return rho, failed, residual


def _steady_states(f0: np.ndarray, f1: np.ndarray, detuning: np.ndarray) -> np.ndarray:
    """(N, 4, 4) steady states of F(delta) = F0 + delta F1 on the grid
    ``detuning``: those that pass every check of the pencil, and
    :func:`_steady_state` of every other point in grid order, so that the
    first failing point raises the error of a point-by-point sweep.  A grid
    of one point is the one-point call, bit for bit."""
    if len(detuning) == 1:
        return _steady_state(f0 + detuning[0] * f1)[None]
    rho, failed, _ = _pencil_steady_states(f0, f1, detuning)
    for k in np.flatnonzero(failed.any(axis=0)):
        rho[k] = _steady_state(f0 + detuning[k] * f1)
    return rho


def steady_state(liouvillian: np.ndarray) -> SteadyState:
    """Unique stationary density matrix of a complex 16 x 16 generator.

    Forms the generator's coordinates B^H L B in the Hermitian basis, where
    a generator that maps Hermitian matrices to Hermitian matrices is real,
    and solves their real part with :func:`_steady_state`: column 0 of the
    inverse of the bordered matrix, whose norm also certifies that the
    steady state is unique (the eigenvalues near zero are counted only
    where it does not).  Raises :class:`SteadyStateError` if the generator
    is not finite, if it does not map Hermitian matrices to Hermitian
    matrices (its coordinates have an imaginary part beyond
    1e-12 ||L||_F), if the zero eigenvalue is degenerate (e.g. a
    decoherence-free configuration whose dynamics is purely Hamiltonian)
    or if the solution is unphysical.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf in a non-finite generator
        form = _HERMITIAN_BASIS_H @ liouvillian @ _HERMITIAN_BASIS
        scale = np.linalg.norm(form)
    if not np.isfinite(scale):
        raise SteadyStateError("generator is not finite")
    if not np.max(np.abs(form.imag)) <= 1e-12 * scale:
        raise SteadyStateError("generator does not preserve Hermiticity")
    return SteadyState(rho=_steady_state(form.real))


def _channel_operator(coeffs: np.ndarray) -> np.ndarray:
    return coeffs[0] * SIGMA_MINUS_A + coeffs[1] * SIGMA_MINUS_B


def _channel_moments(rho: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<b> and the incoherent flux <b^+ b> - |<b>|^2 of the channel operator
    b = sum_j coeffs[j] sigma_j^- on a (N, 4, 4) stack of states."""
    op = _channel_operator(coeffs)
    mean = np.einsum("nij,ji->n", rho, op)
    second = np.einsum("nij,ji->n", rho, op.conj().T @ op).real
    return mean, second - np.abs(mean) ** 2


@dataclass(frozen=True)
class MasterSweep:
    """Master-equation observables on a grid of drive detunings.

    Every field holds one entry per grid point; ``rho`` is the (N, 4, 4)
    stack of steady states.  The entries are those of
    :class:`LindbladResult`.
    """

    detuning: np.ndarray
    rho: np.ndarray
    t: np.ndarray
    r: np.ndarray
    T: np.ndarray
    R: np.ndarray
    inelastic_flux: np.ndarray
    conservation_residual: np.ndarray


def master_sweep(
    cfg: SystemConfig, amplitude_sq: float, detuning: np.ndarray
) -> MasterSweep:
    """Steady-state transmission, reflection and inelastic flux on a detuning grid.

    Uses the real form F(delta) = F0 + delta F1 of the generator in the
    Hermitian basis (:func:`_master_form`), assembled once per sweep from
    the real coefficients in the config's rate scale s, in which the grid,
    |alpha|^2 and the flux are taken too.  Their bordered matrices form a
    pencil in delta, and one eigendecomposition of it
    (:func:`_pencil_steady_states`) gives the steady state of every grid
    point, refined once against the exact generator and kept if it passes
    every check, uniqueness certificate included.  The other points, every point of a grid that the
    pencil cannot serve (a singular reference matrix, an ill-conditioned
    eigenbasis) and a grid of one point are solved by :func:`_steady_state`
    one by one in grid order (:func:`_steady_states`); so every error, and
    its message, is the one of a point-by-point sweep.
    """
    if amplitude_sq <= 0.0:
        raise GawqedError("master-equation scattering requires a nonzero drive")
    detuning = np.atleast_1d(np.asarray(detuning, dtype=float))
    f0, f1, c, unit = _master_form(cfg, math.sqrt(amplitude_sq))
    rho = _steady_states(f0, f1, detuning / unit)
    amplitude_sq = amplitude_sq / unit  # as the flux below, in the unit s
    alpha = math.sqrt(amplitude_sq)

    flux = np.zeros(len(detuning))
    amplitudes = []
    for coeffs, offset in ((c.conj(), alpha), (c, 0.0)):
        mean, channel_flux = _channel_moments(rho, coeffs)
        flux += channel_flux
        amplitudes.append((offset + mean) / alpha)
    t, r = amplitudes

    big_t, big_r = np.abs(t) ** 2, np.abs(r) ** 2
    residual = np.abs(flux / amplitude_sq - (1.0 - big_t - big_r))
    return MasterSweep(detuning, rho, t, r, big_t, big_r, flux * unit, residual)


def scattering_from_master(cfg: SystemConfig, drive: DriveSpec) -> LindbladResult:
    """Steady-state transmission, reflection, and inelastic flux.

    t and r come from the coherent part of the output fields, in the phase
    reference of the closed form (:func:`_master_form`): they tend to
    :func:`gawqed.scattering.amplitudes_general`'s t and r as |alpha|^2
    goes to 0.  The inelastic flux F is the frequency-integrated incoherent
    output, computed from the equal-time second moments (for a stationary
    process this equals the integral of the inelastic power spectrum).
    ``conservation_residual`` is |F / |alpha|^2 - (1 - T - R)|.  This is
    the one-point case of :func:`master_sweep`.
    """
    sweep = master_sweep(cfg, drive.amplitude_sq, drive.frequency_detuning)
    return LindbladResult(
        steady=SteadyState(rho=sweep.rho[0]),
        t=complex(sweep.t[0]),
        r=complex(sweep.r[0]),
        T=float(sweep.T[0]),
        R=float(sweep.R[0]),
        inelastic_flux=float(sweep.inelastic_flux[0]),
        conservation_residual=float(sweep.conservation_residual[0]),
    )


def inelastic_spectrum(
    cfg: SystemConfig, drive: DriveSpec, nu_grid: np.ndarray
) -> SpectrumResult:
    """Inelastic power spectrum of each output channel on ``nu_grid``.

    Computes S(nu) = (1/pi) Re tr[dB' (i nu - L)^{-1} (dB rho_ss)] per channel
    via the quantum regression theorem, with dB the incoherent part of the
    output operator, in the Hermitian basis: one ``eig`` of the real form
    F = B^H L B gives the modes lambda_k = x_k + i y_k, and dB rho_ss and
    the observer dB' enter as coordinate vectors, which give each channel
    its mode weights a_k + i b_k.  A channel's S(nu) is then the sum of the
    real parts of (a_k + i b_k) / (i nu - lambda_k), the partial fractions
    (b_k d_k - a_k x_k) / (x_k^2 + d_k^2), d_k = nu - y_k, evaluated in
    real arithmetic over blocks of ``SPECTRUM_BLOCK`` frequencies: no
    complex array and no BLAS call runs on the nu axis, the working memory
    does not grow with the grid, and S at a frequency has the same bits in
    any grid.  F, nu and the weights are in the config's rate scale s, and
    S(nu), a flux per frequency, is the same in any unit.

    A term with |i nu - lambda_k| < 1e-12 ||F||_F is close and contributes 0.
    So the stationary mode (lambda ~ 0) enters: its weight is rounding, as
    dB rho_ss is traceless, and at nu = 0 it is close.  Raises
    :class:`SpectrumSingularError` if a close term's mode actually
    contributes (|a_k + i b_k| above the same bound), naming the first three
    such nu in grid order of the transmitted channel, checked over the whole
    grid, or else of the reflected one.
    """
    nu = np.asarray(nu_grid, dtype=float)
    f0, f1, c, unit = _master_form(cfg, drive.alpha)
    form = f0 + (drive.frequency_detuning / unit) * f1
    rho = _steady_state(form)
    eigvals, eigvecs = np.linalg.eig(form)

    ops = np.stack([_channel_operator(c.conj()), _channel_operator(c)])
    fluct = ops - np.einsum("ij,cji->c", rho, ops)[:, None, None] * _ID4
    # coordinates tr(H_k X) of dB rho_ss (the initial vector) and of dB'
    # (tr(dB' sum_k v_k H_k) = observer . v), two channels each
    coordinates = np.concatenate([fluct @ rho, fluct.conj().transpose(0, 2, 1)]).reshape(4, 16)
    start, observer = np.split(coordinates @ _MEMBER_ROWS.conj().T, 2)
    # C(t) = sum_k weights[k, c] e^{lambda_k t} for channel c
    weights = (observer @ eigvecs).T * np.linalg.solve(eigvecs, start.T)

    tol = 1e-12 * float(np.linalg.norm(form))
    # |i nu - lambda_k| >= |x_k|: only modes with |x_k| < tol can be close;
    # they move to the front, the first m
    order = np.argsort(np.abs(eigvals.real) >= tol, kind="stable")
    x, y, weights = eigvals.real[order], eigvals.imag[order], weights[order]
    m = int(np.sum(np.abs(x) < tol))
    frequency = nu / unit
    close = np.hypot(x[:m], frequency[:, None] - y[:m]) < tol
    for contributing in (np.abs(weights[:m]) > tol).T:
        singular = np.any(close[:, contributing], axis=1)
        if singular.any():
            raise SpectrumSingularError(
                f"resolvent singular at nu={nu[singular][:3]} (undamped eigenfrequency)"
            )
    # Re (a + ib) / (i nu - lambda) = b odd - a x even, with d = nu - y,
    # even = 1 / (x^2 + d^2) and odd = d even = 1 / (d + x^2 / d), which
    # stays finite where d^2 overflows; both are 0 at d = inf, which close
    # terms are given
    squares = (x * x)[:, None]
    odd_weights, even_weights = weights.imag[..., None], (x[:, None] * weights.real)[..., None]
    spectra = np.empty((2, len(nu)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for first in range(0, len(nu), SPECTRUM_BLOCK):
            rows = slice(first, first + SPECTRUM_BLOCK)
            d = frequency[rows] - y[:, None]
            d[:m][close[rows].T] = np.inf
            odd = 1.0 / (d + squares / d)
            even = 1.0 / (squares + d * d)
            terms = odd_weights * odd[:, None, :] - even_weights * even[:, None, :]
            spectra[:, rows] = terms.sum(axis=0)
    s_transmit, s_reflect = spectra / math.pi
    return SpectrumResult(nu=nu, s_transmit=s_transmit, s_reflect=s_reflect)
