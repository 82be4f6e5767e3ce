import cmath
import itertools
import math

import numpy as np
import pytest

from gawqed import (
    CouplingPoint,
    DriveSpec,
    GiantAtom,
    SystemConfig,
    Topology,
    amplitudes_general,
    build_liouvillian,
    characteristics,
    inelastic_spectrum,
    scattering_from_master,
    steady_state,
    symmetric_config,
)
from gawqed import cli, lindblad
from gawqed.core import ConfigError, Geometries, detunings, rate_scale
from gawqed.lindblad import (
    _HERMITIAN_BASIS,
    STATIONARY_TOL,
    SIGMA_MINUS_A,
    SIGMA_MINUS_B,
    SteadyStateError,
    _channel_moments,
    _dissipator,
    _master_form,
    _steady_state,
    _vec,
    master_sweep,
)
from gawqed.scattering import _amplitude_arrays

from conftest import random_system


def collective_eit_config():
    """Separate topology at phi = pi/2, detuned atoms: genuine-EIT working point."""
    return symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=1.0)


def single_atom_eit_config():
    """Braided geometry with atom a decoupled: single-atom-state EIT."""
    atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(np.pi, 1.0)))
    atom_b = GiantAtom("b", (CouplingPoint(0.25 * np.pi, 1.0), CouplingPoint(2.25 * np.pi, 1.0)))
    return SystemConfig(atom_a, atom_b, delta_ab=np.sin(2 * np.pi))


def reference_rabi_amplitudes(cfg, alpha):
    """Omega_j = sum_n sqrt(2 gamma_jn) alpha e^{i theta_jn}, point by point."""
    return tuple(
        sum(math.sqrt(2.0 * p.bare_rate) * alpha * cmath.exp(1j * p.phase_coord) for p in atom.points)
        for atom in (cfg.atom_a, cfg.atom_b)
    )


def reference_liouvillian(cfg, drive):
    """The generator assembled term by term from Kronecker products."""
    eye = np.eye(4, dtype=complex)

    def left(op):
        return np.kron(eye, op)

    def right(op):
        return np.kron(op.T, eye)

    def sandwich(l_op, r_op):
        return np.kron(r_op.T, l_op)

    ch = characteristics(cfg)
    d_a, d_b = detunings(cfg, drive.frequency_detuning)
    om_a, om_b = reference_rabi_amplitudes(cfg, drive.alpha)
    sa, sb = SIGMA_MINUS_A, SIGMA_MINUS_B
    h = (
        -(d_a - ch.lamb_a) * (sa.conj().T @ sa)
        - (d_b - ch.lamb_b) * (sb.conj().T @ sb)
        + ch.g_ab * (sa.conj().T @ sb + sb.conj().T @ sa)
    )
    for om, sm in ((om_a, sa), (om_b, sb)):
        h += -0.5j * (om * sm.conj().T - np.conj(om) * sm)
    liouv = -1j * (left(h) - right(h))
    for rate, sj, sk in (
        (ch.gamma_a, sa, sa), (ch.gamma_b, sb, sb), (ch.gamma_ab, sa, sb), (ch.gamma_ab, sb, sa)
    ):
        k = sj.conj().T @ sk
        liouv += rate * (sandwich(sj, sk.conj().T) - 0.5 * (left(k) + right(k)))
    return liouv


class TestGenerator:
    def test_affine_in_drive_detuning(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cfg = random_system(rng)
            drive = DriveSpec(float(rng.uniform(1e-4, 0.1)), float(rng.uniform(-6, 6)))
            reference = reference_liouvillian(cfg, drive)
            f0, f1, *_, unit = _master_form(cfg, drive.alpha)
            affine = unit * (f0 + (drive.frequency_detuning / unit) * f1)
            bound = 1e-15 * np.linalg.norm(reference)
            assert np.max(np.abs(affine - _HERMITIAN_BASIS.conj().T @ reference @ _HERMITIAN_BASIS)) <= bound
            assert np.max(np.abs(build_liouvillian(cfg, drive) - reference)) <= bound

    def test_trace_preservation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cfg = random_system(rng)
            liouv = build_liouvillian(cfg, DriveSpec(0.02, float(rng.uniform(-3, 3))))
            trace_vec = _vec(np.eye(4, dtype=complex)).conj()
            assert np.linalg.norm(trace_vec @ liouv) < 1e-12

    def test_zero_drive_ground_state_stationary(self):
        cfg = symmetric_config(Topology.NESTED, 0.8, delta_ab=0.4)
        liouv = build_liouvillian(cfg, DriveSpec(0.0, 0.2))
        ground = np.zeros((4, 4), dtype=complex)
        ground[0, 0] = 1.0
        assert np.linalg.norm(liouv @ _vec(ground)) < 1e-14

    def test_decoherence_free_point_is_hamiltonian(self):
        # braided pi/2: all decays vanish, generator is -i [H, .]: purely
        # imaginary spectrum
        liouv = build_liouvillian(symmetric_config(Topology.BRAIDED, np.pi / 2), DriveSpec(0.01, 0.5))
        eigvals = np.linalg.eigvals(liouv)
        assert np.max(np.abs(eigvals.real)) < 1e-12
        ch = characteristics(symmetric_config(Topology.BRAIDED, np.pi / 2))
        assert ch.g_ab == pytest.approx(1.0, abs=1e-12)


class TestSteadyState:
    def test_zero_drive_ground(self):
        cfg = symmetric_config(Topology.SEPARATE, 0.7)
        ss = steady_state(build_liouvillian(cfg, DriveSpec(0.0, 0.0)))
        assert ss.population("gg") == pytest.approx(1.0, abs=1e-12)

    def test_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            cfg = random_system(rng)
            ss = steady_state(build_liouvillian(cfg, DriveSpec(0.05, float(rng.uniform(-4, 4)))))
            rho = ss.rho
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_linear_response_scaling(self):
        cfg = symmetric_config(Topology.BRAIDED, 0.4)
        strong = steady_state(build_liouvillian(cfg, DriveSpec(1e-4, 0.8)))
        quarter = steady_state(build_liouvillian(cfg, DriveSpec(0.25e-4, 0.8)))
        pop = lambda ss: ss.population("ge") + ss.population("eg")
        # populations are linear in |alpha|^2: halving alpha quarters them
        assert pop(strong) / pop(quarter) == pytest.approx(4.0, rel=1e-3)

    def test_decoherence_free_degeneracy_flagged(self):
        liouv = build_liouvillian(symmetric_config(Topology.BRAIDED, np.pi / 2), DriveSpec(0.01, 0.5))
        with pytest.raises(SteadyStateError, match="not unique"):
            steady_state(liouv)


def stationary_count(generator):
    return int(np.sum(np.abs(np.linalg.eigvals(generator)) <= STATIONARY_TOL * np.linalg.norm(generator)))


def random_generators():
    """240 random generators; every fourth sits at the decoherence-free
    braided point, whose zero eigenvalue is degenerate."""
    rng = np.random.default_rng(17)
    generators = []
    for k in range(240):
        if k % 4 == 0:
            cfg = symmetric_config(Topology.BRAIDED, np.pi / 2, gamma=float(rng.uniform(0.2, 3)))
        else:
            cfg = random_system(rng)
        drive = DriveSpec(float(rng.choice([0.0, rng.uniform(1e-4, 0.2)])), float(rng.uniform(-6, 6)))
        generators.append(build_liouvillian(cfg, drive))
    return generators


def figure_sets():
    """(config, |alpha|^2) of the paper's figure sets 7a-c and 8a-b."""
    atom_a = GiantAtom("a", (CouplingPoint(0.0, 1.0), CouplingPoint(np.pi, 1.0)))
    nested_b = GiantAtom("b", (CouplingPoint(0.25 * np.pi, 10.0), CouplingPoint(0.75 * np.pi, 10.0)))
    return [
        (symmetric_config(Topology.SEPARATE, np.pi / 2, delta_ab=1.0), 0.04),
        (symmetric_config(Topology.BRAIDED, np.pi, delta_ab=1.0), 0.04),
        (symmetric_config(Topology.NESTED, np.pi / 2, delta_ab=-1.0), 0.01),
        (single_atom_eit_config(), 0.01),
        (SystemConfig(atom_a, nested_b, delta_ab=10.0 * np.sin(0.5 * np.pi)), 0.04),
    ]


def figure_generators():
    """The generators of the paper's figure sets 7a-c and 8a-b on the
    121-point master-sweep grid."""
    return [
        build_liouvillian(cfg, DriveSpec(amplitude_sq, float(delta)))
        for cfg, amplitude_sq in figure_sets()
        for delta in np.linspace(-6, 6, 121)
    ]


def null_vector_states(stack):
    """The trace-normalised right-singular vectors of the smallest singular
    value of a (N, 16, 16) stack of complex generators, as density matrices."""
    _, _, vh = np.linalg.svd(stack)
    rho = vh[:, -1].conj().reshape(-1, 4, 4).transpose(0, 2, 1)  # column-stacked vec
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


class TestRealForm:
    """Stationary directions are counted on B^H L B in a Hermitian basis."""

    def test_basis_is_unitary(self):
        assert np.max(np.abs(_HERMITIAN_BASIS.conj().T @ _HERMITIAN_BASIS - np.eye(16))) < 1e-15

    def test_count_matches_complex_eigvals(self):
        counts = set()
        for liouv in random_generators():
            form = _HERMITIAN_BASIS.conj().T @ liouv @ _HERMITIAN_BASIS
            assert np.max(np.abs(form.imag)) <= 1e-12 * max(1.0, np.linalg.norm(liouv))
            count = stationary_count(liouv)
            assert stationary_count(form.real) == count
            counts.add(count)
        assert 1 in counts and len(counts) > 1

    def test_degenerate_message_keeps_count(self):
        liouv = build_liouvillian(symmetric_config(Topology.BRAIDED, np.pi / 2), DriveSpec(0.01, 0.5))
        count = stationary_count(liouv)
        assert count > 1
        with pytest.raises(SteadyStateError, match=f"not unique: {count} stationary directions"):
            steady_state(liouv)

    def test_non_hermiticity_preserving_generator_rejected(self):
        liouv = build_liouvillian(symmetric_config(Topology.SEPARATE, 0.7), DriveSpec(0.04, 0.5))
        steady_state(liouv)
        with pytest.raises(SteadyStateError, match="does not preserve Hermiticity"):
            steady_state(liouv + 1e-3j * np.eye(16))


def degenerate_message(count):
    return f"not unique: {count} stationary directions"


def solve_in_turn(generators):
    """``steady_state`` of each generator in turn: the first that fails raises."""
    for liouv in generators:
        steady_state(liouv)


class TestCertificate:
    """Uniqueness is certified from the bordered inverse; ``eigvals`` counts
    only the generators that the certificate leaves open."""

    @staticmethod
    def counted_without_eigvals(monkeypatch, generators):
        """Per generator, whether ``steady_state`` decided its count without
        ``eigvals``, and the message it raised (None if it passed)."""
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(len(a)) or eigvals(a))
        certified, messages = [], []
        for liouv in generators:
            calls.clear()
            try:
                steady_state(liouv)
                messages.append(None)
            except SteadyStateError as exc:
                messages.append(str(exc))
            certified.append(not calls)
        monkeypatch.undo()
        return np.array(certified), messages

    @pytest.mark.parametrize("generators", [random_generators, figure_generators], ids=["random", "figures"])
    def test_certified_count_is_one_at_every_scale(self, monkeypatch, generators):
        base = generators()
        counts = np.array([stationary_count(liouv) for liouv in base])
        certified, messages = self.counted_without_eigvals(monkeypatch, base)
        assert np.all(counts[certified] == 1)
        # the figure sets and three in four random generators need no eigvals
        assert certified.sum() == (180 if generators is random_generators else len(base))
        for count, message in zip(counts, messages):
            assert (message is None) == (count == 1)
            if count != 1:
                assert degenerate_message(count) in message
        for s in (1e-6, 1e6, 1e10):
            scaled, scaled_messages = self.counted_without_eigvals(monkeypatch, [s * liouv for liouv in base])
            np.testing.assert_array_equal(scaled, certified)
            assert scaled_messages == messages

    def test_first_failing_point_keeps_its_count(self):
        good = build_liouvillian(collective_eit_config(), DriveSpec(0.04, 0.5))
        degenerate = build_liouvillian(symmetric_config(Topology.BRAIDED, np.pi / 2), DriveSpec(0.0, 0.5))
        zero = np.zeros((16, 16), dtype=complex)
        count = stationary_count(degenerate)
        assert count not in (1, 16)
        # a zero generator's bordered matrix is exactly singular: its count
        # comes from eigvals
        for stack, first in (
            ([good, good, degenerate, good, zero], count),
            ([good, zero, good, degenerate], 16),
            ([zero], 16),
        ):
            with pytest.raises(SteadyStateError, match=degenerate_message(first)):
                solve_in_turn(stack)

    def test_singular_stack_checks_earlier_points(self):
        # decay of a at rate 1 against pumping at rate -0.5: one stationary
        # direction, whose excited population of a is -1
        sigma_plus_a = SIGMA_MINUS_A.conj().T
        unphysical = (_dissipator(SIGMA_MINUS_A, SIGMA_MINUS_A) - 0.5 * _dissipator(sigma_plus_a, sigma_plus_a)
                      + _dissipator(SIGMA_MINUS_B, SIGMA_MINUS_B))
        zero = np.zeros((16, 16), dtype=complex)
        assert stationary_count(unphysical) == 1
        for stack, message in (
            ([unphysical], "negative eigenvalue"),
            ([unphysical, zero], "negative eigenvalue"),
            ([zero, unphysical], degenerate_message(16)),
        ):
            with pytest.raises(SteadyStateError, match=message):
                solve_in_turn(stack)

    def test_overflowing_inverse_falls_back(self):
        # atom b decays 1e-250 times slower: the bordered matrix is invertible,
        # but the norm of its inverse overflows
        liouv = _dissipator(SIGMA_MINUS_A, SIGMA_MINUS_A) + 1e-250 * _dissipator(SIGMA_MINUS_B, SIGMA_MINUS_B)
        count = stationary_count(liouv)
        assert count == 4
        with pytest.raises(SteadyStateError, match=degenerate_message(count)):
            steady_state(liouv)

    def test_traceless_stationary_direction(self):
        # rho -> -rho + tr(D rho) D / 2, D = E_00 - E_11: Hermiticity-preserving,
        # not trace-preserving; its one stationary direction D is traceless, so
        # the bordered matrix is exactly singular and no unit-trace state exists
        d = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        liouv = -np.eye(16) + 0.5 * np.outer(_vec(d), _vec(d.T))
        assert stationary_count(liouv) == 1
        form = _HERMITIAN_BASIS.conj().T @ liouv @ _HERMITIAN_BASIS
        for solve, generator in ((steady_state, liouv), (_steady_state, form)):
            with pytest.raises(SteadyStateError, match="^steady state trace deviates from 1$"):
                solve(generator)

    def test_certificate_needs_trace_preservation(self):
        # uniform decay of everything: Hermiticity-preserving, not trace-preserving,
        # no stationary direction at all; the bordered matrix is invertible
        liouv = build_liouvillian(collective_eit_config(), DriveSpec(0.04, 0.5)) - 1e-3 * np.eye(16)
        assert stationary_count(liouv) == 0
        with pytest.raises(SteadyStateError, match=degenerate_message(0)):
            steady_state(liouv)

    def test_inaccurate_inverse_fails_the_residual(self, monkeypatch):
        # an inverse off by 1e-3 of its largest entry: the state misses
        # stationarity by far more than 1e-9 ||L||_F
        rng = np.random.default_rng(31)
        inv = np.linalg.inv

        def noisy(a):
            exact = inv(a)
            return exact + 1e-3 * np.max(np.abs(exact)) * rng.standard_normal(exact.shape)

        monkeypatch.setattr(np.linalg, "inv", noisy)
        liouv = build_liouvillian(collective_eit_config(), DriveSpec(0.04, 0.5))
        with pytest.raises(SteadyStateError, match=r"^stationarity residual \S+ too large$"):
            steady_state(liouv)


class TestRealFormSteadyState:
    """The real bordered solve in the Hermitian basis gives the complex
    generator's null vector."""

    @pytest.mark.parametrize("generators", [random_generators, figure_generators], ids=["random", "figures"])
    def test_matches_complex_null_vector(self, generators):
        base = np.stack([liouv for liouv in generators() if stationary_count(liouv) == 1])
        assert len(base) == (180 if generators is random_generators else 605)
        for s in (1.0, 1e-6, 1e6, 1e10):
            rho = np.stack([steady_state(liouv).rho for liouv in s * base])
            reference = null_vector_states(s * base)
            deviation = np.linalg.norm(rho - reference, axis=(1, 2))
            assert np.all(deviation <= 1e-12 * np.linalg.norm(reference, axis=(1, 2)))

    def test_states_are_hermitian_exactly(self):
        # rho = sum_k y_k H_k of real coordinates y is Hermitian bit for bit
        rng = np.random.default_rng(29)
        states = [
            master_sweep(random_system(rng), float(rng.uniform(1e-4, 0.2)), np.linspace(-6, 6, 41)).rho
            for _ in range(20)
        ]
        states += [steady_state(liouv).rho[None] for liouv in random_generators() if stationary_count(liouv) == 1]
        rho = np.concatenate(states)
        assert len(rho) == 20 * 41 + 180
        np.testing.assert_array_equal(rho, rho.conj().swapaxes(-1, -2))


def eigvalsh_verdict(rho):
    """The positivity verdict of the states check, from the eigenvalues."""
    return np.min(np.linalg.eigvalsh(rho), axis=-1) < -1e-10


class TestPositivity:
    """The LDL^H pivots of rho + 1e-10 I give the verdict "an eigenvalue
    below -1e-10" (lindblad._negative_states)."""

    def test_boundary_diagonal_states(self):
        # the smallest eigenvalue -1e-10 + k ulp, at each position, with a
        # coupled 2 x 2 block on two other positions or on none
        ulp = np.spacing(1e-10)
        block = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        for k, position, coupled in itertools.product(range(-3, 4), range(4), (False, True)):
            rho = np.diag(np.full(4, 0.25)).astype(complex)
            rho[position, position] = -1e-10 + k * ulp
            if coupled:
                others = [j for j in range(4) if j != position][1:]
                rho[np.ix_(others, others)] = block
            else:
                assert eigvalsh_verdict(rho[None]).tolist() == [k < 0]
            assert lindblad._negative_states(rho[None]).tolist() == [k < 0], (k, position, coupled)

    def test_zero_pivot_over_a_coupled_column(self):
        # rho_00 = -1e-10 makes the first pivot exactly 0; with rho_01 != 0
        # the smallest eigenvalue lies below -1e-10, without it it is -1e-10
        rho = np.diag([-1e-10, 0.5, 0.5, 1e-10]).astype(complex)
        coupled = rho.copy()
        coupled[0, 1], coupled[1, 0] = 1e-6j, -1e-6j
        stack = np.stack([rho, coupled])
        assert eigvalsh_verdict(stack).tolist() == [False, True]
        assert lindblad._negative_states(stack).tolist() == [False, True]

    def test_pure_and_rotated_states(self):
        rng = np.random.default_rng(41)
        psi = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        pure = np.concatenate([np.eye(4)[:, :, None] * np.eye(4)[:, None, :],
                               psi[:, :, None] * psi[:, None, :].conj()]).astype(complex)
        # a random unitary frame around eigenvalues that clear -1e-10 by
        # 1e-13, far outside either method's rounding
        unitary = np.linalg.qr(rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4)))[0]
        lowest = -1e-10 + np.where(np.arange(40) % 2, 1e-13, -1e-13)
        spectrum = np.stack([lowest, *np.full((3, 40), 1.0 / 3)], axis=1)
        rotated = unitary @ (spectrum[:, :, None] * unitary.conj().swapaxes(1, 2))
        rotated = 0.5 * (rotated + rotated.conj().swapaxes(1, 2))
        for states, expected in ((pure, np.zeros(len(pure), bool)), (rotated, np.arange(40) % 2 == 0)):
            assert eigvalsh_verdict(states).tolist() == expected.tolist()
            assert lindblad._negative_states(states).tolist() == expected.tolist()

    @pytest.mark.parametrize("generators", [random_generators, figure_generators], ids=["random", "figures"])
    def test_matches_eigvalsh_on_null_vectors(self, generators):
        # every generator, the degenerate configs included: their null
        # vectors mix stationary directions, and some are not positive
        states = null_vector_states(np.stack(generators()))
        verdict = eigvalsh_verdict(states)
        assert verdict.sum() == (15 if generators is random_generators else 0)
        assert lindblad._negative_states(states).tolist() == verdict.tolist()

    def test_nan_state_is_negative(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        broken = rho.copy()
        broken[2, 1] = math.nan
        assert lindblad._negative_states(np.stack([rho, broken])).tolist() == [False, True]


class TestNonFinite:
    """A generator with a nan or inf entry raises before any solve."""

    @pytest.fixture
    def finite_solves(self, monkeypatch):
        for name in ("inv", "eigvals"):
            solve = getattr(np.linalg, name)

            def checked(a, solve=solve):
                assert np.all(np.isfinite(a))
                return solve(a)

            monkeypatch.setattr(np.linalg, name, checked)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_raises_alone_and_in_a_stack(self, finite_solves, entry):
        good = build_liouvillian(collective_eit_config(), DriveSpec(0.04, 0.5))
        bad = good.copy()
        bad[3, 5] = entry
        degenerate = build_liouvillian(symmetric_config(Topology.BRAIDED, np.pi / 2), DriveSpec(0.0, 0.5))
        with pytest.raises(SteadyStateError, match="^generator is not finite$"):
            steady_state(bad)
        for stack in ([good, bad, good], [bad, degenerate], [good, bad, np.zeros((16, 16))]):
            with pytest.raises(SteadyStateError, match="^generator is not finite$"):
                solve_in_turn(stack)
        # an earlier failing point still raises first
        with pytest.raises(SteadyStateError, match="not unique"):
            solve_in_turn([degenerate, bad])


def drawn_configs():
    """The oracle-check draws of seed 0 as configs, their detunings and
    the closed form's t and r there."""
    geoms, delta, _ = cli._random_draws(np.random.default_rng(0), 300)
    cfgs = [
        SystemConfig(*(
            GiantAtom(label, tuple(CouplingPoint(float(p), float(g))
                                   for p, g in zip(geoms.phases[k, j], geoms.rates[k, j])))
            for j, label in enumerate("ab")
        ), delta_ab=float(geoms.delta_ab[k]))
        for k in range(len(geoms))
    ]
    return cfgs, delta, *_amplitude_arrays(geoms, delta)


class TestDriveSpec:
    @pytest.mark.parametrize("values, message", [
        ((math.nan, 0.0), "amplitude_sq must be finite"),
        ((0.01, math.inf), "frequency_detuning must be finite"),
        ((-1.0, 0.0), "amplitude_sq must be >= 0"),
    ], ids=["nan-flux", "inf-detuning", "negative-flux"])
    def test_invalid_drive_is_a_config_error(self, values, message):
        with pytest.raises(ConfigError, match=message):
            DriveSpec(*values)


class TestScattering:
    @pytest.mark.parametrize(
        "cfg",
        [
            symmetric_config(Topology.SEPARATE, np.pi / 4),
            # narrow braided features saturate harder; broader bare rates keep
            # the linear-response window at the same drive strength
            symmetric_config(Topology.BRAIDED, 2.3, gamma=3.0),
            symmetric_config(Topology.NESTED, np.pi / 3),
        ],
        ids=["separate", "braided", "nested"],
    )
    def test_weak_drive_matches_one_photon(self, cfg):
        for delta in np.linspace(-5.5, 5.5, 12):
            res = scattering_from_master(cfg, DriveSpec(1e-4, float(delta)))
            gen = amplitudes_general(cfg, float(delta))
            assert res.T == pytest.approx(gen.T, abs=1e-3)
            assert res.R == pytest.approx(gen.R, abs=1e-3)

    def test_residual_scales_linearly_in_drive(self):
        # anchor at the sweep's worst detuning so the linear term dominates
        cfg = symmetric_config(Topology.NESTED, np.pi / 3)
        grid = np.linspace(-6, 6, 51)
        errs = [
            abs(scattering_from_master(cfg, DriveSpec(1e-4, float(d))).T
                - amplitudes_general(cfg, float(d)).T)
            for d in grid
        ]
        d_star = float(grid[int(np.argmax(errs))])
        gen = amplitudes_general(cfg, d_star)
        res3 = scattering_from_master(cfg, DriveSpec(1e-3, d_star))
        res4 = scattering_from_master(cfg, DriveSpec(1e-4, d_star))
        ratio = abs(res3.T - gen.T) / abs(res4.T - gen.T)
        assert 8.0 < ratio < 12.0

    def test_random_configs_converge_linearly_in_drive(self):
        # the oracle-check draws of seed 0: the master T and R approach the
        # closed form as |alpha|^2 -> 0, the deviation ten times smaller per
        # decade wherever it is above rounding
        cfgs, delta, t, r = drawn_configs()
        deviations = []
        for amplitude_sq in (1e-4, 1e-5):
            sweeps = [master_sweep(cfg, amplitude_sq, d) for cfg, d in zip(cfgs, delta)]
            big_t, big_r = (np.concatenate([getattr(sweep, name) for sweep in sweeps]) for name in ("T", "R"))
            deviations.append(np.maximum(np.abs(big_t - np.abs(t) ** 2), np.abs(big_r - np.abs(r) ** 2)))
        above = deviations[1] > 1e-10
        assert above.sum() >= 290
        ratio = deviations[0][above] / deviations[1][above]
        assert np.all((8.0 <= ratio) & (ratio <= 12.0))

    def test_random_configs_share_the_closed_form_phases(self):
        # the complex t and r, not only T and R: the Richardson limit of
        # alpha^2 = 1e-7 and 1e-8 is the closed form's, phase included
        cfgs, delta, t, r = drawn_configs()
        for cfg, d, want_t, want_r in zip(cfgs, delta, t, r):
            weak, weaker = (master_sweep(cfg, amplitude_sq, d) for amplitude_sq in (1e-7, 1e-8))
            assert abs((10.0 * weaker.t[0] - weak.t[0]) / 9.0 - want_t) <= 1e-12
            assert abs((10.0 * weaker.r[0] - weak.r[0]) / 9.0 - want_r) <= 1e-12

    def test_conservation_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cfg = random_system(rng)
            drive = DriveSpec(float(rng.uniform(1e-4, 0.1)), float(rng.uniform(-5, 5)))
            res = scattering_from_master(cfg, drive)
            assert res.conservation_residual < 1e-8

    def test_zero_drive_rejected(self):
        with pytest.raises(Exception, match="nonzero drive"):
            scattering_from_master(symmetric_config(Topology.SEPARATE, 0.3), DriveSpec(0.0, 0.0))


class TestMasterSweep:
    def test_matches_one_point_calls(self):
        cfg = random_system(np.random.default_rng(13))
        grid = np.linspace(-6, 6, 301)
        sweep = master_sweep(cfg, 0.02, grid)
        for k, delta in enumerate(grid):
            one = scattering_from_master(cfg, DriveSpec(0.02, float(delta)))
            assert np.max(np.abs(sweep.rho[k] - one.steady.rho)) <= 1e-14
            for name in ("t", "r", "T", "R", "inelastic_flux", "conservation_residual"):
                assert abs(getattr(sweep, name)[k] - getattr(one, name)) <= 1e-14

    def test_degenerate_point_raises(self):
        cfg = symmetric_config(Topology.BRAIDED, np.pi / 2)
        count = stationary_count(build_liouvillian(cfg, DriveSpec(0.01, -1.0)))
        with pytest.raises(SteadyStateError, match=degenerate_message(count)):
            master_sweep(cfg, 0.01, np.linspace(-1, 1, 5))

    def test_zero_drive_rejected(self):
        with pytest.raises(Exception, match="nonzero drive"):
            master_sweep(symmetric_config(Topology.SEPARATE, 0.3), 0.0, np.zeros(3))


def fallback_points(monkeypatch):
    """The generators :func:`master_sweep` hands to ``_steady_state``, in a
    list that the spy fills."""
    solved = []
    direct = lindblad._steady_state

    def spy(form):
        solved.append(form)
        return direct(form)

    monkeypatch.setattr(lindblad, "_steady_state", spy)
    return solved


def direct_sweep_message(cfg, amplitude_sq, grid):
    """The error of solving the points of the grid directly in turn, and
    the number of points solved up to and including the failing one."""
    f0, f1, *_, unit = lindblad._master_form(cfg, math.sqrt(amplitude_sq))
    solved = 0
    with pytest.raises(SteadyStateError) as info:
        for delta in grid:
            solved += 1
            _steady_state(f0 + (delta / unit) * f1)
    return str(info.value), solved


def inverse_bounds(f0, f1, grid):
    """The certificate's bound ||M_s^-1||_F ||L||_F from the inverse at
    every grid point, and a limit between two neighbouring values of it."""
    bordered = f0 + grid[:, None, None] * f1
    bordered[:, 0] = lindblad._TRACE_ROW
    inverse = np.linalg.inv(bordered)
    scale = np.linalg.norm(f0 + grid[:, None, None] * f1, axis=(1, 2))
    bound = np.hypot(scale * np.linalg.norm(inverse[..., 1:], axis=(1, 2)), np.linalg.norm(inverse[..., 0], axis=1))
    ordered = np.sort(bound)
    k = 50 + int(np.argmax(ordered[51:71] / ordered[50:70]))  # the widest gap near the median
    assert ordered[k + 1] / ordered[k] > 1.005
    return bound, math.sqrt(ordered[k] * ordered[k + 1])


class TestPencil:
    """Every steady state is solved from the bordered pencil
    M(delta) = M_r + (delta - delta_r) J: a sweep from one eigendecomposition,
    a single point as the pencil of one.  The points of a sweep that fail a
    check, and every point of a grid it cannot serve, go to ``_steady_state``
    one by one, which reads the one-point pencil's verdicts."""

    def test_detuning_slope(self):
        # J = F1: zero trace row, skew, rank 10, for every config and drive
        rng = np.random.default_rng(21)
        configs = figure_sets() + [(random_system(rng), float(rng.uniform(1e-4, 0.2))) for _ in range(10)]
        for cfg, amplitude_sq in configs:
            f1 = _master_form(cfg, math.sqrt(amplitude_sq))[1]
            assert np.all(f1[0] == 0.0)
            assert np.all(f1 == -f1.T)
            assert np.linalg.matrix_rank(f1) == 10

    def test_no_fallback_on_driven_configs(self, monkeypatch):
        rng = np.random.default_rng(23)
        sweeps = [(cfg, amplitude_sq, np.linspace(-6, 6, 121)) for cfg, amplitude_sq in figure_sets()]
        sweeps += [(random_system(rng), float(rng.uniform(1e-4, 0.2)), np.linspace(-6, 6, 41))
                   for _ in range(40)]
        solved = fallback_points(monkeypatch)
        for cfg, amplitude_sq, grid in sweeps:
            master_sweep(cfg, amplitude_sq, grid)
        assert len(solved) == 0

    @pytest.mark.parametrize("index", range(5), ids=["7a", "7b", "7c", "8a", "8b"])
    def test_certificate_matches_the_inverse_bound(self, monkeypatch, index):
        # with the certificate's limit set between two neighbouring values of
        # the inverse-based bound, the pencil's Gram form keeps exactly the
        # points below it
        cfg, amplitude_sq = figure_sets()[index]
        f0, f1 = _master_form(cfg, math.sqrt(amplitude_sq))[:2]
        grid = np.linspace(-6, 6, 121)
        bound, limit = inverse_bounds(f0, f1, grid)
        monkeypatch.setattr(lindblad, "_CERTIFIED_BOUND", limit)
        _, failed, _ = lindblad._pencil_steady_states(f0, f1, grid)
        np.testing.assert_array_equal(~failed.any(axis=0), bound < limit)

    def test_pencil_and_direct_solve_meet(self, monkeypatch):
        # fig. 7a with the certificate's limit inside the grid's bounds: the
        # pencil accepts the points below it and hands the others, in grid
        # order, to the one-point solve, which certifies them by eigvals
        cfg, amplitude_sq = figure_sets()[0]
        f0, f1 = _master_form(cfg, math.sqrt(amplitude_sq))[:2]
        grid = np.linspace(-6, 6, 121)
        bound, limit = inverse_bounds(f0, f1, grid)
        monkeypatch.setattr(lindblad, "_CERTIFIED_BOUND", limit)
        solved = fallback_points(monkeypatch)
        sweep = master_sweep(cfg, amplitude_sq, grid)
        rejected = grid[bound >= limit]
        assert 0 < len(rejected) < len(grid)
        assert len(solved) == len(rejected)
        for form, delta in zip(solved, rejected):
            np.testing.assert_array_equal(form, f0 + delta * f1)
        for k, delta in enumerate(grid):
            one = scattering_from_master(cfg, DriveSpec(amplitude_sq, float(delta)))
            assert np.max(np.abs(sweep.rho[k] - one.steady.rho)) <= 1e-14
            for name in ("t", "r", "inelastic_flux"):
                assert abs(getattr(sweep, name)[k] - getattr(one, name)) <= 1e-14

    @pytest.mark.parametrize("case", ["degenerate-crossing", "singular-reference"])
    def test_degenerate_grid_falls_back_whole(self, monkeypatch, case):
        # the pencil accepts no point, so the sweep solves the points one by
        # one up to and including the first failing one
        grid = np.linspace(-1, 1, 5)
        if case == "degenerate-crossing":
            # decoherence-free: the dynamics is Hamiltonian at every detuning
            cfg, amplitude_sq, count, first = symmetric_config(Topology.BRAIDED, np.pi / 2), 0.01, 8, 1
        else:
            # F(delta) = delta G: zero, so M_r exactly singular, at the midpoint 0
            cfg, amplitude_sq, count, first = collective_eit_config(), 0.04, 16, 3
            f0, f1, *outputs = _master_form(cfg, 0.2)
            monkeypatch.setattr(lindblad, "_master_form", lambda *args: (0.0 * f0, f0 + 0.5 * f1, *outputs))
        message, direct = direct_sweep_message(cfg, amplitude_sq, grid)
        assert degenerate_message(count) in message
        assert direct == first
        solved = fallback_points(monkeypatch)
        with pytest.raises(SteadyStateError) as info:
            master_sweep(cfg, amplitude_sq, grid)
        assert str(info.value) == message
        assert len(solved) == first

    def test_ill_conditioned_basis_falls_back_whole(self, monkeypatch):
        cfg, grid = collective_eit_config(), np.linspace(-1, 1, 5)
        pencil = master_sweep(cfg, 0.04, grid)
        monkeypatch.setattr(lindblad, "_PENCIL_CONDITION", 1.0)
        solved = fallback_points(monkeypatch)
        sweep = master_sweep(cfg, 0.04, grid)
        assert len(solved) == len(grid)
        np.testing.assert_array_equal(sweep.rho, np.stack([
            scattering_from_master(cfg, DriveSpec(0.04, float(delta))).steady.rho for delta in grid
        ]))
        assert np.max(np.abs(sweep.rho - pencil.rho)) <= 1e-14

    def test_real_eigenvalues(self, monkeypatch):
        # a detuning-independent generator: K = 0, whose eigendecomposition is real
        cfg = collective_eit_config()
        f0, f1, *outputs = _master_form(cfg, 0.2)
        monkeypatch.setattr(lindblad, "_master_form", lambda *args: (f0, 0.0 * f1, *outputs))
        dtypes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: dtypes.append([x.dtype for x in eig(a)]) or eig(a))
        solved = fallback_points(monkeypatch)
        sweep = master_sweep(cfg, 0.04, np.linspace(-6, 6, 7))
        assert dtypes == [[np.float64, np.float64]] and len(solved) == 0
        direct = _steady_state(f0)
        assert np.max(np.abs(sweep.rho - direct)) <= 1e-14


class TestQuench:
    def test_collective_scheme_quenched(self):
        cfg = collective_eit_config()
        res = scattering_from_master(cfg, DriveSpec(0.04, 0.5))  # transparency detuning
        assert res.inelastic_flux < 1e-6 * 0.04
        assert res.steady.population("ee") < 1e-10
        assert res.T == pytest.approx(1.0, abs=1e-9)

    def test_single_atom_scheme_not_quenched(self):
        cfg = single_atom_eit_config()
        transparency = characteristics(cfg).lamb_a
        res = scattering_from_master(cfg, DriveSpec(0.01, transparency))
        assert res.inelastic_flux > 1e-3 * 0.01
        assert res.steady.population("ee") > 0.0
        assert res.T < 1.0


def incoherent_channel_flux(cfg, drive):
    """Equal-time incoherent flux of each channel (the spectrum's integral):
    the per-channel moments of :func:`master_sweep` at one point, the output
    coefficients of ``_master_form`` being in its rate scale s."""
    rho = master_sweep(cfg, drive.amplitude_sq, drive.frequency_detuning).rho
    *_, c, unit = _master_form(cfg, drive.alpha)
    return tuple(unit * float(_channel_moments(rho, coeffs)[1][0]) for coeffs in (c.conj(), c))


class TestSpectrum:
    def test_zero_drive_silent(self):
        cfg = symmetric_config(Topology.SEPARATE, 0.6)
        spec = inelastic_spectrum(cfg, DriveSpec(0.0, 0.0), np.linspace(-4, 4, 21))
        assert np.max(np.abs(spec.s_total)) == 0.0

    def test_quenched_at_collective_transparency(self):
        spec = inelastic_spectrum(
            collective_eit_config(), DriveSpec(0.04, 0.5), np.linspace(-5, 5, 41)
        )
        assert np.max(np.abs(spec.s_total)) < 1e-12

    def test_integral_matches_moment(self):
        cfg = single_atom_eit_config()
        drive = DriveSpec(0.01, 0.9)
        flux_t, flux_r = incoherent_channel_flux(cfg, drive)
        # the midpoint sum over nu = tan(theta), theta in (-pi/2, pi/2): it
        # never evaluates the ends, where the resolvent sum's rounding of its
        # 1/nu term is multiplied by nu^2
        cells = 20000
        theta = math.pi * ((np.arange(cells) + 0.5) / cells - 0.5)
        nu = np.tan(theta)
        spec = inelastic_spectrum(cfg, drive, nu)
        for s, moment in ((spec.s_transmit, flux_t), (spec.s_reflect, flux_r)):
            integral = math.pi / cells * np.sum(s * (1.0 + nu**2))
            assert integral == pytest.approx(moment, rel=1e-6)

    def test_undamped_contributing_mode_raises(self, monkeypatch):
        # every mode of a driven config is damped: strip the modes of their
        # damping and probe at their frequencies
        cfg, drive = single_atom_eit_config(), DriveSpec(0.01, 0.9)
        f0, f1, *_, unit = _master_form(cfg, drive.alpha)
        frequencies = np.linalg.eigvals(f0 + (drive.frequency_detuning / unit) * f1).imag
        eig = np.linalg.eig

        def undamped(a):
            values, vectors = eig(a)
            return 1j * values.imag, vectors

        monkeypatch.setattr(np.linalg, "eig", undamped)
        with pytest.raises(lindblad.SpectrumSingularError, match="undamped eigenfrequency"):
            inelastic_spectrum(cfg, drive, unit * frequencies)

    def test_positive_where_fluorescing(self):
        cfg = single_atom_eit_config()
        spec = inelastic_spectrum(cfg, DriveSpec(0.01, 0.9), np.linspace(-6, 6, 61))
        assert spec.s_total.max() > 0.0


class TestSpectrumOracle:
    """The regression-theorem spectrum against a direct solve of
    (i nu - L) z = vec(dB rho) with the complex L, without ``eig``."""

    NU = np.array([-7.5, -2.2, -0.6, 0.3, 0.9, 3.1, 11.0])

    @staticmethod
    def direct_spectrum(cfg, drive, nu):
        liouv = build_liouvillian(cfg, drive)
        rho = null_vector_states(liouv[None])[0]
        *_, c, unit = _master_form(cfg, drive.alpha)
        channels = []
        for coeffs in (math.sqrt(unit) * c.conj(), math.sqrt(unit) * c):
            op = coeffs[0] * SIGMA_MINUS_A + coeffs[1] * SIGMA_MINUS_B
            fluct = op - np.trace(rho @ op) * np.eye(4)
            shifted = 1j * nu[:, None, None] * np.eye(16) - liouv
            z = np.linalg.solve(shifted, np.broadcast_to(_vec(fluct @ rho), (len(nu), 16))[..., None])
            unvec_z = z[..., 0].reshape(-1, 4, 4).transpose(0, 2, 1)
            channels.append(np.einsum("ij,nji->n", fluct.conj().T, unvec_z).real / math.pi)
        return channels

    @pytest.mark.parametrize("index", range(5), ids=["7a", "7b", "7c", "8a", "8b"])
    def test_matches_direct_solve(self, index):
        cfg, amplitude_sq = figure_sets()[index]
        drive = DriveSpec(amplitude_sq, 0.3)
        spec = inelastic_spectrum(cfg, drive, self.NU)
        # S(nu) integrates to a flux below |alpha|^2 over a width of the rate scale
        tol = 1e-12 * amplitude_sq / rate_scale(Geometries.of([cfg]).rates)[0]
        for got, want in zip((spec.s_transmit, spec.s_reflect), self.direct_spectrum(cfg, drive, self.NU)):
            assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("index", range(5), ids=["7a", "7b", "7c", "8a", "8b"])
    def test_zero_frequency_is_continuous(self, index):
        # i nu - L is singular at nu = 0, where the stationary mode is masked out
        cfg, amplitude_sq = figure_sets()[index]
        spec = inelastic_spectrum(cfg, DriveSpec(amplitude_sq, 0.3), np.array([0.0, 1e-6, -1e-6]))
        for s in (spec.s_transmit, spec.s_reflect):
            assert abs(s[0] - 0.5 * (s[1] + s[2])) <= 1e-9 * abs(s[0])
