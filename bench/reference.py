"""Independent 50-digit reference for single-photon scattering off two giant atoms.

The waveguide carries a right-moving and a left-moving plane wave; each of the
four coupling points (phase theta_n, bare rate gamma_n, coupling
V_n = sqrt(gamma_n / 2)) is a delta coupling to its atom.  Across point n the
amplitudes jump by

    A_{n+1} - A_n = -i V_n exp(-i theta_n) f_j,
    B_{n+1} - B_n = +i V_n exp(+i theta_n) f_j,

and each atom obeys Delta_j f_j = sum over its points of V_n times the mean of
the one-sided field values there.  With A_0 = 1 (incident photon) and
B_4 = 0 (nothing enters from the right), t = A_4 and r = B_0.  The linear
system is assembled from the raw phases and rates and solved in mpmath at 50
significant digits; nothing here shares code with the package under test.
"""

from __future__ import annotations

import mpmath

DIGITS = 50


def _points(atoms):
    """[(phase, rate, atom index)] sorted by phase, from [[(phase, rate)] * 2] * 2."""
    pts = [(mpmath.mpf(ph), mpmath.mpf(rate), j) for j, atom in enumerate(atoms) for ph, rate in atom]
    pts.sort(key=lambda p: p[0])
    return pts


def amplitudes(atoms, delta_ab, delta_a):
    """(t, r) as mpmath complex numbers at probe detuning ``delta_a``.

    ``atoms`` holds two atoms, each a pair of (phase, rate) points; the first
    atom is atom a (detuning delta_a), the second atom b (detuning
    delta_a + delta_ab).
    """
    with mpmath.workdps(DIGITS):
        pts = _points(atoms)
        det = (mpmath.mpf(delta_a), mpmath.mpf(delta_a) + mpmath.mpf(delta_ab))
        # unknowns: A_1..A_4 -> 0..3, B_0..B_3 -> 4..7, f_a -> 8, f_b -> 9
        a_idx = [None, 0, 1, 2, 3]
        b_idx = [4, 5, 6, 7, None]
        known_a = {0: mpmath.mpc(1)}
        mat = mpmath.matrix(10, 10)
        rhs = mpmath.matrix(10, 1)

        def put(row, idx, known, coeff):
            if idx is None:
                rhs[row] -= coeff * known
            else:
                mat[row, idx] += coeff

        for n, (theta, rate, j) in enumerate(pts):
            v = mpmath.sqrt(rate / 2)
            ep = mpmath.expj(theta)
            row = n  # right-mover jump
            put(row, a_idx[n + 1], 0, 1)
            put(row, a_idx[n], known_a.get(n, 0), -1)
            mat[row, 8 + j] += 1j * v / ep
            row = 4 + n  # left-mover jump
            put(row, b_idx[n + 1], 0, 1)
            put(row, b_idx[n], 0, -1)
            mat[row, 8 + j] += -1j * v * ep
        for j in (0, 1):
            row = 8 + j
            mat[row, 8 + j] += det[j]
            for n, (theta, rate, owner) in enumerate(pts):
                if owner != j:
                    continue
                v = mpmath.sqrt(rate / 2)
                ep = mpmath.expj(theta)
                for idx, known in ((a_idx[n], known_a.get(n, 0)), (a_idx[n + 1], 0)):
                    put(row, idx, known, -v * ep / 2)
                for idx in (b_idx[n], b_idx[n + 1]):
                    put(row, idx, 0, -v / ep / 2)
        x = mpmath.lu_solve(mat, rhs)
        return +x[3], +x[4]


def characteristics(atoms):
    """The eight characteristic quantities from the waveguide self-energy.

    M_jk = (1/2) sum over point pairs sqrt(gamma_n gamma_m) exp(i |theta_n - theta_m|)
    gives Gamma_j = 2 Re M_jj, lamb_j = Im M_jj, Gamma_ab = 2 Re M_ab and
    g_ab = Im M_ab; alpha_j is twice the argument of w_j = sum sqrt(gamma_n) e^{i theta_n}.
    Returned as floats in the CLI's column order.
    """
    with mpmath.workdps(DIGITS):
        def m(pa, pb):
            return sum(
                mpmath.sqrt(mpmath.mpf(ra) * mpmath.mpf(rb))
                * mpmath.expj(abs(mpmath.mpf(ta) - mpmath.mpf(tb)))
                for ta, ra in pa for tb, rb in pb
            ) / 2

        a, b = atoms
        maa, mbb, mab = m(a, a), m(b, b), m(a, b)
        w = [sum(mpmath.sqrt(mpmath.mpf(r)) * mpmath.expj(mpmath.mpf(t)) for t, r in atom) for atom in atoms]
        return [
            float(maa.imag), float(mbb.imag), float(2 * maa.real), float(2 * mbb.real),
            float(mab.imag), float(2 * mab.real),
            float(2 * mpmath.arg(w[0])), float(2 * mpmath.arg(w[1])),
        ]


#: which of the four sorted coupling points belong to atom a and to atom b
POINT_PAIRS = {"separate": ((0, 1), (2, 3)), "braided": ((0, 2), (1, 3)), "nested": ((0, 3), (1, 2))}


def symmetric_atoms(topology, phi, gamma=1.0):
    """Two-atom geometry of the symmetric shortcut, points at (0, phi, 2 phi, 3 phi)."""
    ph = [k * phi for k in range(4)]
    return [[(ph[i], gamma) for i in pair] for pair in POINT_PAIRS[topology]]


def to_complex(z) -> complex:
    return complex(float(z.real), float(z.imag))
