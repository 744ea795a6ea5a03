import math

import numpy as np
import pytest

from qaction import (
    GaussianPhaseState, LambdaPath, PacketDiagnostics, chi_closed_form,
    chi_initial, integrate_chi, packet_diagnostics,
)


def test_chi_initial_values():
    st = chi_initial(1.0)
    assert st.chi0 == complex(-0.25 * math.log(2.0 * math.pi))
    assert st.chi1 == 0.0
    assert st.chi2 == -0.5
    assert st.s == 0.0
    assert chi_initial(2.0).chi2 == -0.125
    assert st.center == 0.0
    assert st.width == 1.0


def test_chi_initial_unit_norm():
    for sigma in (0.5, 1.0, 3.0):
        x = np.linspace(-12.0 * sigma, 12.0 * sigma, 4001)
        diag = packet_diagnostics(chi_initial(sigma), x)
        assert abs(diag.norm - 1.0) < 1e-12
        assert abs(diag.center) < 1e-12
        assert math.isclose(diag.width, sigma, rel_tol=1e-6)


def test_chi_initial_domain():
    with pytest.raises(ValueError):
        chi_initial(0.0)
    with pytest.raises(ValueError):
        chi_initial(-1.0)
    with pytest.raises(ValueError):
        GaussianPhaseState(chi0=complex(np.nan), chi1=0j, chi2=-0.5 + 0j, s=0.0)


def test_closed_form_constant_path(u_half):
    sigma = 1.3
    path = LambdaPath.constant(3.2, 0.8)
    st = chi_closed_form(path, sigma, 0.9, u_half, 0.5)
    # chi1 grows linearly: -chi2(0) * integral of lambda
    assert math.isclose(st.chi1.real, 3.2 * 0.5 / (2.0 * sigma * sigma),
                        rel_tol=1e-14)
    assert st.chi1.imag == 0.0
    assert st.chi2 == chi_initial(sigma).chi2
    assert math.isclose(st.center, 3.2 * 0.5, rel_tol=1e-13)
    assert st.width == sigma


def test_closed_form_at_zero_matches_initial(u_half):
    path = LambdaPath.constant(-1.7, 2.0)
    init = chi_initial(0.7)
    st = chi_closed_form(path, 0.7, None, u_half, 0.0)
    assert st.chi0 == init.chi0
    assert st.chi1 == init.chi1
    assert st.chi2 == init.chi2


def test_closed_form_two_segments(u_half):
    sigma = 0.9
    path = LambdaPath(np.array([0.6, 1.5]), np.array([1.5, -0.7]))
    st = chi_closed_form(path, sigma, None, u_half, path.S)
    L = 1.5 * 0.6 + (-0.7) * 0.9
    assert math.isclose(st.chi1.real, L / (2.0 * sigma * sigma), rel_tol=1e-13)


def test_closed_form_zero_path(u_half):
    # lambda = 0 leaves the packet frame-stationary; only the global phase runs
    d = 0.4 * u_half.mc
    m2c2 = (u_half.mass * u_half.c) ** 2
    path = LambdaPath.constant(0.0, 2.0)
    init = chi_initial(1.0)
    st = chi_closed_form(path, 1.0, d, u_half, 2.0)
    assert st.chi1 == 0.0
    assert st.chi0.real == init.chi0.real
    assert math.isclose(st.chi0.imag, -(d * d - m2c2) * 2.0 / u_half.hbar,
                        rel_tol=1e-14)


def test_integrate_matches_closed_form(u_half):
    rng = np.random.default_rng(11)
    for _ in range(10):
        nseg = int(rng.integers(1, 5))
        S = float(rng.uniform(0.3, 2.0))
        path = LambdaPath.equal_segments(rng.uniform(-6.0, 6.0, size=nseg), S)
        sigma = float(rng.uniform(0.5, 2.0))
        d = float(rng.uniform(-3.0, 3.0))
        traj = integrate_chi(chi_initial(sigma), path, d, u_half, 2000)
        ref = chi_closed_form(path, sigma, d, u_half, path.S)
        last = traj[-1]
        assert abs(last.chi0 - ref.chi0) < 1e-10
        assert abs(last.chi1 - ref.chi1) < 1e-10
        assert last.chi2 == ref.chi2  # never driven, must not drift at all
        assert math.isclose(last.s, path.S, rel_tol=0, abs_tol=1e-12)


def test_trajectory_row_count(u_half):
    path = LambdaPath(np.array([1.0, 2.5]), np.array([2.0, 1.0]))
    traj = integrate_chi(chi_initial(1.0), path, None, u_half, 4)
    # ceil(4 * 1.0 / 2.5) = 2 and ceil(4 * 1.5 / 2.5) = 3 substeps
    assert len(traj) == 6
    assert traj[0].s == 0.0
    s_vals = [st.s for st in traj]
    assert all(b > a for a, b in zip(s_vals, s_vals[1:]))


def test_packet_center_tracks_integral(u_half):
    path = LambdaPath.equal_segments([4.0, -1.0, 2.5], 1.2)
    traj = integrate_chi(chi_initial(0.8), path, None, u_half, 600)
    for st in traj[1:]:
        L = path.integral(upto=min(st.s, path.S))
        assert math.isclose(st.center, L, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(st.width, 0.8, rel_tol=1e-14)


def test_norm_preserved_under_evolution(u_half):
    path = LambdaPath.constant(3.0, 1.0)
    st = chi_closed_form(path, 1.0, None, u_half, 1.0)
    x = np.linspace(st.center - 12.0, st.center + 12.0, 4001)
    diag = packet_diagnostics(st, x)
    assert abs(diag.norm - 1.0) < 1e-10


def test_delta_sequence_scaling():
    # shrinking sigma concentrates the packet while sigma * peak density stays put
    for sigma in (1.0, 0.1, 0.01):
        st = chi_initial(sigma)
        peak = math.exp(2.0 * st.chi0.real)  # |psi(0)|^2 at the center
        assert math.isclose(peak * sigma, 1.0 / math.sqrt(2.0 * math.pi),
                            rel_tol=1e-12)
        x = np.linspace(-10.0 * sigma, 10.0 * sigma, 2001)
        diag = packet_diagnostics(st, x)
        assert math.isclose(diag.width, sigma, rel_tol=1e-5)


def test_integrate_domain_errors(u_half):
    path = LambdaPath.constant(1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_chi(chi_initial(1.0), path, None, u_half, 0)
    moved = GaussianPhaseState(chi0=0j, chi1=0j, chi2=-0.5 + 0j, s=0.5)
    with pytest.raises(ValueError):
        integrate_chi(moved, path, None, u_half, 100)


def test_diagnostics_domain_errors():
    st = chi_initial(1.0)
    with pytest.raises(ValueError):
        packet_diagnostics(st, np.zeros(12))
    with pytest.raises(ValueError):
        packet_diagnostics(st, np.linspace(1.0, 0.0, 50))
    # exp(2 Re chi) underflows to zero fifty widths out
    with pytest.raises(ValueError, match="density vanishes"):
        packet_diagnostics(st, np.linspace(50.0, 60.0, 50))
    bad = GaussianPhaseState(chi0=0j, chi1=0j, chi2=0.25 + 0j, s=0.0)
    with pytest.raises(ValueError):
        packet_diagnostics(bad, np.linspace(-5.0, 5.0, 101))
    with pytest.raises(ValueError):
        bad.center
    with pytest.raises(ValueError):
        bad.width
    with pytest.raises(ValueError):
        PacketDiagnostics(center=0.0, width=-1.0, norm=1.0)
