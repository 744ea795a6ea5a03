import math
import re

import numpy as np
import pytest

from qaction import (
    GaussianPhaseState, LambdaPath, PacketDiagnostics, chi_initial, integrate_chi,
    packet_diagnostics,
)
from qaction.gaussian_phase import MAX_RK4_STEPS
from oracles import chi_closed_form


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
    # sigma^2 underflows to 0: once a bare math domain error or ZeroDivisionError;
    # chi2 (1e-155) or chi0 (1e155) overflows: once "chi2 is not finite" or
    # "chi0 is not finite", which name no input
    for sigma in (1e-200, 1e-162, 1e-155):
        with pytest.raises(ValueError, match="sigma = .* is too small"):
            chi_initial(sigma)
    with pytest.raises(ValueError, match=r"sigma = 1e\+155 is too large"):
        chi_initial(1e155)
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
        for st in traj:
            ref = chi_closed_form(path, sigma, d, u_half, st.s)
            assert abs(st.chi0 - ref.chi0) < 1e-10
            assert abs(st.chi1 - ref.chi1) < 1e-10
            assert st.chi2 == ref.chi2  # never driven, must not drift at all
        assert traj[-1].s == path.S


def test_sample_times_sit_on_the_breakpoints(u_half):
    # a running sum of h once ended this path at s = 2.9000000000000443, past
    # S, where chi_closed_form raised "outside path domain"
    path = LambdaPath(np.array([0.3, 0.7, 2.9]), np.array([1.5, -2.0, 3.0]))
    traj = integrate_chi(chi_initial(0.9), path, None, u_half, 997)
    s = [st.s for st in traj]
    assert all(b > a for a, b in zip(s, s[1:]))
    assert [t for t in s if t in (0.3, 0.7, 2.9)] == [0.3, 0.7, 2.9]
    assert s[-1] == path.S
    for st in traj:
        ref = chi_closed_form(path, 0.9, None, u_half, st.s)
        assert abs(st.chi0 - ref.chi0) < 1e-10 and abs(st.chi1 - ref.chi1) < 1e-10


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
        L = path.integral(upto=st.s)
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
    with pytest.raises(ValueError, match="whole number"):
        integrate_chi(chi_initial(1.0), path, None, u_half, 2.5)
    with pytest.raises(ValueError, match="RK4 work budget"):  # refused before the loop
        integrate_chi(chi_initial(1.0), path, None, u_half, MAX_RK4_STEPS + 1)
    moved = GaussianPhaseState(chi0=0j, chi1=0j, chi2=-0.5 + 0j, s=0.5)
    with pytest.raises(ValueError):
        integrate_chi(moved, path, None, u_half, 100)
    # a step that stands still, h = 0 or subnormal: once every state at s = 0.0
    for end in (5e-324, 1e-310):
        with pytest.raises(ValueError, match="segment 0 .* subnormal step h"):
            integrate_chi(chi_initial(1.0), LambdaPath.constant(20.0, end), None, u_half, 50)


def test_width_too_small_for_the_path_is_refused_by_name(u_half):
    # L peaks at 3.5 on this path: sigma = 5.3e-155 gives chi2 = -1.78e308, so
    # chi2 L^2 / 2 = -1.1e309 (and chi2 L); 1e-154 only chi2 L. Both once
    # ended in "chi0 is not finite" or "chi1 is not finite", which name no input
    path = LambdaPath(np.array([1.0, 2.5]), np.array([2.0, 1.0]))
    for sigma in (5.3e-155, 1e-154):
        with pytest.raises(ValueError, match=rf"packet width sigma = {sigma!r} is too small "
                           r"for a path whose lambda integral reaches \|L\| = 3\.5"):
            integrate_chi(chi_initial(sigma), path, None, u_half, 50)
    # at L = 1.5 chi2 = -1.5e308 leaves chi2 L^2 / 2 finite but not chi2 L
    short = LambdaPath.constant(1.5, 1.0)
    wide = GaussianPhaseState(chi0=0j, chi1=0j, chi2=-1.5e308 + 0j, s=0.0)
    with pytest.raises(ValueError, match=r"\|L\| = 1\.5: chi1 or chi0 overflows"):
        integrate_chi(wide, short, None, u_half, 10)
    last = integrate_chi(chi_initial(1e-150), path, None, u_half, 50)[-1]
    assert math.isclose(last.chi1.real, 3.5 * 0.5e300, rel_tol=1e-12)
    # L runs 0 -> 2 -> -2: chi2 = -6.2e307 keeps chi2 L and chi2 L^2 / 2 finite,
    # but at 2 steps the second segment's one step has lambda h = -4, and -4 chi2
    # overflows: once "chi1 is not finite" (RK4's stage sum 6 lambda chi2 did).
    # At 4 steps its two steps have lambda h = -2, with midpoints at L = +-1
    swing = LambdaPath(np.array([1.0, 2.0]), np.array([2.0, -4.0]))
    with pytest.raises(ValueError, match=r"sigma = 9e-155 is too small for steps of "
                       r"\|lambda h\| = 4: .* raise steps"):
        integrate_chi(chi_initial(9e-155), swing, None, u_half, 2)
    last = integrate_chi(chi_initial(9e-155), swing, None, u_half, 4)[-1]
    ref = chi_closed_form(swing, 9e-155, None, u_half, swing.S)
    assert math.isclose(last.chi1.real, ref.chi1.real, rel_tol=1e-15)
    assert math.isclose(last.chi0.real, ref.chi0.real, rel_tol=1e-15)


def test_widths_at_the_float_edge_integrate_or_name_the_input(u_half):
    # widths whose chi2 L^2 / 2 is near the float range, on paths whose L
    # changes sign, where one step's lambda h can exceed the largest |L|:
    # each run is the quadrature solution at every sample or a ValueError
    # naming sigma (chi_initial's in full, integrate_chi's in 6 digits, for the
    # path's |L| or a step's |lambda h|); none ends in "is not finite"
    rng = np.random.default_rng(40)
    outcomes = {"matched": 0, "sigma": 0, "|L|": 0, "|lambda h|": 0}
    while sum(outcomes.values()) < 300:
        nseg = int(rng.integers(2, 4))
        ends = np.cumsum(rng.uniform(0.1, 2.0, nseg))
        lam = rng.uniform(-3.0, 3.0, nseg)
        path = LambdaPath(ends, lam)
        if not path.cumulative_integral().min() < 0.0 < path.cumulative_integral().max():
            continue
        sigma = float(10.0 ** rng.uniform(-155.5, -153.0))
        steps = int(rng.choice([1, 2, 3, 50]))
        try:
            traj = integrate_chi(chi_initial(sigma), path, None, u_half, steps)
        except ValueError as e:
            said = re.match(rf"(packet width )?sigma = ({re.escape(repr(sigma))}|{sigma:.6g}) "
                            r"is too small(: chi0| for .*(\|L\||\|lambda h\|) = )", str(e))
            assert said, str(e)
            outcomes[said.group(4) or "sigma"] += 1
            continue
        refs = [chi_closed_form(path, sigma, None, u_half, min(st.s, path.S)) for st in traj]
        for name in ("chi0", "chi1"):
            scale = max(abs(getattr(r, name)) for r in refs)
            err = max(abs(getattr(st, name) - getattr(r, name)) for st, r in zip(traj, refs))
            assert err <= 1e-13 * scale
        outcomes["matched"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_diagnostics_domain_errors():
    st = chi_initial(1.0)
    with pytest.raises(ValueError):
        packet_diagnostics(st, np.zeros(12))
    with pytest.raises(ValueError):
        packet_diagnostics(st, np.linspace(1.0, 0.0, 50))
    # the sum runs over the window center +- 8 widths, [-8, 8] here: a grid
    # that stops short of either end is refused, as is one whose density
    # underflows to zero fifty widths out
    for grid in (np.linspace(-1.0, 1.0, 50), np.linspace(50.0, 60.0, 50)):
        with pytest.raises(ValueError, match=r"reach past the packet's window \[-8\.0, 8\.0\]"):
            packet_diagnostics(st, grid)
    # a step touching the window wider than half a width: once norm 2.1e152
    # (1e307-wide intervals beside the center weighed the density at x = 3),
    # width 1.43 on 8 points over [-10, 10]; 1e308 - (-1e308) and x * x past
    # 1e154 overflow, with no numpy warning since neither is taken
    for grid in (np.array([-1e308, -1.5e307, -1e307, -3.0, 3.0, 1e307, 1.5e307, 1e308]),
                 np.linspace(-10.0, 10.0, 8),
                 np.array([-1.7e308, -1.5e308, -1.3e308, -1e308,
                           1e308, 1.3e308, 1.5e308, 1.7e308]),
                 np.linspace(-1e200, 1e200, 50), np.linspace(-1e200, 1e200, 51)):
        with pytest.raises(ValueError, match="at most w / 2 = 0.5"):
            packet_diagnostics(st, grid)
    # a density that underflows everywhere has no norm (once a vanishing sum)
    faint = GaussianPhaseState(chi0=-800.0 + 0j, chi1=0j, chi2=-0.5 + 0j, s=0.0)
    with pytest.raises(ValueError, match="width and norm must be positive"):
        packet_diagnostics(faint, np.linspace(-12.0, 12.0, 241))
    # the state refuses Re chi2 >= 0 itself, so no diagnostic meets one
    for chi2 in (0.25 + 0j, 1j):
        with pytest.raises(ValueError, match="not normalizable"):
            GaussianPhaseState(chi0=0j, chi1=0j, chi2=chi2, s=0.0)
    with pytest.raises(ValueError):
        PacketDiagnostics(center=0.0, width=-1.0, norm=1.0)
