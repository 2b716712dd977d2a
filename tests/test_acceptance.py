"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line to the real stdout (bypassing capture) so a scan of the
run log shows the verdicts at a glance.  The criteria check residual
magnitudes directly rather than trusting suite-internal tolerances.
"""

import itertools
import json
import time

import pytest

from kgconformal import coulomb as cb
from kgconformal import oscillator as ho
from kgconformal.cli import EXIT_PASS, main
from kgconformal.core import ComplexField, natural_units
from kgconformal.diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL, _diff
from kgconformal.harness import Grid, SUITES, run_suite
from kgconformal.shooting import EPS_RTOL, binding_parameter, shooting_eigenvalue
from kgconformal.specfun import eta_exponent

from conftest import point_rows

ALPHA = 0.0072973525693
EXACT = DiffConfig(mode=MODE_EXACT)
STENCIL = DiffConfig(mode=MODE_STENCIL)


@pytest.fixture
def announce(capfd):
    """One verdict line per criterion on the real stdout.

    pytest captures at the file-descriptor level, so the write has to
    happen inside capfd.disabled() to reach the run log.
    """

    def _announce(num, label, ok):
        with capfd.disabled():
            print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}",
                  flush=True)
        return ok

    return _announce


def regular(report):
    return [c for c in report.cases if not c.is_probe]


def probes(report):
    return [c for c in report.cases if c.is_probe]


def test_criterion_01_oscillator_x_residuals(announce):
    """x-representation eigenfunctions up to n = 6, both modes, < 30 s."""
    ok = True
    t0 = time.perf_counter()
    for cfg, tol in ((EXACT, 1e-10), (STENCIL, 1e-8)):
        rep = run_suite("oscillator-x", {"nmax": 6}, cfg)
        ok &= all(c.max_residual < tol for c in regular(rep))
        ok &= all(not c.passed for c in probes(rep))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert announce(1, f"oscillator-x residuals ({elapsed:.1f}s)", ok)


def test_criterion_02_oscillator_z_residuals(announce):
    """z-representation with shifted eigenvalue; no potential term."""
    ok = True
    for cfg, tol in ((EXACT, 1e-10), (STENCIL, 1e-8)):
        rep = run_suite("oscillator-z", {"nmax": 6}, cfg)
        ok &= all(c.max_residual < tol for c in regular(rep))
        ok &= all(not c.passed for c in probes(rep))
    # no potential term: on the constant field 1 each z-equation's residual
    # is the same at every grid point, while each x-equation's potential
    # makes its residual vary with r
    one = ComplexField(fn=lambda x1, x2, x3, t: 1.0, label="one")
    omodel = ho.OscillatorModel(omega=1.0, units=natural_units())
    cmodel = cb.CoulombModel(alpha=ALPHA, units=natural_units())
    state = cb.make_state(cmodel, 1, 0)
    e_osc = ho.energy(omodel, 0)
    systems = (
        (1.0, lambda d: ho.kg_residual_z(omodel, e_osc, d), lambda d: ho.kg_residual_x(omodel, e_osc, d)),
        (state.r_scale, lambda d: cb.kg_residual_z(cmodel, state, state.energy, d),
         lambda d: cb.kg_residual_x(cmodel, state.energy, d)),
    )
    for r_scale, z_res, x_res in systems:
        pts = Grid(r_min=0.1 * r_scale, r_max=20.0 * r_scale, shells=6).points()
        for cfg in (EXACT, STENCIL):
            d = _diff(one, pts, cfg)
            z, x = z_res(d)[0], x_res(d)[0]
            ok &= bool((z == z[0]).all() and x.min() < x.max())
    # and the eigenvalue it certifies is E^2 - 3 hbar c Omega, which the
    # suite residuals above already enforce; spot-check the shift itself
    ok &= abs((e_osc**2 - 3.0) - 1.0) < 1e-14
    assert announce(2, "oscillator-z residuals + potential-free form", ok)


def test_criterion_03_ladder_algebra(announce):
    """a psi_000 = 0 below 1e-10; number operator up to n = 4 below 1e-8."""
    rep = run_suite("ladder", {"nmax": 4}, EXACT)
    by = {c.name: c for c in rep.cases}
    ok = by["annihilate-ground"].max_residual < 1e-10
    for n in range(5):
        ok &= by[f"number-operator-n{n}"].max_residual < 1e-8
    ok &= by["lowering-proportionality"].max_residual < 1e-8
    ok &= not by["probe:number-operator-off-by-one"].passed
    assert announce(3, "ladder algebra", ok)


def test_criterion_04_operator_identities_on_random_fields(announce):
    """Both second-order operator identities on 100 seeded fields."""
    rep = run_suite("operator-identities", {"n_fields": 100}, EXACT)
    by = {c.name: c for c in rep.cases}
    ok = by["qprop-oscillator"].max_residual < 1e-8
    ok &= by["d2z-coulomb"].max_residual < 1e-8
    ok &= not by["probe:reversed-composition"].passed
    assert announce(4, "operator identities on 100 random fields", ok)


def test_criterion_05_spectrum_against_shooting_oracle(announce):
    """Closed-form Coulomb energies vs the independent oracle, on the 40
    states with l <= 3 and n <= 9.

    They are compared on eps = (1 - E^2)/alpha^2, where a relative 2e-9
    holds the oracle (7.4e-10 at worst, on (9, 3)) and rejects the
    nonrelativistic eps = 1/N^2 on every state (4.75e-7 at best, on
    (0, 3)).  E itself cannot tell the two apart: the Bohr energies lie
    within a relative 1.8e-9 of the closed form.
    """
    model = cb.CoulombModel(alpha=ALPHA, units=natural_units())
    ok = True
    for n, l in itertools.product(range(10), range(4)):
        eps_formula = binding_parameter(cb.make_state(model, n, l).energy, ALPHA)
        eps_shoot = binding_parameter(shooting_eigenvalue(n, l, ALPHA), ALPHA)
        ok &= abs(eps_shoot - eps_formula) / eps_formula < EPS_RTOL
        # probe: the nonrelativistic spectrum fails the same gate
        ok &= abs(1.0 / (n + l + 1) ** 2 - eps_formula) / eps_formula >= EPS_RTOL
    # nonrelativistic limit: binding energy within 1e-4 of Rydberg
    binding = cb.make_state(model, 0, 0).energy - 1.0
    rydberg = cb.nonrelativistic_binding(model, 0, 0)
    ok &= abs(binding - rydberg) / abs(rydberg) < 1e-4
    assert announce(5, "coulomb spectrum vs shooting oracle", ok)


def test_criterion_06_coulomb_residuals_and_flatness(announce):
    """Coulomb eigenfunction residuals < 1e-8; ground z-flatness < 1e-10."""
    ok = True
    for suite in ("coulomb-x", "coulomb-z"):
        rep = run_suite(suite, {}, EXACT)
        ok &= all(c.max_residual < 1e-8 for c in regular(rep))
        ok &= all(not c.passed for c in probes(rep))
        if suite == "coulomb-z":
            flat = [c for c in rep.cases if "flat" in c.name]
            ok &= len(flat) == 1 and flat[0].max_residual < 1e-10
    assert announce(6, "coulomb residuals + ground-state flatness", ok)


def test_criterion_07_representation_consistency(announce):
    """z- and x-representation eigenfunctions agree pointwise < 1e-12."""
    ok = True
    osc = ho.OscillatorModel(omega=1.0, units=natural_units())
    pts = Grid(r_min=0.1, r_max=4.0, shells=10).points()
    for n in range(5):
        for state in ho.states_with_n(osc, n):
            fx, fz = ho.eigenfunction_x(osc, state), ho.eigenfunction_z(osc, state)
            scale = max(abs(complex(fx.at(p))) for p in point_rows(pts))
            worst = max(abs(complex(fz.at(p)) - complex(fx.at(p))) for p in point_rows(pts))
            ok &= worst / scale < 1e-12
    cmodel = cb.CoulombModel(alpha=ALPHA, units=natural_units())
    for n, l in ((0, 0), (1, 0), (0, 1)):
        state = cb.make_state(cmodel, n, l)
        cpts = Grid(r_min=0.1 * state.r_scale, r_max=20.0 * state.r_scale, shells=10).points()
        fx, fz = cb.eigenfunction_x(cmodel, state), cb.eigenfunction_z(cmodel, state)
        scale = max(abs(complex(fx.at(p))) for p in point_rows(cpts))
        worst = max(abs(complex(fz.at(p)) - complex(fx.at(p))) for p in point_rows(cpts))
        ok &= worst / scale < 1e-12
    # the algebraic identities behind the construction, to 1e-14
    eta0 = eta_exponent(0, ALPHA)
    ok &= abs(eta0 * (1.0 - eta0) - ALPHA**2) < 1e-14
    for n, l in ((0, 0), (1, 0), (0, 1)):
        state = cb.make_state(cmodel, n, l)
        c1 = cb.transformed_decay_rate(state, eta0)
        ok &= abs((state.n + 1.0 - state.eta) / (1.0 - eta0) - c1 - 1.0) < 1e-14
    assert announce(7, "x/z representation consistency", ok)


def test_criterion_08_holomorphy(announce):
    """exp(-iEs) is holomorphic in s; a non-holomorphic probe is not."""
    rep = run_suite("holomorphy", {}, EXACT)
    by = {c.name: c for c in rep.cases}
    ok = by["phase-exp"].max_residual < 1e-10
    ok &= by["square"].max_residual < 1e-10
    # the probe must miss by at least five orders of magnitude
    ok &= by["probe:t-squared"].max_residual >= 1e5 * 1e-10
    assert announce(8, "holomorphy of the phase factor", ok)


def test_criterion_09_reductions(announce):
    """Omega -> 0 collapses the map; free plane waves satisfy the z-form."""
    rep = run_suite("reductions", {}, EXACT)
    ok = all(c.max_residual < 1e-8 for c in regular(rep))
    ok &= all(not c.passed for c in probes(rep))
    assert announce(9, "free-field reductions", ok)


def test_criterion_10_probes_and_reproducibility(tmp_path, announce):
    """All nine suites: regular cases pass, probes fail; reports are
    byte-identical across identical exact-mode runs."""
    cheap = {
        "oscillator-x": {"nmax": 2},
        "oscillator-z": {"nmax": 2},
        "ladder": {"nmax": 2},
        "operator-identities": {"n_fields": 3},
    }
    ok = True
    for suite in SUITES:
        rep = run_suite(suite, cheap.get(suite, {}), EXACT)
        suite_probes = probes(rep)
        ok &= bool(suite_probes)
        ok &= all(not c.passed for c in suite_probes)
        ok &= all(c.passed for c in regular(rep))
    args = ["verify", "--suite", "coulomb-z", "--mode", "exact"]
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ok &= main([*args, "--output", str(f1)]) == EXIT_PASS
    ok &= main([*args, "--output", str(f2)]) == EXIT_PASS
    ok &= f1.read_bytes() == f2.read_bytes()
    ok &= json.loads(f1.read_text())["summary"]["wall_ms"] == 0.0
    assert announce(10, "fail-probes + byte-identical reports", ok)
