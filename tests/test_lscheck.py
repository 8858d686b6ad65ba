"""Boundary catalog determinants and the three routes to the LS verdict."""

import math
import random
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from platelab import lscheck
from platelab.lscheck import (
    DEFAULT_MARGIN_TOL,
    PERTURBATION_CAP,
    PERTURBATION_FLOOR,
    PERTURBATION_RADII,
    BoundaryOperatorSymbol,
    ParameterSymbol,
    TangentialTerm,
    catalog_bc,
    catalog_names,
    load_bc_file,
    ls_conjugated,
    ls_rank_oracle,
    ls_unconjugated,
    perturbation_margin,
    positivity_margin,
    sample_conjugated,
)
from platelab.symbols import (
    RootCase,
    TangentialPoint,
    WeightJet,
    classify_stack,
)
from test_symbols import covering_points, stack_points

X0 = np.array([0.0, 0.0])


def closed_form_det(name, a, omega):
    """Printed closed forms of the catalog determinants; a is the value of
    the parameter symbol at omega (signed for odd degrees)."""
    w = abs(omega)
    if name == "hinged":
        return -2j * w
    if name == "clamped":
        return -1j
    if name == "neumann_pair":
        return -2j * w ** 3
    if name == "ex2_dn2_dn3":
        return 5j * w ** 4
    if name == "ex3_dn_dn3_A":
        return 1j * (a - 2.0 * w ** 3)
    if name == "ex4_id_dn2_A":
        return -1j * (a + 2.0 * w)
    if name == "ex5_dn2A_dn3":
        return -1j * w ** 3 * (2.0 * a + 3.0 * w)
    raise KeyError(name)


# float.hex of the real and imaginary parts of ls_unconjugated's determinant
# and of its margin, keyed by (pair, parameter a or None for the default,
# omega'); recorded while ls_unconjugated still evaluated its own
# determinant, so a change of any bit, a signed zero included, fails here
UNCONJUGATED_HEX = {
    ('clamped', None, 0.5): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('clamped', None, -0.5): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('clamped', None, 1.0): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('clamped', None, -1.0): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('clamped', None, 2.0): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('clamped', None, -2.0): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('degenerate_equal', None, 0.5): ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('degenerate_equal', None, -0.5): ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('degenerate_equal', None, 1.0): ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('degenerate_equal', None, -1.0): ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('degenerate_equal', None, 2.0): ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('degenerate_equal', None, -2.0): ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    ('ex2_dn2_dn3', None, 0.5): ('0x0.0p+0', '0x1.4000000000000p-2', '0x1.4000000000000p+2'),
    ('ex2_dn2_dn3', None, -0.5): ('0x0.0p+0', '0x1.4000000000000p-2', '0x1.4000000000000p+2'),
    ('ex2_dn2_dn3', None, 1.0): ('0x0.0p+0', '0x1.4000000000000p+2', '0x1.4000000000000p+2'),
    ('ex2_dn2_dn3', None, -1.0): ('0x0.0p+0', '0x1.4000000000000p+2', '0x1.4000000000000p+2'),
    ('ex2_dn2_dn3', None, 2.0): ('0x0.0p+0', '0x1.4000000000000p+6', '0x1.4000000000000p+2'),
    ('ex2_dn2_dn3', None, -2.0): ('0x0.0p+0', '0x1.4000000000000p+6', '0x1.4000000000000p+2'),
    ('ex3_dn_dn3_A', None, 0.5): ('0x0.0p+0', '-0x1.8000000000000p-2', '0x1.8000000000000p+1'),
    ('ex3_dn_dn3_A', None, -0.5): ('0x0.0p+0', '-0x1.0000000000000p-3', '0x1.0000000000000p+0'),
    ('ex3_dn_dn3_A', None, 1.0): ('0x0.0p+0', '-0x1.8000000000000p+1', '0x1.8000000000000p+1'),
    ('ex3_dn_dn3_A', None, -1.0): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('ex3_dn_dn3_A', None, 2.0): ('0x0.0p+0', '-0x1.8000000000000p+4', '0x1.8000000000000p+1'),
    ('ex3_dn_dn3_A', None, -2.0): ('0x0.0p+0', '-0x1.0000000000000p+3', '0x1.0000000000000p+0'),
    ('ex4_id_dn2_A', None, 0.5): ('0x0.0p+0', '-0x1.8000000000000p+0', '0x1.8000000000000p+1'),
    ('ex4_id_dn2_A', None, -0.5): ('0x0.0p+0', '-0x1.0000000000000p-1', '0x1.0000000000000p+0'),
    ('ex4_id_dn2_A', None, 1.0): ('0x0.0p+0', '-0x1.8000000000000p+1', '0x1.8000000000000p+1'),
    ('ex4_id_dn2_A', None, -1.0): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('ex4_id_dn2_A', None, 2.0): ('0x0.0p+0', '-0x1.8000000000000p+2', '0x1.8000000000000p+1'),
    ('ex4_id_dn2_A', None, -2.0): ('0x0.0p+0', '-0x1.0000000000000p+1', '0x1.0000000000000p+0'),
    ('ex5_dn2A_dn3', None, 0.5): ('0x0.0p+0', '-0x1.4000000000000p-2', '0x1.4000000000000p+2'),
    ('ex5_dn2A_dn3', None, -0.5): ('0x0.0p+0', '-0x1.0000000000000p-4', '0x1.0000000000000p+0'),
    ('ex5_dn2A_dn3', None, 1.0): ('0x0.0p+0', '-0x1.4000000000000p+2', '0x1.4000000000000p+2'),
    ('ex5_dn2A_dn3', None, -1.0): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('ex5_dn2A_dn3', None, 2.0): ('0x0.0p+0', '-0x1.4000000000000p+6', '0x1.4000000000000p+2'),
    ('ex5_dn2A_dn3', None, -2.0): ('0x0.0p+0', '-0x1.0000000000000p+4', '0x1.0000000000000p+0'),
    ('hinged', None, 0.5): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+1'),
    ('hinged', None, -0.5): ('0x0.0p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p+1'),
    ('hinged', None, 1.0): ('0x0.0p+0', '-0x1.0000000000000p+1', '0x1.0000000000000p+1'),
    ('hinged', None, -1.0): ('0x0.0p+0', '-0x1.0000000000000p+1', '0x1.0000000000000p+1'),
    ('hinged', None, 2.0): ('0x0.0p+0', '-0x1.0000000000000p+2', '0x1.0000000000000p+1'),
    ('hinged', None, -2.0): ('0x0.0p+0', '-0x1.0000000000000p+2', '0x1.0000000000000p+1'),
    ('neumann_pair', None, 0.5): ('0x0.0p+0', '-0x1.0000000000000p-2', '0x1.0000000000000p+1'),
    ('neumann_pair', None, -0.5): ('0x0.0p+0', '-0x1.0000000000000p-2', '0x1.0000000000000p+1'),
    ('neumann_pair', None, 1.0): ('0x0.0p+0', '-0x1.0000000000000p+1', '0x1.0000000000000p+1'),
    ('neumann_pair', None, -1.0): ('0x0.0p+0', '-0x1.0000000000000p+1', '0x1.0000000000000p+1'),
    ('neumann_pair', None, 2.0): ('0x0.0p+0', '-0x1.0000000000000p+4', '0x1.0000000000000p+1'),
    ('neumann_pair', None, -2.0): ('0x0.0p+0', '-0x1.0000000000000p+4', '0x1.0000000000000p+1'),
    ('ex3_dn_dn3_A', 0.5, 0.5): ('0x0.0p+0', '-0x1.8000000000000p-3', '0x1.8000000000000p+0'),
    ('ex3_dn_dn3_A', 0.5, -0.5): ('0x0.0p+0', '-0x1.4000000000000p-2', '0x1.4000000000000p+1'),
    ('ex3_dn_dn3_A', 0.5, 1.0): ('0x0.0p+0', '-0x1.8000000000000p+0', '0x1.8000000000000p+0'),
    ('ex3_dn_dn3_A', 0.5, -1.0): ('0x0.0p+0', '-0x1.4000000000000p+1', '0x1.4000000000000p+1'),
    ('ex3_dn_dn3_A', 0.5, 2.0): ('0x0.0p+0', '-0x1.8000000000000p+3', '0x1.8000000000000p+0'),
    ('ex3_dn_dn3_A', 0.5, -2.0): ('0x0.0p+0', '-0x1.4000000000000p+4', '0x1.4000000000000p+1'),
    ('ex4_id_dn2_A', -1.3, 0.5): ('0x0.0p+0', '-0x1.6666666666666p-2', '0x1.6666666666666p-1'),
    ('ex4_id_dn2_A', -1.3, -0.5): ('0x0.0p+0', '-0x1.a666666666666p+0', '0x1.a666666666666p+1'),
    ('ex4_id_dn2_A', -1.3, 1.0): ('0x0.0p+0', '-0x1.6666666666666p-1', '0x1.6666666666666p-1'),
    ('ex4_id_dn2_A', -1.3, -1.0): ('0x0.0p+0', '-0x1.a666666666666p+1', '0x1.a666666666666p+1'),
    ('ex4_id_dn2_A', -1.3, 2.0): ('0x0.0p+0', '-0x1.6666666666666p+0', '0x1.6666666666666p-1'),
    ('ex4_id_dn2_A', -1.3, -2.0): ('0x0.0p+0', '-0x1.a666666666666p+2', '0x1.a666666666666p+1'),
    ('ex5_dn2A_dn3', 2.2, 0.5): ('0x0.0p+0', '-0x1.d99999999999ap-2', '0x1.d99999999999ap+2'),
    ('ex5_dn2A_dn3', 2.2, -0.5): ('0x0.0p+0', '0x1.6666666666668p-4', '0x1.6666666666668p+0'),
    ('ex5_dn2A_dn3', 2.2, 1.0): ('0x0.0p+0', '-0x1.d99999999999ap+2', '0x1.d99999999999ap+2'),
    ('ex5_dn2A_dn3', 2.2, -1.0): ('0x0.0p+0', '0x1.6666666666668p+0', '0x1.6666666666668p+0'),
    ('ex5_dn2A_dn3', 2.2, 2.0): ('0x0.0p+0', '-0x1.d99999999999ap+6', '0x1.d99999999999ap+2'),
    ('ex5_dn2A_dn3', 2.2, -2.0): ('0x0.0p+0', '0x1.6666666666668p+4', '0x1.6666666666668p+0'),
}


def aprime_value(name, c, omega):
    """Default scalar parameter symbol evaluated at a signed 1-D omega."""
    if name == "ex3_dn_dn3_A":
        return c * omega ** 3
    if name in ("ex4_id_dn2_A", "ex5_dn2A_dn3"):
        return c * omega
    return None


def sample_params(name, rng):
    if name == "ex3_dn_dn3_A":
        return float(rng.uniform(-1.9, 1.9))
    if name == "ex4_id_dn2_A":
        return float(rng.uniform(-1.5, 3.0))
    if name == "ex5_dn2A_dn3":
        return float(rng.uniform(-1.2, 3.0))
    return None


class TestCatalog:
    @pytest.mark.parametrize("name,expected", [
        ("hinged", -2j),
        ("clamped", -1j),
        ("ex2_dn2_dn3", 5j),
    ])
    def test_printed_determinants(self, name, expected):
        b1, b2 = catalog_bc(name)
        rep = ls_unconjugated(b1, b2, X0, [1.0])
        assert rep.determinant == pytest.approx(expected, abs=1e-12)
        assert rep.verdict

    def test_parameterized_determinants_at_unit(self):
        for name, a in [("ex3_dn_dn3_A", -1.0), ("ex4_id_dn2_A", 1.0),
                        ("ex5_dn2A_dn3", 1.0)]:
            b1, b2 = catalog_bc(name, {"a": a})
            rep = ls_unconjugated(b1, b2, X0, [1.0])
            assert rep.determinant == pytest.approx(closed_form_det(name, a, 1.0),
                                                    abs=1e-12)

    def test_closed_forms_at_random_radii(self, rng):
        # a' defaults to the scalar odd form c * omega_1 * r^((p-1)/2), so
        # its value carries the sign of omega
        for name in catalog_names():
            for _ in range(20):
                a = sample_params(name, rng)
                pair = catalog_bc(name, {"a": a} if a is not None else None)
                omega = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1, 1]))
                aval = aprime_value(name, a, omega)
                rep = ls_unconjugated(*pair, X0, [omega])
                expected = closed_form_det(name, aval, omega)
                assert abs(rep.determinant - expected) <= \
                    1e-12 * max(abs(expected), 1.0)

    def test_unconjugated_bits_pinned(self):
        got = {}
        for name, a, omega in UNCONJUGATED_HEX:
            pair = catalog_bc(name, None if a is None else {"a": a})
            rep = ls_unconjugated(*pair, X0, [omega])
            got[name, a, omega] = (rep.determinant.real.hex(),
                                   rep.determinant.imag.hex(), rep.margin.hex())
        assert got == UNCONJUGATED_HEX

    def test_excluded_equality_case(self):
        # a' == -2|omega'| is rejected by the catalog; built directly
        # (a' = -2 xi'_1 is -2 at omega' = 1), the determinant collapses to
        # zero and the condition fails
        ap = ParameterSymbol(1, -2.0)
        b1 = BoundaryOperatorSymbol("ex4_b1", 0, {0: [TangentialTerm(1.0)]})
        b2 = BoundaryOperatorSymbol("ex4_b2", 2, {
            2: [TangentialTerm(-1.0)],
            1: [TangentialTerm(-1.0j, a_power=1)],
        }, aprime=ap)
        rep = ls_unconjugated(b1, b2, X0, [1.0])
        assert rep.determinant == pytest.approx(0.0, abs=1e-12)
        assert not rep.verdict

    def test_admissibility_rejection(self):
        with pytest.raises(ValueError):
            catalog_bc("ex4_id_dn2_A", {"a": -2.0})
        with pytest.raises(ValueError):
            catalog_bc("ex3_dn_dn3_A", {"a": 2.0})
        with pytest.raises(ValueError):
            catalog_bc("ex5_dn2A_dn3", {"a": -1.5})

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog_bc("freeform")

    def test_homogeneity_sampled(self, rng):
        # b(x, t xi', t xi_d) = t^k b(x, xi', xi_d) for either operator
        for name in catalog_names():
            a = sample_params(name, rng)
            for b in catalog_bc(name, {"a": a} if a is not None else None):
                for _ in range(12):
                    x, xi = rng.normal(size=2), rng.normal(size=1)
                    zd = complex(rng.normal(), rng.normal())
                    t = float(rng.uniform(0.3, 3.0))
                    scaled = t ** b.order * polyval(zd, b.coeff_vector(x, xi))
                    assert abs(polyval(t * zd, b.coeff_vector(x, t * xi))
                               - scaled) <= \
                        1e-10 * max(abs(scaled), 1e-300), b.name

    @pytest.mark.parametrize("tdim", [1, 2])
    def test_coeff_vector_stack_rows_are_points(self, tdim, rng):
        # a single xi' is the m = 1 case of the stacked path, bit for bit,
        # for real and for complex (conjugated) arguments
        for name in catalog_names(include_fixtures=True):
            x = rng.normal(size=tdim + 1)
            re, im = rng.normal(size=(2, 20, tdim))
            for b in catalog_bc(name):
                for xs in (re, re + 1j * im):
                    stack = b.coeff_vector(x, xs)
                    assert stack.shape == (20, 4)
                    for xi, row in zip(xs, stack):
                        assert row.tobytes() == \
                            b.coeff_vector(x, xi).tobytes(), b.name

    def test_homogeneity_construction_guard(self):
        with pytest.raises(ValueError):
            BoundaryOperatorSymbol("bad", 2, {1: [TangentialTerm(1.0)]})

    def test_determinant_homogeneity_scaling(self, rng):
        for name in catalog_names():
            a = sample_params(name, rng)
            pair = catalog_bc(name, {"a": a} if a is not None else None)
            k1, k2 = pair[0].order, pair[1].order
            base = ls_unconjugated(*pair, X0, [1.0])
            for t in (0.5, 2.0, 7.0):
                rep = ls_unconjugated(*pair, X0, [t])
                assert abs(rep.determinant) == pytest.approx(
                    abs(base.determinant) * t ** (k1 + k2 - 1), rel=1e-9)

    def test_rejects_zero_frequency(self):
        b1, b2 = catalog_bc("clamped")
        with pytest.raises(ValueError):
            ls_unconjugated(b1, b2, X0, [0.0])


class TestBCFile:
    def test_round_trip(self, tmp_path):
        # ex5_dn2A_dn3 at a = 0.7 written out by hand
        b1, b2 = catalog_bc("ex5_dn2A_dn3", {"a": 0.7})
        path = tmp_path / "pair.bc"
        path.write_text("name ex5ish\n"
                        "aprime 1 0.7\n"
                        "b1 order 2\n"
                        "b1 term 1 0 -1 0 1\n"
                        "b1 term 2 -1 0 0 0\n"
                        "b2 order 3\n"
                        "b2 term 1 0 2 1 0\n"
                        "b2 term 3 0 1 0 0\n")
        c1, c2 = load_bc_file(path)
        for om in (0.3, 1.0, 2.0):
            orig = ls_unconjugated(b1, b2, X0, [om])
            loaded = ls_unconjugated(c1, c2, X0, [om])
            assert loaded.determinant == pytest.approx(orig.determinant)

    def test_parse_diagnostics(self, tmp_path):
        path = tmp_path / "broken.bc"
        path.write_text("name thing\nb1 order 1\nb1 term nonsense\n")
        with pytest.raises(ValueError, match="broken.bc:3"):
            load_bc_file(path)

    @pytest.mark.parametrize("name, a", [
        *((name, None) for name in catalog_names(include_fixtures=True)),
        ("ex3_dn_dn3_A", 0.5), ("ex4_id_dn2_A", -1.3), ("ex5_dn2A_dn3", 2.2),
    ])
    def test_catalog_pair_round_trips_through_a_file(self, name, a, tmp_path):
        # the pair written in the file format, floats as repr so exactly,
        # loads to operators with the same names and coefficients bit for bit
        pair = catalog_bc(name, None if a is None else {"a": a})
        lines = [f"name {name}"]
        ap = pair[0].aprime
        if ap is not None:
            lines.append(f"aprime {ap.degree} {ap.scale!r}")
        for tag, b in zip(("b1", "b2"), pair):
            lines.append(f"{tag} order {b.order}")
            for m, entries in b.terms.items():
                for t in entries:
                    c = complex(t.coef)
                    lines.append(f"{tag} term {m} {c.real!r} {c.imag!r} "
                                 f"{t.r_power} {t.a_power}")
        path = tmp_path / "pair.bc"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_bc_file(path)
        rng = np.random.default_rng(17)
        for tdim in (1, 2):
            x = rng.normal(size=tdim + 1)
            re, im = rng.normal(size=(2, 16, tdim))
            for b, c in zip(pair, loaded):
                assert (c.name, c.order) == (b.name, b.order)
                for xs in (re, re + 1j * im):
                    assert c.coeff_vector(x, xs).tobytes() == \
                        b.coeff_vector(x, xs).tobytes(), b.name


def non_marginal_samples(rng, count, kappa0=1.0, mu_cap=0.6):
    out = []
    while len(out) < count:
        xi = rng.normal(size=1)
        tau = float(10.0 ** rng.uniform(-1, 1))
        sigma = float(rng.uniform(0.0, tau / kappa0))
        dn = float(rng.uniform(0.3, 1.5))
        dt = rng.normal(size=1)
        if np.linalg.norm(dt):
            dt = dt / np.linalg.norm(dt) * dn * mu_cap * rng.uniform(0, 1)
        p = TangentialPoint(X0, xi, tau, sigma)
        if p.lambda_T_sigma < 1e-6:
            continue
        out.append((p, WeightJet(1.0, dt, dn)))
    return out


class TestConjugated:
    def test_tau_zero_reduces_to_unconjugated(self, rng):
        w = WeightJet(1.0, [0.4], 1.0)
        for name in catalog_names():
            a = sample_params(name, rng)
            pair = catalog_bc(name, {"a": a} if a is not None else None)
            for om in (0.7, 1.0, 1.9):
                p = TangentialPoint(X0, [om], 0.0, 0.0)
                conj = ls_conjugated(*pair, w, p)
                unconj = ls_unconjugated(*pair, X0, [om])
                assert conj.case is RootCase.DOUBLE_UPPER
                assert conj.determinant == pytest.approx(unconj.determinant)
                assert conj.margin == pytest.approx(unconj.margin)
                assert conj.verdict == unconj.verdict

    def test_clamped_always_holds_in_band(self, rng):
        b1, b2 = catalog_bc("clamped")
        for p, w in non_marginal_samples(rng, 300):
            rep = ls_conjugated(b1, b2, w, p)
            if rep.marginal:
                continue
            assert rep.verdict is True

    def test_degenerate_pair_fails_on_multi_root_cases(self, rng):
        # proportional rows cannot interpolate two values (cases 3-4); with a
        # single upper root the vector nonvanishing criterion can still hold,
        # but the auxiliary 2x2 determinant is identically zero
        d1, d2 = catalog_bc("degenerate_equal")
        seen = set()
        for p, w in non_marginal_samples(rng, 400):
            rep = ls_conjugated(d1, d2, w, p)
            if rep.marginal:
                continue
            seen.add(rep.case)
            if rep.case in (RootCase.TWO_UPPER, RootCase.DOUBLE_UPPER):
                assert rep.verdict is False
            elif rep.case is RootCase.ONE_UPPER:
                assert abs(rep.determinant) <= 1e-12 * rep.scale ** 2
        assert RootCase.TWO_UPPER in seen
        p0 = TangentialPoint(X0, [1.0], 0.0, 0.0)
        rep0 = ls_conjugated(d1, d2, WeightJet(1.0, [0.0], 1.0), p0)
        assert rep0.case is RootCase.DOUBLE_UPPER and rep0.verdict is False

    def test_three_route_agreement(self, rng):
        pairs = [catalog_bc("clamped"), catalog_bc("hinged"),
                 catalog_bc("neumann_pair"), catalog_bc("degenerate_equal")]
        checked = 0
        for p, w in non_marginal_samples(rng, 300):
            for pair in pairs:
                rep = ls_conjugated(*pair, w, p)
                if rep.marginal:
                    continue
                rank = ls_rank_oracle(*pair, w, p)
                pos = positivity_margin(*pair, w, p)
                assert rep.verdict == (rank == 4), (rep.case, rep.margin, rank)
                assert rep.verdict == (pos > 1e-16), (rep.case, rep.margin, pos)
                checked += 1
        assert checked >= 1000

    def test_sampling_records_first_counterexample(self):
        # values recorded from `platelab ls-check --samples 300 --seed 0`,
        # which pins the draw order of the seeded sampler
        clamped = sample_conjugated(*catalog_bc("clamped"), 300, seed=0)
        assert clamped == {"samples": 300, "passed": 296,
                           "marginal_skipped": 4, "counterexample": None}
        degenerate = sample_conjugated(*catalog_bc("degenerate_equal"), 300)
        assert degenerate["passed"] == 0
        cex = degenerate["counterexample"]
        assert cex["xi_prime"] == pytest.approx(0.9417154046806644, rel=1e-12)
        assert cex["tau"] == pytest.approx(0.6936544259016646, rel=1e-12)
        assert (cex["verdict"], cex["rank"]) == (False, 3)
        assert cex["positivity"] <= 1e-16

    def test_positivity_margin_dilation_invariant(self, rng):
        b1, b2 = catalog_bc("clamped")
        for p, w in non_marginal_samples(rng, 50):
            base = positivity_margin(b1, b2, w, p)
            for t in (0.25, 4.0):
                scaled = positivity_margin(b1, b2, w, p.scaled(t))
                assert scaled == pytest.approx(base, rel=1e-6)

    def test_positive_sigma_never_double_in_band(self, rng):
        # with sigma bounded below in the tau >= sigma band the double-root
        # dispatch can never fire
        b1, b2 = catalog_bc("clamped")
        for p, w in non_marginal_samples(rng, 300):
            if p.sigma < 1e-3 * p.lambda_T_sigma:
                continue
            rep = ls_conjugated(b1, b2, w, p)
            assert rep.case is not RootCase.DOUBLE_UPPER

    def test_rank_oracle_trivial_cases(self, rng):
        b1, b2 = catalog_bc("clamped")
        p = TangentialPoint(X0, [1.0], 0.0, 0.0)
        w = WeightJet(1.0, [0.0], 1.0)
        assert ls_rank_oracle(b1, b2, w, p) == 4
        d1, d2 = catalog_bc("degenerate_equal")
        assert ls_rank_oracle(d1, d2, w, p) <= 3
        assert positivity_margin(d1, d2, w, p) <= 1e-16


# ex5_dn2A_dn3 at a = 0.7 as a boundary file, with its parameter symbol
EX5_FILE = ("name ex5ish\naprime 1 0.7\nb1 order 2\nb1 term 1 0 -1 0 1\n"
            "b1 term 2 -1 0 0 0\nb2 order 3\nb2 term 1 0 2 1 0\n"
            "b2 term 3 0 1 0 0\n")
PAIRS = catalog_names(include_fixtures=True) + ["file:ex5ish"]


def load_pair(name, tmp_path):
    if name.startswith("file:"):
        path = tmp_path / "pair.bc"
        path.write_text(EX5_FILE)
        return load_bc_file(path)
    return catalog_bc(name)


def per_sample_loop(b1, b2, samples, seed=0, kappa0=1.0, mu0=0.25, mu1=0.25):
    """sample_conjugated as one call of each public route per sample, with
    its own draws in the sampler's order: the oracle that the stacked
    blocks must equal."""
    rng = random.Random(seed)
    x0 = np.array([0.0, 0.0])
    agree = 0
    marginal = 0
    counterexample = None
    for _ in range(samples):
        xi = rng.gauss(0.0, 1.0)
        tau = 10.0 ** rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.0, min(1.0 / kappa0, mu1) * tau)
        dn = 1.0
        dtang = rng.uniform(-mu0, mu0) * dn
        p = TangentialPoint(x0, [xi], tau, sigma)
        w = WeightJet(1.0, [dtang], dn)
        rep = ls_conjugated(b1, b2, w, p)
        if rep.marginal:
            marginal += 1
            continue
        rank = ls_rank_oracle(b1, b2, w, p)
        pos = positivity_margin(b1, b2, w, p)
        consistent = (rep.verdict == (rank == 4)) and (rep.verdict == (pos > 1e-16))
        if consistent and rep.verdict:
            agree += 1
        else:
            counterexample = {"xi_prime": xi, "tau": tau,
                              "sigma": sigma, "dphi_tangential": dtang,
                              "verdict": rep.verdict, "rank": rank,
                              "positivity": pos, "case": rep.case.value}
            break
    return {"samples": samples, "passed": agree, "marginal_skipped": marginal,
            "counterexample": counterexample}


class TestStackedSampling:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", PAIRS)
    def test_equals_per_sample_loop(self, name, seed, tmp_path, monkeypatch):
        # a 64-sample block, so that 200 samples end in a partial fourth
        # block; the per-sample oracle costs about 1 ms a sample
        pair = load_pair(name, tmp_path)
        monkeypatch.setattr(lscheck, "SAMPLE_BLOCK", 64)
        assert sample_conjugated(*pair, 200, seed) == \
            per_sample_loop(*pair, 200, seed)

    @pytest.mark.parametrize("name", PAIRS)
    def test_block_edges(self, name, tmp_path, monkeypatch):
        # counts 0 and block - 1, block, block + 1; with a 2-sample block
        # the degenerate counterexample lies past the first block
        pair = load_pair(name, tmp_path)
        monkeypatch.setattr(lscheck, "SAMPLE_BLOCK", 2)
        for samples in (0, 1, 2, 3, 40):
            assert sample_conjugated(*pair, samples, 7) == \
                per_sample_loop(*pair, samples, 7), samples

    @pytest.mark.parametrize("name", PAIRS)
    def test_per_point_routes_are_stacked_rows(self, name, tmp_path):
        b1, b2 = load_pair(name, tmp_path)
        points = covering_points()
        x, cols = stack_points(points)
        roots = classify_stack(x, *cols)
        st = lscheck._conjugated(b1, b2, x, *cols, roots.case, roots.upper)
        det, margin = lscheck._determinants(b1, b2, st)
        s = lscheck._singular_values(b1, b2, st)
        for i, (p, w) in enumerate(points):
            rep = ls_conjugated(b1, b2, w, p)
            assert (rep.margin, rep.scale, rep.marginal) == \
                (margin[i], st.lam[i], roots.marginal[i])
            assert rep.verdict == (None if rep.marginal
                                   else bool(margin[i] > DEFAULT_MARGIN_TOL))
            assert rep.determinant == (None if rep.case is RootCase.NO_UPPER
                                       else det[i])
            assert ls_rank_oracle(b1, b2, w, p) == lscheck._rank(s)[i]
            assert positivity_margin(b1, b2, w, p) == s[i, -1] ** 2

    @pytest.mark.parametrize("seed", [-1, 1.0, None])
    def test_seed_is_a_natural_number(self, seed):
        # random.Random would seed -1 as 1, and None from system entropy
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            sample_conjugated(*catalog_bc("clamped"), 5, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 123])
    def test_counterexample_reproduces(self, seed):
        b1, b2 = catalog_bc("degenerate_equal")
        cex = sample_conjugated(b1, b2, 300, seed)["counterexample"]
        p = TangentialPoint(X0, [cex["xi_prime"]], cex["tau"], cex["sigma"])
        w = WeightJet(1.0, [cex["dphi_tangential"]], 1.0)
        rep = ls_conjugated(b1, b2, w, p)
        assert (rep.verdict, rep.case.value) == (cex["verdict"], cex["case"])
        assert ls_rank_oracle(b1, b2, w, p) == cex["rank"]
        assert positivity_margin(b1, b2, w, p) == cex["positivity"]
        assert not (rep.verdict and cex["rank"] == 4
                    and cex["positivity"] > 1e-16)


class TestPerturbation:
    def test_positive_radius_for_hinged(self):
        b1, b2 = catalog_bc("hinged")
        eps = perturbation_margin(b1, b2, X0, [1.0])
        assert eps > 0

    def test_zero_margin_pair(self):
        # a failing pair has radius 0 as data, with no warning
        d1, d2 = catalog_bc("degenerate_equal")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = perturbation_margin(d1, d2, X0, [1.0])
        assert eps == 0.0

    @pytest.mark.parametrize("name, radii", [
        ("clamped", (1.0, 1.0)),
        ("hinged", (0.8044736266284185, 0.8044736266284185)),
        ("neumann_pair", (0.33694503022121597, 0.33694503022121597)),
        ("ex2_dn2_dn3", (0.38953921174427264, 0.38953921174427264)),
        ("ex3_dn_dn3_A", (0.48421626123015077, 0.1312533014735226)),
        ("ex4_id_dn2_A", (1.0, 0.3622889750924289)),
        ("ex5_dn2A_dn3", (0.3622889750924289, 0.4188391254457479)),
        ("degenerate_equal", (0.0, 0.0)),
    ])
    def test_radii_at_unit_frequency(self, name, radii):
        # the values at omega' = +1, -1, exact: 0 or a point of the grid of
        # PERTURBATION_RADII log-spaced radii from the floor to the cap
        grid = np.geomspace(PERTURBATION_FLOOR, PERTURBATION_CAP,
                            PERTURBATION_RADII)
        b1, b2 = catalog_bc(name)
        got = tuple(perturbation_margin(b1, b2, X0, [s]) for s in (1.0, -1.0))
        assert got == radii
        assert all(r in (0.0, *grid) for r in got)

    def test_near_failure_not_capped(self):
        # |det| = 0.01 at omega' = +1: the bounds fail at radii between
        # about 3e-3 and 0.1 yet hold at 1, where a search that trusts
        # eps = 1 would stop and report the cap
        b1, b2 = catalog_bc("ex4_id_dn2_A", {"a": -1.99})
        eps = perturbation_margin(b1, b2, X0, [1.0])
        assert 0.0 < eps < 0.01

    def test_dilation_invariance(self):
        b1, b2 = catalog_bc("clamped")
        eps1 = perturbation_margin(b1, b2, X0, [1.0])
        eps2 = perturbation_margin(b1, b2, X0, [5.0])
        assert eps1 == pytest.approx(eps2, rel=1e-12)

    def test_reproducible(self):
        b1, b2 = catalog_bc("ex2_dn2_dn3")
        vals = {perturbation_margin(b1, b2, X0, [1.0]) for _ in range(3)}
        assert len(vals) == 1

