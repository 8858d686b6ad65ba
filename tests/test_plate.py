"""Discrete bi-Laplacians: symmetry, spectra, kernels, exports."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from platelab.plate import (
    DiscretePlateOperator,
    IndefiniteError,
    SizeLimitError,
    assemble,
    catalog_families,
    check_symmetry,
    clamped_beam_beta,
    export_columnar,
    kernel,
    load_damping_profile,
    make_grid,
    spectrum,
)

from conftest import beam_characteristic_root

GRID = make_grid(96)
RECTANGLE_FAMILIES = ("hinged", "clamped", "ex4_id_dn2_A", "neumann_pair")


def every_operator():
    """Each family on GRID, and each 2-D family on a 16 x 12 rectangle."""
    return ([assemble(GRID, name) for name in catalog_families()]
            + [assemble(make_grid((16, 12)), name)
               for name in RECTANGLE_FAMILIES])


def dirichlet_matrix(n, h):
    main = 2.0 * np.ones(n - 1)
    off = -np.ones(n - 2)
    return (np.diag(main) + np.diag(off, 1) + np.diag(off, -1)) / h ** 2


def zero_flux_matrix(n, h):
    main = 2.0 * np.ones(n)
    main[[0, -1]] = 1.0
    off = -np.ones(n - 1)
    return (np.diag(main) + np.diag(off, 1) + np.diag(off, -1)) / h ** 2


def ordered_square(L):
    """L @ L for a tridiagonal L, each entry summed over k = i-1, i, i+1 in
    that order with separate roundings (no fused multiply-add)."""
    m = L.shape[0]
    return np.array([[sum(L[i, k] * L[k, j]
                          for k in range(max(i - 1, 0), min(i + 2, m)))
                      for j in range(m)] for i in range(m)])


def dense_reference(name, n):
    """Dense 1-D operator built from the stencil: interior [1 -4 6 -4 1]/h^4
    rows with the ghost-eliminated boundary rows, or the square of a
    three-point Laplacian, at the default boundary parameters."""
    h = 1.0 / n
    if name == "hinged":
        return ordered_square(dirichlet_matrix(n, h))
    if name in ("neumann_pair", "ex3_dn_dn3_A"):
        M = ordered_square(zero_flux_matrix(n, h))
        if name == "ex3_dn_dn3_A":
            M[0, 0] += 1.0 / h
            M[-1, -1] += 1.0 / h
        return M
    m = n - 1 if name in ("clamped", "ex4_id_dn2_A") else n
    M = np.zeros((m, m))
    stencil = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / h ** 4
    for i in range(m):
        for k, c in zip(range(i - 2, i + 3), stencil):
            if 0 <= k < m:
                M[i, k] += c
    if name == "clamped":
        M[0, 0] += 1.0 / h ** 4
        M[-1, -1] += 1.0 / h ** 4
    elif name == "ex4_id_dn2_A":
        c = (1.0 - h / 2.0) / (1.0 + h / 2.0)
        M[0, 0] += -c / h ** 4
        M[-1, -1] += -c / h ** 4
    elif name == "ex2_dn2_dn3":
        for a, b in ((0, 1), (-1, -2)):
            M[a, a] += -5.0 / h ** 4
            M[a, b] += 2.0 / h ** 4
            M[b, a] += 2.0 / h ** 4
            M[b, b] += -1.0 / h ** 4
    else:  # ex5_dn2A_dn3 at a = 1
        beta = 1.0 / (1.0 + h)
        for a, b in ((0, 1), (m - 1, m - 2)):
            M[a, a] += (3.0 - beta * (2.0 + h) - 6.0) / h ** 4
            M[a, b] += (beta - 3.0 + 4.0) / h ** 4
            M[b, a] += beta * (2.0 + h) / h ** 4
            M[b, b] += -beta / h ** 4
    return M


class TestAssembly:
    def test_hinged_is_squared_dirichlet_laplacian(self):
        op = assemble(GRID, "hinged")
        L = dirichlet_matrix(GRID.n[0], GRID.h[0])
        assert np.abs(op.dense() - L @ L).max() <= 1e-9 * np.abs(L @ L).max()

    def test_clamped_differs_from_any_squared_laplacian(self):
        op = assemble(GRID, "clamped")
        L = dirichlet_matrix(GRID.n[0], GRID.h[0])
        assert np.abs(op.dense() - L @ L).max() > 1.0

    @pytest.mark.parametrize("n", [16, 97, 200])
    def test_matches_dense_stencil_reference(self, n):
        for name in catalog_families():
            op = assemble(make_grid(n), name)
            assert np.array_equal(op.dense(), dense_reference(name, n)), name
            assert np.all(op.matrix.data != 0.0), name

    def test_neumann_kernel_contains_constants(self):
        op = assemble(GRID, "neumann_pair")
        c = np.ones(op.size)
        assert np.abs(op.apply(c)).max() <= 1e-10 * np.abs(op.matrix.data).max()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            make_grid(4)
        with pytest.raises(ValueError):
            make_grid(16, -1.0)

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            assemble(GRID, "mystery")
        with pytest.raises(KeyError):
            assemble(GRID, "degenerate_equal")

    def test_symmetry_all_families(self):
        for op in every_operator():
            M = op.dense()
            denom = np.abs(M).max()
            assert np.abs(M - M.T).max() <= 1e-10 * denom, op.bc_name
            assert check_symmetry(op) <= 1e-10, op.bc_name

    def test_broken_row_negative_control(self):
        op = assemble(GRID, "hinged")
        M = op.dense()
        M[0, 3] += 17.0 / GRID.h[0] ** 4
        bad = DiscretePlateOperator(op.grid, "broken", sp.csr_matrix(M),
                                    op.nodes, op.layout, op.weight)
        assert check_symmetry(bad) > 1e-6

    def test_rayleigh_nonnegativity(self, rng):
        for name in catalog_families():
            op = assemble(GRID, name)
            scale = np.abs(op.matrix.data).max()
            mu, _ = spectrum(op, 4)
            assert mu[0] >= -1e-8 * scale, name
            for _ in range(20):
                u = rng.normal(size=op.size)
                q = op.inner(op.apply(u), u) / op.inner(u, u)
                assert q >= -1e-8 * scale, name

    def test_green_trace_sum_oracle(self):
        # unreduced wide-stencil operator applied to smooth extensions:
        # <Wu, v> - <u, Wv> approaches the boundary trace pairing
        # [d3u v - d2u dv + du d2v - u d3v] at both ends
        n = 400
        h = 1.0 / n

        u = lambda x: np.sin(1.3 * x + 0.2)
        v = lambda x: np.cos(0.7 * x) + 0.3 * x ** 2

        xs = h * np.arange(-2, n + 3)
        U, V = u(xs), v(xs)
        stencil = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / h ** 4

        def wide_apply(F):
            out = np.empty(n + 1)
            for i in range(n + 1):
                out[i] = F[i:i + 5] @ stencil
            return out

        WU, WV = wide_apply(U), wide_apply(V)
        phys = slice(2, n + 3)
        lhs = h * (WU @ V[phys] - U[phys] @ WV)

        du = lambda x: 1.3 * math.cos(1.3 * x + 0.2)
        d2u = lambda x: -1.3 ** 2 * math.sin(1.3 * x + 0.2)
        d3u = lambda x: -1.3 ** 3 * math.cos(1.3 * x + 0.2)
        dv = lambda x: -0.7 * math.sin(0.7 * x) + 0.6 * x
        d2v = lambda x: -0.7 ** 2 * math.cos(0.7 * x) + 0.6
        d3v = lambda x: 0.7 ** 3 * math.sin(0.7 * x)

        def trace_form(x, sign):
            # sign = +1 at the right end, -1 at the left
            return sign * (d3u(x) * v(x) - d2u(x) * dv(x)
                           + du(x) * d2v(x) - u(x) * d3v(x))

        T = trace_form(1.0, +1.0) + trace_form(0.0, -1.0)
        assert lhs == pytest.approx(T, abs=20 * h)

    def test_variable_coefficient_families(self):
        coeff = lambda x: 1.0 + 0.5 * x
        for name in ("hinged", "neumann_pair"):
            op = assemble(GRID, name, metric=coeff)
            M = op.dense()
            assert np.abs(M - M.T).max() <= 1e-10 * np.abs(M).max()
            mu, _ = spectrum(op, 3)
            scale = np.abs(op.matrix.data).max()
            assert mu[0] >= -1e-8 * scale
        op_var = assemble(GRID, "hinged", metric=coeff)
        op_id = assemble(GRID, "hinged")
        assert np.abs(op_var.dense() - op_id.dense()).max() > 1.0
        with pytest.raises(NotImplementedError):
            assemble(GRID, "clamped", metric=coeff)


class TestSpectrum:
    def test_hinged_against_sine_modes(self):
        op = assemble(make_grid(200), "hinged")
        mu, vecs = spectrum(op, 5)
        for k in range(1, 6):
            exact = (k * math.pi) ** 4
            assert abs(mu[k - 1] - exact) / exact < 0.005

    def test_hinged_convergence_order(self):
        errs = []
        for n in (50, 100, 200):
            op = assemble(make_grid(n), "hinged")
            mu, _ = spectrum(op, 1)
            errs.append(abs(mu[0] - math.pi ** 4) / math.pi ** 4)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert 1.7 <= p <= 2.3

    def test_clamped_against_beam_equation(self):
        beta1 = clamped_beam_beta(1)
        oracle = beam_characteristic_root("clamped", 1)
        assert beta1 == pytest.approx(oracle, abs=1e-10)
        assert beta1 == pytest.approx(4.730040744862704, abs=1e-9)
        op = assemble(make_grid(200), "clamped")
        mu, _ = spectrum(op, 1)
        assert abs(mu[0] - beta1 ** 4) / beta1 ** 4 < 0.01

    def test_free_beam_positive_modes(self):
        # nonzero free-free frequencies share the clamped characteristic
        # equation cos(b)cosh(b) = 1
        op = assemble(make_grid(200), "ex2_dn2_dn3")
        mu, _ = spectrum(op, 4)
        assert abs(mu[0]) <= 1e-6 * mu[2] and abs(mu[1]) <= 1e-6 * mu[2]
        beta1 = beam_characteristic_root("free", 1)
        assert abs(mu[2] - beta1 ** 4) / beta1 ** 4 < 0.01

    def test_neumann_zero_mode(self):
        op = assemble(make_grid(200), "neumann_pair")
        mu, vecs = spectrum(op, 3)
        assert abs(mu[0]) <= 1e-8 * mu[1]
        # eigensolver constancy is limited by eps*|M|/gap
        assert np.ptp(vecs[:, 0]) <= 1e-6 * np.abs(vecs[:, 0]).max()
        assert abs(mu[1] - math.pi ** 4) / math.pi ** 4 < 0.005

    def test_orthonormality(self):
        op = assemble(GRID, "clamped")
        mu, vecs = spectrum(op, 8)
        G = op.weight * vecs.T @ vecs
        assert np.abs(G - np.eye(8)).max() <= 1e-10

    def test_count_guard(self):
        op = assemble(GRID, "hinged")
        with pytest.raises(ValueError):
            spectrum(op, op.size + 1)

    def test_dense_eigenvector_cap(self):
        op = assemble(make_grid(3200), "clamped")
        with pytest.raises(SizeLimitError, match="3199"):
            spectrum(op, 5)
        mu, vecs = spectrum(op, 5, vectors=False)
        assert vecs is None and np.all(np.diff(mu) > 0)

    def test_eigenvalues_only_match_dense_solver(self):
        for op in every_operator():
            M = op.dense()
            mu, vecs = spectrum(op, 6, vectors=False)
            ref = scipy.linalg.eigvalsh(M)[:6]
            tol = 10 * np.finfo(float).eps * np.abs(M).sum(axis=0).max()
            assert vecs is None
            assert np.abs(mu - ref).max() <= tol, (op.bc_name, op.grid.n)
            assert spectrum(op, 0, vectors=False)[0].size == 0

    def test_2d_lowest_pairs_match_full_tensor_scale(self):
        for name, n in (("hinged", (16, 12)), ("neumann_pair", (12, 16))):
            op = assemble(make_grid(n), name)
            mu, vecs = spectrum(op, 7)
            full_mu, full_vecs = spectrum(op, op.size)
            assert np.array_equal(mu, full_mu[:7]), name
            assert np.array_equal(vecs, full_vecs[:, :7]), name

    def test_2d_hinged_tensor_eigenvalues(self):
        a, b = 1.0, 2.0
        op = assemble(make_grid((32, 48), (a, b)), "hinged")
        mu, _ = spectrum(op, 6)
        exact = sorted((j ** 2 * math.pi ** 2 / a ** 2
                        + k ** 2 * math.pi ** 2 / b ** 2) ** 2
                       for j in range(1, 6) for k in range(1, 6))[:6]
        for got, ref in zip(mu, exact):
            assert abs(got - ref) / ref < 0.01
        assert check_symmetry(op) <= 1e-10


class TestRectangle:
    @pytest.mark.parametrize("n, lengths, exact", [
        ((64, 48), None, True), ((64, 64), None, True), ((24, 24), None, True),
        ((16, 12), None, True), ((32, 24), (1.0, 0.5), True),
        ((30, 21), (1.3, 0.7), False)])
    def test_laplacian_squares_match_an_independent_square(self, n, lengths,
                                                           exact):
        grid = make_grid(n, lengths)
        for name, lap in (("hinged", dirichlet_matrix),
                          ("neumann_pair", zero_flux_matrix)):
            L0, L1 = (sp.csr_matrix(lap(k, h)) for k, h in zip(grid.n, grid.h))
            Lap = (sp.kron(L0, sp.identity(L1.shape[0]))
                   + sp.kron(sp.identity(L0.shape[0]), L1)).tocsr()
            ref = (Lap @ Lap).toarray()
            M = assemble(grid, name).matrix.toarray()
            if exact:
                assert np.array_equal(M, ref), name
            else:
                assert np.abs(M - ref).max() <= 1e-15 * np.abs(ref).max(), name

    def test_clamped_square_converges_at_second_order(self):
        # Bjorstad & Tjostheim, Computing 63 (1999): lowest eigenvalue of
        # the clamped unit square
        ref = 1294.9339795
        errs = []
        for n in (12, 24, 48):
            op = assemble(make_grid((n, n)), "clamped")
            mu, _ = spectrum(op, 1, vectors=False)
            errs.append(abs(mu[0] - ref) / ref)
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.8 <= math.log2(coarse / fine) <= 2.2, errs

    def test_families_nonnegative(self):
        # no draws from the shared rng fixture, so later tests keep their samples
        for name in RECTANGLE_FAMILIES:
            op = assemble(make_grid((16, 12)), name)
            M = op.dense()
            tol = 10 * np.finfo(float).eps * np.abs(M).sum(axis=0).max()
            assert scipy.linalg.eigvalsh(M)[0] >= -tol, name

    def test_tangential_families_refused(self):
        for name in ("ex2_dn2_dn3", "ex3_dn_dn3_A", "ex5_dn2A_dn3"):
            with pytest.raises(NotImplementedError,
                               match=f"{name} boundary operators carry "
                                     f"tangential derivatives"):
                assemble(make_grid((16, 12)), name)


class TestKernel:
    def test_kernel_dimensions(self):
        expected = {"hinged": 0, "clamped": 0, "ex4_id_dn2_A": 0,
                    "neumann_pair": 1, "ex2_dn2_dn3": 2, "ex3_dn_dn3_A": 0,
                    "ex5_dn2A_dn3": 1}
        for op in every_operator():
            assert len(kernel(op)) == expected[op.bc_name], op.bc_name

    def test_closed_form_basis(self):
        # constants and affine functions, exact to the residual check, not
        # eigensolver vectors with O(eps |M|) residuals
        ops = [assemble(GRID, name)
               for name in ("neumann_pair", "ex2_dn2_dn3", "ex5_dn2A_dn3")]
        ops.append(assemble(make_grid((16, 12)), "neumann_pair"))
        for op in ops:
            K = np.column_stack(kernel(op))
            scale = float(np.abs(op.matrix).sum(axis=1).max())
            assert np.abs(op.matrix @ K).max() <= \
                1e-12 * scale * np.abs(K).max(), op.bc_name
            assert np.abs(op.weight * K.T @ K - np.eye(K.shape[1])).max() \
                <= 1e-12, op.bc_name
            assert np.ptp(K[:, 0]) == 0.0, op.bc_name

    def test_two_disconnected_intervals(self):
        # block-diagonal fixture: two independent zero-flux plates carry a
        # two-dimensional stationary space
        op1 = assemble(GRID, "neumann_pair")
        M = sp.block_diag([op1.matrix, op1.matrix], format="csr")
        nodes = np.vstack([op1.nodes, op1.nodes + 2.0])
        op2 = DiscretePlateOperator(op1.grid, "neumann_pair", M, nodes,
                                    "cell", op1.weight)
        assert len(kernel(op2)) == 2

    def test_indefinite_operator_refused(self):
        # a parameter outside the nonnegative range: mu_0 < 0 is no
        # stationary mode
        for name, a in (("ex3_dn_dn3_A", 1.0), ("ex5_dn2A_dn3", -1.0),
                        ("ex4_id_dn2_A", -3.0)):
            op = assemble(GRID, name, params={"a": a})
            assert spectrum(op, 1, vectors=False)[0][0] < 0, name
            with pytest.raises(IndefiniteError, match="indefinite"):
                kernel(op)


class TestExternalInterfaces:
    def test_columnar_export(self, tmp_path):
        op = assemble(make_grid(16), "hinged")
        export_columnar(op, tmp_path, eig_count=3)
        nodes = np.loadtxt(tmp_path / "nodes.txt")
        assert nodes.shape[0] == op.size
        triplets = np.loadtxt(tmp_path / "matrix.txt")
        M = sp.coo_matrix((triplets[:, 2],
                           (triplets[:, 0].astype(int),
                            triplets[:, 1].astype(int))),
                          shape=op.matrix.shape).tocsr()
        assert np.abs((M - op.matrix).toarray()).max() == 0.0
        eigs = np.loadtxt(tmp_path / "eigenvalues.txt")
        assert eigs.shape == (3, 2)

    def test_damping_profile_interp(self, tmp_path):
        op = assemble(make_grid(32), "clamped")
        path = tmp_path / "alpha.txt"
        path.write_text("# x alpha\n0.0 0.0\n0.3 0.0\n0.31 1.0\n"
                        "0.5 1.0\n0.51 0.0\n1.0 0.0\n")
        alpha = load_damping_profile(path, op.nodes)
        assert alpha.min() >= 0
        assert alpha.max() == pytest.approx(1.0)
        mid = (op.nodes[:, 0] > 0.35) & (op.nodes[:, 0] < 0.45)
        assert np.all(alpha[mid] == 1.0)

    def test_damping_profile_bad_columns(self, tmp_path):
        op = assemble(make_grid(16), "clamped")
        path = tmp_path / "alpha.txt"
        path.write_text("0.0 1.0 2.0\n")
        with pytest.raises(ValueError):
            load_damping_profile(path, op.nodes)
