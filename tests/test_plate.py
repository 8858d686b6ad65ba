"""Discrete bi-Laplacians: symmetry, spectra, kernels, exports."""

import hashlib
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from platelab import _lapack
from platelab.plate import (
    CELL_WIDTHS,
    CSR,
    DiscretePlateOperator,
    GridScaleError,
    IndefiniteError,
    SizeLimitError,
    assemble,
    catalog_families,
    check_symmetry,
    clamped_beam_beta,
    export_columnar,
    kernel,
    load_damping_profile,
    lower_band,
    make_grid,
    spectrum,
)

from conftest import beam_characteristic_root, scipy_csr

GRID = make_grid(96)
RECTANGLE_FAMILIES = ("hinged", "clamped", "ex4_id_dn2_A", "neumann_pair")

# SHA-256 of (shape, indptr, indices, data) of each matrix, keyed by
# (family, cells per axis, boundary parameter a or None for the default);
# recorded before assembly moved to the family table, so any change of a
# stored bit, index or entry order fails here
ASSEMBLY_DIGESTS = {
    ('hinged', (8,), None):
        "7b05bb8d11a97d458fdc62a2b1776e7a05ca9e57b7d968b2e0b08fdc83491411",
    ('hinged', (9,), None):
        "08d3887ea5afea004a7363e78517b9166f8ed496484a6a2e60bde099e1416097",
    ('hinged', (97,), None):
        "18c5e233fb2ec5cb5b465d482dc165a838f7646a8c2efb21368528bbce093a1e",
    ('clamped', (8,), None):
        "c783f7c3b5fc23fe48bce55081919817798c5029eb6ba9e7c01214bf0b138ff0",
    ('clamped', (9,), None):
        "0ea593c639b612009f1d606732100d16878a74d70d11fef4201dddcffae3b0b9",
    ('clamped', (97,), None):
        "158e240eb83833a64d9e18a3c134f630af9b6bca02306e0ee82dda4388a0c710",
    ('ex4_id_dn2_A', (8,), None):
        "9cd890d600cd9c8cb2f26cf04c55a3ef460c71ed60d8a56bfed3903c0ba0d1be",
    ('ex4_id_dn2_A', (9,), None):
        "53f4e144466e06018d815e79577f5acb8a27b2443ec452a8a991f1c34a6efe38",
    ('ex4_id_dn2_A', (97,), None):
        "48c49214150c4e0dcb39ec8d34c62c9e1ec0508b9deb8f75aff37a4575effe95",
    ('neumann_pair', (8,), None):
        "ac8618745bd50873962065b9c67342f88ea4bb5013e665a58920d19c7163ed6c",
    ('neumann_pair', (9,), None):
        "8cf69f8d9399983955b56d748afd9cf6998c1be25c52456f6db3b1a84e899978",
    ('neumann_pair', (97,), None):
        "2563c090c44f306bbd6d472b39fcd60051d34a63e8744ac2fd2d812a2e8f8ff3",
    ('ex2_dn2_dn3', (8,), None):
        "0f23406c64a03fed24ac2e0e2cac3758e2c85ce6ca557f08d65b3b41165cdbdc",
    ('ex2_dn2_dn3', (9,), None):
        "0f3a59e2fc01f53cc94e5cdf96f25469d331e764116525cb36c50ee568d0ccb2",
    ('ex2_dn2_dn3', (97,), None):
        "d0fbac819157bdce8d8bf8b04f531790aec33f433726f41126c5669dce966990",
    ('ex3_dn_dn3_A', (8,), None):
        "edd21fe88241e90911ab94eaca981ef06128bd8c0cde169eaaae77abcc1eb4e1",
    ('ex3_dn_dn3_A', (9,), None):
        "4b6eb9b702179176273c1adc19dd276bf92a4969dd25d912b48b49e37719c92b",
    ('ex3_dn_dn3_A', (97,), None):
        "cc18d311c6f45b2024ff8d3d19f089e2b713a2bf9ea55ffc4e894a28aea75979",
    ('ex5_dn2A_dn3', (8,), None):
        "7004ea3fd2c7593727c50fee101189b075d9a6eff30cc964b110a9d0e948c480",
    ('ex5_dn2A_dn3', (9,), None):
        "e51cee99245a52c711ecfed0fac5343f491628400b78ebceadbc201782f90f17",
    ('ex5_dn2A_dn3', (97,), None):
        "84d82533fca7ee2c8e261ae878f01f1fde47f3b724750baf49816021376bfe2d",
    ('hinged', (9, 12), None):
        "ed7cb04af970ed3edc96eb06175352e7598dfef67765d3fa858d468e48b3683b",
    ('clamped', (9, 12), None):
        "297bb90c5ad538d7eeb8d1dc90d9a0ea65199a1daf0b1e43850a3e9c5031c17f",
    ('ex4_id_dn2_A', (9, 12), None):
        "c51e1110e0027a688ba1abdfa2af1b17dfd2aba8a99a79d83514a0828854959e",
    ('neumann_pair', (9, 12), None):
        "daa1159c6111f02f8f694a634057b92993a5d72bd4b44c3b0b18d7778fd64375",
    ('ex3_dn_dn3_A', (8,), -1.3):
        "39c0965948e3a7eccee8dbc3d0b38d70ef53f4a1a830ca32e39256cb5db8825d",
    ('ex3_dn_dn3_A', (9,), -1.3):
        "ca9e9632732df9c7a8c8f5ffba10ba26061a6edd21898808475528f2034d5390",
    ('ex3_dn_dn3_A', (97,), -1.3):
        "0bd55850b196b3a06f2d437c0073d95bd7e46d5a9871e382b1516edfd4685f53",
    ('ex3_dn_dn3_A', (8,), 0.5):
        "b988c9c204ef1d93fa95e4c51a865224ef8dc70102eede2285ea5e4a9addd236",
    ('ex3_dn_dn3_A', (9,), 0.5):
        "77ec12a4e4a3bb0c6364795edb18f5bf444e0c7865525f23617080f73746e4b3",
    ('ex3_dn_dn3_A', (97,), 0.5):
        "e361241f38039760439394fff839f58f5b19f44076729dc101161679ac6707da",
    ('ex4_id_dn2_A', (8,), -1.3):
        "7aaf09e5d44788bc76f67b7148714c80c1043a92643c12fc601c4c74e792bdb8",
    ('ex4_id_dn2_A', (9,), -1.3):
        "fa6566feda913d32bd20696f05648fdf4092608140dc19bf3cc1a729e0dcd1f3",
    ('ex4_id_dn2_A', (97,), -1.3):
        "28b97eb61fd4132b381bd872e07bb929fddbc688399921d3843e00e0c9d7f7fb",
    ('ex4_id_dn2_A', (8,), 0.5):
        "a7856125f3e5b0b7a64a126f87b8b43ed9e3fb52ec408288213dc9f90a9f3996",
    ('ex4_id_dn2_A', (9,), 0.5):
        "941ae7c5e7146c9331a72658133dc96ea21365a86791f11727d5fca4c239c25c",
    ('ex4_id_dn2_A', (97,), 0.5):
        "e52b97983da809b1d83f711bf497698d594f4b07c0f870665af10c1a03c08c36",
    ('ex5_dn2A_dn3', (8,), -1.3):
        "80db4d8147937e05fcb68fd6119f4327dc8ce35916c9ebdaca156f7d16be68f7",
    ('ex5_dn2A_dn3', (9,), -1.3):
        "2c2a9d62b0d43fd47c4f7021e549a56062550930c00e1cb163b1538c3fb5c97e",
    ('ex5_dn2A_dn3', (97,), -1.3):
        "31a527e7fb7fb8a7524ba7e145a84af5ad046d9f04ebc5713ae11dadb3589af7",
    ('ex5_dn2A_dn3', (8,), 0.5):
        "a1fd2521b39ef361dd4af541e0089304646c64786fbc4a22aee0e74307c57af5",
    ('ex5_dn2A_dn3', (9,), 0.5):
        "85230033deeaaf4475f51097684f1a0ddbd9b1ff6a39d8d06ae24cbdc94a245e",
    ('ex5_dn2A_dn3', (97,), 0.5):
        "1a4b4164e0f987bcd3b285f09a6aefdb0568eb5cc080842c25cb2b8ac0ee8f45",
}


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
            assert np.all(scipy_csr(op).data != 0.0), name

    @pytest.mark.parametrize("name, n, a", list(ASSEMBLY_DIGESTS), ids=[
        f"{name}-{'x'.join(map(str, n))}-a{a}" for name, n, a in ASSEMBLY_DIGESTS])
    def test_matrix_bytes_match_pinned_digest(self, name, n, a):
        M = scipy_csr(assemble(make_grid(n), name,
                               params=None if a is None else {"a": a}))
        digest = hashlib.sha256(repr(M.shape).encode())
        for arr in (M.indptr, M.indices, M.data):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == ASSEMBLY_DIGESTS[name, n, a]

    def test_neumann_kernel_contains_constants(self):
        op = assemble(GRID, "neumann_pair")
        c = np.ones(op.size)
        assert np.abs(op.apply(c)).max() <= \
            1e-10 * np.abs(scipy_csr(op).data).max()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            make_grid(4)
        with pytest.raises(ValueError):
            make_grid(16, -1.0)

    @pytest.mark.parametrize("n, lengths, axis", [
        (8, 1e-80, 0), (8, 1e80, 0), ((16, 16), (1.0, 1e-80), 1)])
    def test_cell_width_whose_h4_leaves_the_floats(self, n, lengths, axis):
        # h^4 underflows (the clamped corner divided by zero, a hinged 2-D
        # square listed inf eigenvalues) or overflows
        with pytest.raises(GridScaleError, match=f"on axis {axis}") as exc:
            make_grid(n, lengths)
        assert exc.value.axis == axis

    def test_extreme_cell_widths_inside_the_range_stay_finite(self):
        lo, hi = CELL_WIDTHS
        for h in (1.01 * lo, 0.99 * hi):
            for name in ("hinged", "clamped"):
                op = assemble(make_grid((8, 8), (8 * h, 8 * h)), name)
                assert np.all(np.isfinite(scipy_csr(op).data)), (h, name)
                assert np.all(np.isfinite(spectrum(op, 3, vectors=False)[0]))

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
        M = sp.csr_matrix(M)
        bad = DiscretePlateOperator(op.grid, "broken",
                                    CSR(M.indptr, M.indices, M.data),
                                    op.nodes, op.layout, op.weight)
        assert check_symmetry(bad) > 1e-6

    def test_rayleigh_nonnegativity(self, rng):
        for name in catalog_families():
            op = assemble(GRID, name)
            scale = np.abs(scipy_csr(op).data).max()
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

    def test_dense_cap_names_operators_without_tensor_factors(self):
        # 55 x 55 clamped unknowns: dense() refuses before any eigensolve
        op = assemble(make_grid((56, 56)), "clamped")
        with pytest.raises(SizeLimitError,
                           match="3025 > 3000 .*without tensor factors.*"
                                 "reduction") as exc:
            spectrum(op, 1)
        assert "1-D" not in str(exc.value)

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
            M = scipy_csr(assemble(grid, name)).toarray()
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
        for name in ("ex3_dn_dn3_A", "ex5_dn2A_dn3"):
            with pytest.raises(NotImplementedError,
                               match=f"{name} boundary operators carry "
                                     f"tangential derivatives"):
                assemble(make_grid((16, 12)), name)

    def test_free_edge_nu2_refused(self):
        # ex2 is the nu = 2 free edge: u = xy has energy -2|Omega|
        with pytest.raises(NotImplementedError,
                           match=r"ex2_dn2_dn3 symbols are the free edge with "
                                 r"Poisson ratio nu = 2, whose energy is "
                                 r"unbounded below") as exc:
            assemble(make_grid((16, 12)), "ex2_dn2_dn3")
        assert "tangential" not in str(exc.value)


class TestKernel:
    def test_kernel_dimensions(self):
        expected = {"hinged": 0, "clamped": 0, "ex4_id_dn2_A": 0,
                    "neumann_pair": 1, "ex2_dn2_dn3": 2, "ex3_dn_dn3_A": 0,
                    "ex5_dn2A_dn3": 1}
        for op in every_operator():
            assert kernel(op).shape == (op.size, expected[op.bc_name]), \
                op.bc_name

    def test_closed_form_basis(self):
        # constants and affine functions, exact to the residual check, not
        # eigensolver vectors with O(eps |M|) residuals
        ops = [assemble(GRID, name)
               for name in ("neumann_pair", "ex2_dn2_dn3", "ex5_dn2A_dn3")]
        ops.append(assemble(make_grid((16, 12)), "neumann_pair"))
        for op in ops:
            K = kernel(op)
            scale = float(np.abs(scipy_csr(op)).sum(axis=1).max())
            assert np.abs(scipy_csr(op) @ K).max() <= \
                1e-12 * scale * np.abs(K).max(), op.bc_name
            assert np.abs(op.weight * K.T @ K - np.eye(K.shape[1])).max() \
                <= 1e-12, op.bc_name
            assert np.ptp(K[:, 0]) == 0.0, op.bc_name

    def test_two_disconnected_intervals(self):
        # block-diagonal fixture: two independent zero-flux plates carry a
        # two-dimensional stationary space, but only the global constant has
        # closed form; with it pinned, the second block's constant leaves the
        # rest of M singular, and the certificate refuses what it cannot name
        op1 = assemble(GRID, "neumann_pair")
        M = sp.block_diag([scipy_csr(op1), scipy_csr(op1)], format="csr")
        nodes = np.vstack([op1.nodes, op1.nodes + 2.0])
        op2 = DiscretePlateOperator(op1.grid, "neumann_pair",
                                    CSR(M.indptr, M.indices, M.data), nodes,
                                    "cell", op1.weight)
        with pytest.raises(IndefiniteError, match="1 closed-form"):
            kernel(op2)

    @pytest.mark.parametrize("n", [1500, 2000, 3000, 5000])
    def test_verdicts_survive_roundoff(self, n):
        # the band roundoff eps ||M|| ~ 16 eps n^4 is 0.018 at n = 1,500 and
        # 2.2 at n = 5,000, above the small eigenvalues: the verdict comes
        # from the closed forms and a factor, not from an eigenvalue count
        grid = make_grid(n)
        for name, nk in (("ex2_dn2_dn3", 2), ("ex5_dn2A_dn3", 1),
                         ("neumann_pair", 1), ("ex3_dn_dn3_A", 0)):
            assert kernel(assemble(grid, name)).shape == (n, nk), name
        for name, a in (("ex3_dn_dn3_A", 0.5), ("ex3_dn_dn3_A", 1.0),
                        ("ex5_dn2A_dn3", -1.0), ("ex5_dn2A_dn3", -1.3),
                        ("ex4_id_dn2_A", -3.0)):
            with pytest.raises(IndefiniteError, match="indefinite"):
                kernel(assemble(grid, name, params={"a": a}))

    def test_indefinite_operator_refused(self):
        # a parameter outside the nonnegative range: mu_0 < 0 is no
        # stationary mode
        for name, a in (("ex3_dn_dn3_A", 1.0), ("ex5_dn2A_dn3", -1.0),
                        ("ex4_id_dn2_A", -3.0)):
            op = assemble(GRID, name, params={"a": a})
            assert spectrum(op, 1, vectors=False)[0][0] < 0, name
            with pytest.raises(IndefiniteError, match="indefinite"):
                kernel(op)


class TestCompiledKernels:
    def test_checks_of_the_lapack_calls(self):
        # scipy.linalg's checks stay: a non-finite input is a ValueError, a
        # failed factorization names its routine
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lapack.eigh(np.array([[1.0, math.nan], [math.nan, 1.0]]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lapack.eigvals_banded(np.array([[1.0, math.inf]]), 1)
        with pytest.raises(np.linalg.LinAlgError, match="^dpotrf: leading "
                                                        "minor 2 is not"):
            _lapack.cholesky_solve(indefinite, np.eye(2))
        with pytest.raises(np.linalg.LinAlgError, match="^dpbtrf: leading "
                                                        "minor 2 is not"):
            _lapack.cholesky_banded(np.array([[1.0, 1.0], [2.0, 0.0]]))

    def test_calls_match_scipy_linalg(self, rng):
        A = rng.normal(size=(7, 7))
        A = A + A.T
        G = A @ A.T + np.eye(7)
        ab = lower_band(assemble(make_grid(40), "clamped").csr)
        for mine, ref in [
                (_lapack.eigh(A), scipy.linalg.eigh(A)),
                (_lapack.eigh(A, vectors=False), scipy.linalg.eigvalsh(A)),
                (_lapack.cholesky_solve(G, A), scipy.linalg.solve_triangular(
                    scipy.linalg.cholesky(G, lower=True), A, lower=True)),
                (_lapack.cholesky_banded(ab),
                 scipy.linalg.cholesky_banded(ab, lower=True)),
                (_lapack.eigvals_banded(ab, 5), scipy.linalg.eig_banded(
                    ab, lower=True, eigvals_only=True, select="i",
                    select_range=(0, 4)))]:
            for x, y in zip(*((mine, ref) if isinstance(mine, tuple)
                              else ((mine,), (ref,)))):
                assert np.array_equal(x, y)

    def test_resolvent_calls_match_scipy_sparse_linalg(self, rng):
        # SuperLU, ARPACK and dstebz as the resolvent calls them
        import scipy.sparse.linalg as sla
        op = assemble(make_grid(40), "clamped")
        A = (scipy_csr(op) + 3j * sp.identity(op.size)).tocsc()
        lu = _lapack.splu(A.data, A.indices, A.indptr)
        ref = sla.splu(A, permc_spec="MMD_AT_PLUS_A")
        b = rng.normal(size=op.size) + 1j * rng.normal(size=op.size)
        for trans in ("N", "H"):
            assert np.array_equal(lu.solve(b, trans=trans),
                                  ref.solve(b, trans=trans))
        R = sla.LinearOperator(A.shape, matvec=lu.solve, dtype=complex)
        assert _lapack.eig_largest(lu.solve, b, 8, 1e-12, 10 * b.size) == \
            sla.eigs(R, k=1, which="LM", tol=1e-12, ncv=8, v0=b,
                     return_eigenvectors=False)[0]
        # a shift that crowds the inverse's eigenvalues: one restart is
        # short of convergence, nan where eigs raises
        A = (scipy_csr(op) + 1e8j * sp.identity(op.size)).tocsc()
        lu = _lapack.splu(A.data, A.indices, A.indptr)
        R = sla.LinearOperator(A.shape, matvec=lu.solve, dtype=complex)
        assert np.isnan(_lapack.eig_largest(lu.solve, b, 8, 1e-12, 1))
        with pytest.raises(sla.ArpackNoConvergence):
            sla.eigs(R, k=1, which="LM", tol=1e-12, ncv=8, v0=b, maxiter=1)
        d, e = rng.normal(size=9), rng.normal(size=8)
        for j in range(9):      # j = 0 is the 1 x 1 shortcut
            assert _lapack.eigvalsh_tridiagonal(d[:j + 1], e[:j], j) == \
                scipy.linalg.eigvalsh_tridiagonal(
                    d[:j + 1], e[:j], select="i", select_range=(j, j))[0]
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lapack.eigvalsh_tridiagonal(np.array([math.nan]), e[:0], 0)


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
                          shape=scipy_csr(op).shape).tocsr()
        assert np.abs((M - scipy_csr(op)).toarray()).max() == 0.0
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

    def test_damping_profile_2d_rows_match_their_nodes(self, tmp_path, rng):
        # rows in any order, each off its node by under a quarter cell, land
        # on their own nodes; a row moved onto another node leaves its own
        # node bare and gives the other two rows
        op = assemble(make_grid((9, 12), (1.0, 0.75)), "hinged")
        order = rng.permutation(op.size)
        h = np.array(op.grid.h)
        rows = op.nodes[order] + rng.uniform(-0.1, 0.1, op.nodes.shape) * h
        path = tmp_path / "alpha.txt"
        np.savetxt(path, np.column_stack([rows, order]))
        assert np.array_equal(load_damping_profile(path, op.nodes),
                              np.arange(op.size))
        rows[0] = op.nodes[order[1]]
        np.savetxt(path, np.column_stack([rows, order]))
        count = 0 if order[0] < order[1] else 2     # the first bad node's
        with pytest.raises(ValueError, match=(
                rf"^node \(.*\) has {count} profile rows within a quarter "
                rf"cell \(0.015625\); each node needs one$")):
            load_damping_profile(path, op.nodes)

    def test_damping_profile_rows_off_the_grid(self, tmp_path, capsys):
        # one row per node of a 9 x 12 hinged grid, every coordinate shifted
        # by 5.0: no node has a row within a quarter cell
        from platelab.cli import main
        op = assemble(make_grid((9, 12)), "hinged")
        path = tmp_path / "alpha.txt"
        np.savetxt(path, np.column_stack([op.nodes + 5.0, np.ones(op.size)]))
        with pytest.raises(ValueError, match="0 profile rows within a quarter"):
            load_damping_profile(path, op.nodes)
        assert main(["simulate", "--bc", "hinged", "--dim", "2", "--n", "9",
                     "--n-y", "12", "--alpha", f"file:{path}",
                     "--out", str(tmp_path / "log.csv")]) == 2
        assert "--alpha" in capsys.readouterr().err
