"""Chirality-preserving aggregation transfer operators."""

import numpy as np
import pytest

from repro.dirac.gamma import chirality_slices
from repro.lattice import Blocking, Lattice
from repro.transfer import Transfer
from tests.conftest import random_spinor


@pytest.fixture(scope="module")
def transfer44(lat44, blocking44):
    nulls = [random_spinor(lat44, seed=200 + k) for k in range(5)]
    return Transfer(blocking44, nulls)


def random_coarse(transfer, seed):
    r = np.random.default_rng(seed)
    shape = (transfer.coarse_lattice.volume, 2, transfer.coarse_nc)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


class TestConstruction:
    def test_shapes(self, transfer44):
        assert transfer44.coarse_ns == 2
        assert transfer44.coarse_nc == 5
        assert transfer44.coarse_lattice.dims == (2, 2, 2, 2)

    def test_no_vectors_rejected(self, blocking44):
        with pytest.raises(ValueError):
            Transfer(blocking44, [])

    def test_wrong_volume_rejected(self, blocking44):
        bad = np.zeros((7, 4, 3), dtype=complex)
        with pytest.raises(ValueError):
            Transfer(blocking44, [bad])

    def test_too_many_vectors_rejected(self, lat44):
        # aggregate dof per chirality = bv * 2 * 3 = 16*6 = 96 on 2^4 blocks
        blocking = Blocking(lat44, (2, 2, 2, 2))
        nulls = [random_spinor(lat44, seed=k) for k in range(97)]
        with pytest.raises(ValueError):
            Transfer(blocking, nulls)

    def test_dependent_vectors_rejected(self, lat44, blocking44):
        v = random_spinor(lat44, seed=1)
        with pytest.raises(ValueError):
            Transfer(blocking44, [v, 2.0 * v])


class TestOrthonormality:
    def test_block_orthonormal(self, transfer44):
        assert transfer44.orthonormality_violation() < 1e-12

    def test_restrict_prolong_identity(self, transfer44):
        # R P = I on the coarse space
        xc = random_coarse(transfer44, 300)
        rt = transfer44.restrict(transfer44.prolong(xc))
        np.testing.assert_allclose(rt, xc, atol=1e-12)

    def test_prolong_restrict_projector(self, transfer44, lat44):
        # P R is an orthogonal projector on the fine space
        v = random_spinor(lat44, seed=301)
        pr = lambda x: transfer44.prolong(transfer44.restrict(x))
        once = pr(v)
        np.testing.assert_allclose(pr(once), once, atol=1e-12)
        # projector norm <= 1
        assert np.linalg.norm(once.ravel()) <= np.linalg.norm(v.ravel()) + 1e-12


class TestAdjointness:
    def test_restrictor_is_prolongator_dagger(self, transfer44, lat44):
        v = random_spinor(lat44, seed=302)
        xc = random_coarse(transfer44, 303)
        lhs = np.vdot(transfer44.restrict(v).ravel(), xc.ravel())
        rhs = np.vdot(v.ravel(), transfer44.prolong(xc).ravel())
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)


class TestChirality:
    def test_prolong_preserves_chirality(self, transfer44):
        up, down = chirality_slices()
        xc = random_coarse(transfer44, 304)
        xc[:, 1, :] = 0  # only coarse chirality +
        fine = transfer44.prolong(xc)
        assert np.abs(fine[:, down, :]).max() < 1e-14

    def test_restrict_preserves_chirality(self, transfer44, lat44):
        up, down = chirality_slices()
        v = random_spinor(lat44, seed=305)
        v[:, up, :] = 0  # only fine chirality -
        xc = transfer44.restrict(v)
        assert np.abs(xc[:, 0, :]).max() < 1e-14

    def test_null_vectors_reconstructed_exactly(self, lat44, blocking44):
        # the prolongator must reproduce the near-null vectors it was
        # built from (weak approximation property, exact here because
        # the vectors are in the span of the aggregates by construction)
        nulls = [random_spinor(lat44, seed=400 + k) for k in range(3)]
        t = Transfer(blocking44, nulls)
        for v in nulls:
            pr = t.prolong(t.restrict(v))
            np.testing.assert_allclose(pr, v, atol=1e-11)


class TestFieldInterface:
    def test_restrict_field(self, transfer44, lat44):
        from repro.fields import SpinorField

        f = SpinorField(lat44, random_spinor(lat44, seed=306))
        out = transfer44.restrict_field(f)
        assert out.lattice == transfer44.coarse_lattice
        np.testing.assert_allclose(out.data, transfer44.restrict(f.data))

    def test_prolong_field(self, transfer44):
        from repro.fields import SpinorField

        xc = random_coarse(transfer44, 307)
        f = SpinorField(transfer44.coarse_lattice, xc)
        out = transfer44.prolong_field(f)
        assert out.lattice == transfer44.fine_lattice


# ----------------------------------------------------------------------
# the single conjugate-transposed basis store against the per-chirality
# arithmetic it replaced
# ----------------------------------------------------------------------
def _store_ensembles():
    from repro.workloads import ANISO40_SCALED, mg_params_for

    aniso = mg_params_for(ANISO40_SCALED, "24/24").levels
    fine = ANISO40_SCALED.lattice()
    coarse = Blocking(fine, aniso[0].block).coarse
    return {
        "4^4": (Lattice((4, 4, 4, 4)), (2, 2, 2, 2), 4, 3, 6),
        "4^3x8-aniso": (Lattice((4, 4, 4, 8)), (2, 2, 2, 4), 4, 3, 8),
        "aniso40-L0": (fine, aniso[0].block, 4, 3, aniso[0].n_null),
        "aniso40-L1": (coarse, aniso[1].block, 2, aniso[0].n_null, aniso[1].n_null),
    }


_STORE_CASES = _store_ensembles()


def _random_field(shape, seed):
    r = np.random.default_rng(seed)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


class _PerChiralityOracle:
    """The transfer arithmetic as one basis GEMM per chirality, on the
    basis ``B`` itself (shape ``(V_c, 2, rows, Nc_hat)``)."""

    def __init__(self, t: Transfer):
        self.t = t
        self.basis = np.conj(np.swapaxes(t._basis_dag, -1, -2))

    def _slices(self):
        half = self.t.fine_ns // 2
        return (slice(0, half), slice(half, self.t.fine_ns))

    def restrict(self, fine):
        t = self.t
        vc = t.coarse_lattice.volume
        out = np.empty((vc, 2, t.coarse_nc), dtype=np.complex128)
        for chi, sl in enumerate(self._slices()):
            x = fine[:, sl, :][t.blocking.agg_sites].reshape(vc, -1, 1)
            bh = np.conj(np.swapaxes(self.basis[:, chi], -1, -2))
            out[:, chi, :] = np.matmul(bh, x)[..., 0]
        return out

    def prolong(self, coarse):
        t = self.t
        out = np.zeros(
            (t.fine_lattice.volume, t.fine_ns, t.fine_nc), dtype=np.complex128
        )
        agg = t.blocking.agg_sites.ravel()
        for chi, sl in enumerate(self._slices()):
            x = np.matmul(self.basis[:, chi], coarse[:, chi, :, None])[..., 0]
            out[agg, sl, :] = x.reshape(len(agg), t.fine_ns // 2, t.fine_nc)
        return out


class TestSingleBasisStore:
    @pytest.fixture(scope="class", params=sorted(_STORE_CASES))
    def case(self, request):
        lat, block, ns, nc, n_null = _STORE_CASES[request.param]
        nulls = [
            _random_field((lat.volume, ns, nc), seed=500 + k) for k in range(n_null)
        ]
        t = Transfer(Blocking(lat, block), nulls)
        return t, _PerChiralityOracle(t)

    @staticmethod
    def _assert_rel(got, want):
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= 1e-13, err

    def test_holds_exactly_one_basis_array(self, case):
        t, _ = case
        arrays = [k for k, v in vars(t).items() if isinstance(v, np.ndarray)]
        assert arrays == ["_basis_dag"]
        vc, rows = t.coarse_lattice.volume, t._rows
        assert t._basis_dag.shape == (vc, 2, t.coarse_nc, rows)

    def test_restrict_and_prolong_match_oracle(self, case):
        t, oracle = case
        fine = _random_field((t.fine_lattice.volume, t.fine_ns, t.fine_nc), 601)
        coarse = _random_field((t.coarse_lattice.volume, 2, t.coarse_nc), 602)
        self._assert_rel(t.restrict(fine), oracle.restrict(fine))
        self._assert_rel(t.prolong(coarse), oracle.prolong(coarse))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_batched_match_oracle(self, case, k):
        t, oracle = case
        fines = _random_field((k, t.fine_lattice.volume, t.fine_ns, t.fine_nc), 603)
        coarses = _random_field((k, t.coarse_lattice.volume, 2, t.coarse_nc), 604)
        got_r = t.restrict_multi(fines)
        got_p = t.prolong_multi(coarses)
        assert got_r.shape == coarses.shape and got_p.shape == fines.shape
        for i in range(k):
            self._assert_rel(got_r[i], oracle.restrict(fines[i]))
            self._assert_rel(got_p[i], oracle.prolong(coarses[i]))
