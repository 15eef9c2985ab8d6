"""Lattice geometry: indexing, neighbours, parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import NDIM, Lattice

DIM_CHOICES = [2, 4, 6, 8]


@st.composite
def lattice_dims(draw):
    return tuple(draw(st.sampled_from(DIM_CHOICES)) for _ in range(NDIM))


class TestConstruction:
    def test_volume(self):
        assert Lattice((4, 4, 4, 8)).volume == 512

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Lattice((4, 4, 4))

    def test_rejects_odd_extent(self):
        with pytest.raises(ValueError):
            Lattice((4, 3, 4, 4))

    def test_rejects_tiny_extent(self):
        with pytest.raises(ValueError):
            Lattice((4, 4, 4, 0))

    def test_equality_and_hash(self):
        assert Lattice((4, 4, 4, 8)) == Lattice((4, 4, 4, 8))
        assert Lattice((4, 4, 4, 8)) != Lattice((8, 4, 4, 4))
        assert hash(Lattice((2, 2, 2, 2))) == hash(Lattice((2, 2, 2, 2)))

    def test_repr(self):
        assert "4x4x4x8" in repr(Lattice((4, 4, 4, 8)))


class TestIndexing:
    @given(lattice_dims())
    @settings(max_examples=20, deadline=None)
    def test_coords_index_roundtrip(self, dims):
        lat = Lattice(dims)
        idx = np.arange(lat.volume)
        assert np.array_equal(lat.index(lat.coords(idx)), idx)

    def test_x_fastest_convention(self):
        # paper Listing 2: idx = x + X*(y + Y*(z + Z*t))
        lat = Lattice((4, 6, 8, 2))
        assert np.array_equal(lat.coords(1), [1, 0, 0, 0])
        assert np.array_equal(lat.coords(4), [0, 1, 0, 0])
        assert np.array_equal(lat.coords(4 * 6), [0, 0, 1, 0])
        assert np.array_equal(lat.coords(4 * 6 * 8), [0, 0, 0, 1])

    def test_index_wraps_coordinates(self):
        lat = Lattice((4, 4, 4, 4))
        assert lat.index(np.array([5, 0, 0, 0])) == lat.index(np.array([1, 0, 0, 0]))
        assert lat.index(np.array([-1, 0, 0, 0])) == lat.index(np.array([3, 0, 0, 0]))

    def test_site_coords_shape(self, lat448):
        assert lat448.site_coords.shape == (512, 4)


class TestNeighbors:
    @given(lattice_dims())
    @settings(max_examples=15, deadline=None)
    def test_fwd_bwd_inverse(self, dims):
        lat = Lattice(dims)
        for mu in range(NDIM):
            assert np.array_equal(lat.bwd[mu][lat.fwd[mu]], np.arange(lat.volume))
            assert np.array_equal(lat.fwd[mu][lat.bwd[mu]], np.arange(lat.volume))

    def test_fwd_is_permutation(self, lat448):
        for mu in range(NDIM):
            assert np.array_equal(np.sort(lat448.fwd[mu]), np.arange(lat448.volume))

    def test_neighbor_moves_one_step(self, lat448):
        for mu in range(NDIM):
            delta = (
                lat448.site_coords[lat448.fwd[mu]] - lat448.site_coords
            ) % np.asarray(lat448.dims)
            expect = np.zeros(NDIM, dtype=int)
            expect[mu] = 1
            assert np.array_equal(delta, np.tile(expect, (lat448.volume, 1)))

    def test_crossing_masks_count(self, lat448):
        for mu in range(NDIM):
            face = lat448.volume // lat448.dims[mu]
            assert lat448.crosses_fwd[mu].sum() == face
            assert lat448.crosses_bwd[mu].sum() == face

    def test_crossing_iff_wraps(self, lat44):
        for mu in range(NDIM):
            wrapped = lat44.site_coords[lat44.fwd[mu], mu] < lat44.site_coords[:, mu]
            assert np.array_equal(wrapped, lat44.crosses_fwd[mu])


class TestParity:
    def test_half_volume_split(self, lat448):
        assert len(lat448.even_sites) == len(lat448.odd_sites) == lat448.half_volume

    def test_neighbors_flip_parity(self, lat448):
        for mu in range(NDIM):
            assert np.all(lat448.parity[lat448.fwd[mu]] != lat448.parity)
            assert np.all(lat448.parity[lat448.bwd[mu]] != lat448.parity)

    def test_origin_is_even(self, lat44):
        assert lat44.parity[0] == 0

    def test_sites_of_parity(self, lat44):
        assert np.array_equal(lat44.sites_of_parity(0), lat44.even_sites)
        assert np.array_equal(lat44.sites_of_parity(1), lat44.odd_sites)

    def test_parity_from_coords(self, lat448):
        expect = lat448.site_coords.sum(axis=1) % 2
        assert np.array_equal(lat448.parity, expect)

    @given(lattice_dims())
    def test_parity_sites_partition_the_lattice(self, dims):
        lat = Lattice(dims)
        even, odd = lat.sites_of_parity(0), lat.sites_of_parity(1)
        assert len(even) == len(odd) == lat.volume // 2
        assert np.array_equal(lat.parity_order, np.concatenate([even, odd]))
        assert np.array_equal(np.sort(lat.parity_order), np.arange(lat.volume))
        assert np.array_equal(
            lat.parity_order[lat.parity_position], np.arange(lat.volume)
        )

    @given(lattice_dims())
    def test_parity_sites_match_coordinate_parity(self, dims):
        lat = Lattice(dims)
        coords = lat.coords(np.arange(lat.volume))
        parity = coords.sum(axis=1) % 2
        assert np.array_equal(lat.sites_of_parity(0), np.flatnonzero(parity == 0))
        assert np.array_equal(lat.sites_of_parity(1), np.flatnonzero(parity == 1))

    @given(lattice_dims())
    def test_every_hop_crosses_parity(self, dims):
        """Nearest-neighbour hops are strictly parity-to-parity, the fact
        the half-volume Schur kernels rely on."""
        lat = Lattice(dims)
        is_even = np.zeros(lat.volume, dtype=bool)
        is_even[lat.sites_of_parity(0)] = True
        for mu in range(NDIM):
            assert np.array_equal(is_even[lat.fwd[mu]], ~is_even)
            assert np.array_equal(is_even[lat.bwd[mu]], ~is_even)
