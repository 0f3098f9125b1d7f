"""Unit tests for CSRGraph."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import MAX_KEYED_VERTICES, CSRGraph
from repro.graph.edgelist import EdgeList


class TestBuild:
    def test_from_arrays_sorted_rows(self):
        csr = CSRGraph.from_arrays(np.array([1, 0, 1]),
                                   np.array([2, 1, 0]), 3)
        assert csr.row_ptr.tolist() == [0, 1, 3, 3]
        assert csr.neighbors(1).tolist() == [0, 2]

    def test_from_edge_list_symmetrize(self, tiny_edges):
        csr = CSRGraph.from_edge_list(tiny_edges, symmetrize=True)
        assert csr.n_edges == 2 * tiny_edges.n_edges
        # Undirected: in-degree == out-degree.
        assert np.array_equal(csr.in_degrees(), csr.out_degrees())

    def test_empty_graph(self):
        csr = CSRGraph.from_arrays(np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64), 4)
        assert csr.n_vertices == 4
        assert csr.n_edges == 0

    def test_duplicate_edges_kept(self):
        csr = CSRGraph.from_arrays(np.array([0, 0]), np.array([1, 1]), 2)
        assert csr.n_edges == 2

    def test_invalid_row_ptr_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(row_ptr=np.array([0, 2, 1]),
                     col_idx=np.array([0, 1]))

    def test_row_ptr_must_end_at_nnz(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(row_ptr=np.array([0, 1]), col_idx=np.array([0, 1]))

    def test_weights_alignment_checked(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(row_ptr=np.array([0, 1]), col_idx=np.array([0]),
                     weights=np.array([1.0, 2.0]))


class TestAccessors:
    def test_neighbors_is_view(self, tiny_csr):
        nbrs = tiny_csr.neighbors(0)
        assert nbrs.base is tiny_csr.col_idx

    def test_degrees_sum_to_nnz(self, kron10_csr):
        assert kron10_csr.out_degrees().sum() == kron10_csr.n_edges
        assert kron10_csr.in_degrees().sum() == kron10_csr.n_edges

    def test_edge_weights_requires_weights(self):
        csr = CSRGraph.from_arrays(np.array([0]), np.array([1]), 2)
        with pytest.raises(GraphFormatError):
            csr.edge_weights(0)

    def test_has_arc(self, tiny_csr):
        assert tiny_csr.has_arc(0, 1)
        assert tiny_csr.has_arc(1, 0)
        assert not tiny_csr.has_arc(0, 4)
        assert not tiny_csr.has_arc(5, 0)


class TestDerived:
    def test_transpose_involution(self, kron10_csr):
        tt = kron10_csr.transposed().transposed()
        assert np.array_equal(tt.row_ptr, kron10_csr.row_ptr)
        assert np.array_equal(tt.col_idx, kron10_csr.col_idx)

    def test_transpose_swaps_degrees(self, patents_small):
        csr = CSRGraph.from_edge_list(patents_small)
        t = csr.transposed()
        assert np.array_equal(t.out_degrees(), csr.in_degrees())

    def test_source_ids_matches_row_ptr(self, kron10_csr):
        src = kron10_csr.source_ids()
        assert src.size == kron10_csr.n_edges
        deg = np.bincount(src, minlength=kron10_csr.n_vertices)
        assert np.array_equal(deg, kron10_csr.out_degrees())

    def test_to_scipy_shape_and_nnz(self, tiny_csr):
        mat = tiny_csr.to_scipy()
        assert mat.shape == (6, 6)
        assert mat.nnz == tiny_csr.n_edges

    def test_to_edge_arrays_roundtrip(self, kron10):
        csr = CSRGraph.from_edge_list(kron10)
        src, dst = csr.to_edge_arrays()
        back = CSRGraph.from_arrays(src, dst, csr.n_vertices)
        assert np.array_equal(back.col_idx, csr.col_idx)
        assert np.array_equal(back.row_ptr, csr.row_ptr)


class TestEndpointValidation:
    """Regression: out-of-range endpoints must raise GraphFormatError.

    An id ``>= n`` used to surface as a raw NumPy shape error out of
    the bincount/cumsum pair; a *negative* id silently corrupted the
    counting sort into an inconsistent row_ptr.
    """

    def test_src_at_or_above_n_rejected_with_index(self):
        with pytest.raises(GraphFormatError,
                           match=r"src\[1\] = 50.*\[0, 5\)"):
            CSRGraph.from_arrays(np.array([0, 50]), np.array([1, 2]), 5)

    def test_negative_dst_rejected_with_index(self):
        with pytest.raises(GraphFormatError,
                           match=r"dst\[0\] = -2"):
            CSRGraph.from_arrays(np.array([0]), np.array([-2]), 5)

    def test_negative_src_no_longer_corrupts_silently(self):
        with pytest.raises(GraphFormatError, match=r"src\[2\] = -1"):
            CSRGraph.from_arrays(np.array([0, 1, -1]),
                                 np.array([1, 2, 0]), 4)

    def test_dst_equal_n_rejected(self):
        with pytest.raises(GraphFormatError, match=r"dst\[0\] = 3"):
            CSRGraph.from_arrays(np.array([0]), np.array([3]), 3)

    def test_boundary_ids_accepted(self):
        csr = CSRGraph.from_arrays(np.array([0, 3]), np.array([3, 0]), 4)
        assert csr.n_edges == 2


def forbid_numpy_allocation(monkeypatch) -> None:
    """Make every NumPy call that could allocate ``n`` elements fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the key-space guard")
    for name in ("zeros", "empty", "ones", "full", "arange", "argsort",
                 "searchsorted", "bincount", "cumsum"):
        monkeypatch.setattr(np, name, refuse)


class TestKeyOverflowGuard:
    """Arcs sort by the int64 key ``src * n + dst``, which overflows once
    ``n`` exceeds :data:`MAX_KEYED_VERTICES`."""

    def test_bound_is_the_int64_key_limit(self):
        top = int(np.iinfo(np.int64).max)
        assert MAX_KEYED_VERTICES ** 2 - 1 <= top
        assert (MAX_KEYED_VERTICES + 1) ** 2 - 1 > top

    def test_from_arrays_refuses_before_allocating(self, monkeypatch):
        n = MAX_KEYED_VERTICES + 1
        src, dst = np.array([0]), np.array([1])
        forbid_numpy_allocation(monkeypatch)
        with pytest.raises(GraphFormatError, match=f"n = {n} vertices"):
            CSRGraph.from_arrays(src, dst, n)
