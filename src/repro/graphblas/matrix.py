"""The GraphBLAS matrix object and its kernels.

``GrbMatrix`` wraps a CSR adjacency (row-major; ``mxv`` therefore pulls
along rows) and provides the masked, semiring-parameterized kernels the
GraphBLAS standard defines:

* ``mxv(semiring, x, mask=None, complement_mask=False)``;
* ``vxm`` (x^T A, via the stored transpose);
* ``ewise_add`` / ``ewise_mult`` on vectors;
* ``reduce`` (vector -> scalar under a monoid).

Dense float64 vectors keep the implementation small; sparsity is
exploited structurally (empty rows are skipped via the row pointer) and
masks suppress both computation and output, which is what the BFS and
SSSP loops rely on for work efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.frontier import gather_slots
from repro.graph.scratch import scratch_for
from repro.graphblas.profiler import KernelProfiler
from repro.graphblas.semiring import Semiring

__all__ = ["GrbMatrix"]


class GrbMatrix:
    """A square GraphBLAS matrix over float64 values."""

    def __init__(self, csr: CSRGraph, values: np.ndarray | None = None,
                 profiler: KernelProfiler | None = None):
        self.csr = csr
        if values is None:
            values = (csr.weights if csr.weights is not None
                      else np.ones(csr.n_edges))
        values = np.asarray(values, dtype=np.float64)
        if values.shape != csr.col_idx.shape:
            raise ConfigError("values must align with the CSR pattern")
        self.values = values
        self.profiler = profiler or KernelProfiler()
        self._transpose: "GrbMatrix | None" = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.csr.n_vertices

    @property
    def nvals(self) -> int:
        return self.csr.n_edges

    def transpose(self) -> "GrbMatrix":
        """A^T, built once and cached (GraphBLAS descriptors' INP0)."""
        if self._transpose is None:
            t = CSRGraph.from_arrays(self.csr.col_idx, self.csr.source_ids(),
                                     self.n, weights=self.values)
            self._transpose = GrbMatrix(t, profiler=self.profiler)
            self._transpose._transpose = self
        return self._transpose

    # ------------------------------------------------------------------
    def mxv(self, semiring: Semiring, x: np.ndarray,
            mask: np.ndarray | None = None,
            complement_mask: bool = False) -> np.ndarray:
        """``y = A (+.x) x`` with optional output mask.

        Rows excluded by the mask are neither computed nor written
        (they return the additive identity), matching the standard's
        replace semantics.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ConfigError("vector length mismatch")
        rows = np.arange(self.n)
        if mask is not None:
            m = np.asarray(mask, dtype=bool)
            if complement_mask:
                m = ~m
            rows = rows[m]
        y = np.full(self.n, semiring.add_identity, dtype=np.float64)
        if rows.size == 0 or self.nvals == 0:
            self.profiler.record("mxv", semiring.name, 0, 0)
            return y
        counts = (self.csr.row_ptr[rows + 1] - self.csr.row_ptr[rows])
        rows_ne = rows[counts > 0]
        # Empty rows are dropped first: ``reduce_segments`` (reduceat)
        # needs every segment non-empty; the shared gather then yields
        # the identical slots/offsets the inline expansion produced.
        gs = gather_slots(self.csr.row_ptr, rows_ne,
                          scratch_for(self.csr, self.n, self.nvals))
        if gs.total:
            terms = semiring.combine(self.values[gs.slots],
                                     x[self.csr.col_idx[gs.slots]])
            y[rows_ne] = semiring.reduce_segments(
                terms.astype(np.float64), gs.offsets)
        self.profiler.record("mxv", semiring.name, gs.total, rows.size)
        return y

    def vxm(self, semiring: Semiring, x: np.ndarray,
            mask: np.ndarray | None = None,
            complement_mask: bool = False) -> np.ndarray:
        """``y = x (+.x) A`` == ``A^T (+.x) x``."""
        return self.transpose().mxv(semiring, x, mask=mask,
                                    complement_mask=complement_mask)

    # ------------------------------------------------------------------
    def ewise_add(self, semiring: Semiring, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
        out = semiring.add(np.asarray(a, dtype=np.float64),
                           np.asarray(b, dtype=np.float64))
        self.profiler.record("ewise_add", semiring.name, a.size, a.size)
        return out

    def ewise_mult(self, semiring: Semiring, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
        out = semiring.multiply(np.asarray(a, dtype=np.float64),
                                np.asarray(b, dtype=np.float64))
        self.profiler.record("ewise_mult", semiring.name, a.size, a.size)
        return out

    def reduce(self, semiring: Semiring, x: np.ndarray) -> float:
        out = float(semiring.add.reduce(
            np.asarray(x, dtype=np.float64),
            initial=semiring.add_identity))
        self.profiler.record("reduce", semiring.name, x.size, 1)
        return out
