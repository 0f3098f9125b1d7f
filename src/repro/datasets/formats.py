"""Per-system native file formats.

The paper's phase 2 ("dataset homogenizer") converts one input graph
into every system's preferred on-disk format, both for correctness and
"to speed up file I/O whenever possible by using the library designer's
serialized data structure file formats" (Sec. III-B).  Each format here
mirrors the observable layout of the real system's format:

=============  ==================================================
GAP            ``.sg`` / ``.wsg`` -- serialized CSR binary
Graph500       ``.g500`` -- packed int64 edge tuples (generator dump)
GraphBIG       ``vertex.csv`` + ``edge.csv`` (IBM System G CSV)
GraphMat       ``.mtxbin`` -- binary 1-based (src, dst, weight) triples
PowerGraph     ``.tsv`` -- whitespace edge list (snap loader)
plain          ``.el`` / ``.wel`` -- text edge list
=============  ==================================================
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList

__all__ = [
    "WeightedRows",
    "write_el", "read_el",
    "write_sg", "read_sg",
    "write_g500", "read_g500",
    "write_graphbig_csv", "read_graphbig_csv",
    "write_graphmat_bin", "read_graphmat_bin",
    "write_powergraph_tsv", "read_powergraph_tsv",
]

_SG_MAGIC = b"GAPBSSG1"
_G500_MAGIC = b"GRPH500E"
_GMAT_MAGIC = b"GMATBIN1"

#: Rows per rendered chunk: bounds the Python values and text the row
#: writer holds at once, whatever the edge count.
_CHUNK_ROWS = 1 << 12


# ----------------------------------------------------------------------
# Text rows: the one writer behind every text format.
# ----------------------------------------------------------------------
def _render_rows(row_fmt: str, columns) -> Iterator[str]:
    """Yield the rows of the aligned 1-D ``columns`` as text, in chunks.

    ``row_fmt`` is one row's ``%`` format including its ``"\\n"``.  Each
    chunk is a single ``%`` over ``row_fmt`` repeated once per row, fed
    the chunk's ``.tolist()`` values interleaved row-major.  The bytes
    equal ``np.savetxt(fh, np.column_stack(columns), fmt=row_fmt[:-1])``
    (savetxt also formats each row with ``%``); integer columns stay
    integers instead of passing through savetxt's float64 cast, which
    agrees for every id below 2**53.
    """
    k = len(columns)
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        values = [c[lo:lo + _CHUNK_ROWS].tolist() for c in columns]
        n_rows = len(values[0])
        flat = [None] * (k * n_rows)
        for j, col in enumerate(values):
            flat[j::k] = col
        yield (row_fmt * n_rows) % tuple(flat)


class WeightedRows:
    """The ``src dst weight`` rows of one weighted edge list, rendered
    once and written with any separator.

    ``.wel``, PowerGraph's ``.tsv`` and GraphBIG's ``edge.csv`` hold the
    same ``%d?%d?%.17g`` rows and differ only in the separator.  No
    rendered number contains a space, tab or comma, so swapping the
    separator in the rendered text is byte-identical to formatting the
    rows again.  The first :meth:`write` renders; later ones reuse the
    text, which lives exactly as long as this object -- keep one per
    :func:`~repro.datasets.homogenize.homogenize` call, never longer.
    """

    __slots__ = ("edges", "_chunks")

    def __init__(self, edges: EdgeList):
        self.edges = edges
        self._chunks: list[str] | None = None

    def write(self, fh, sep: str) -> None:
        if self._chunks is None:
            el = self.edges
            self._chunks = list(_render_rows(
                "%d %d %.17g\n", (el.src, el.dst, el.weights)))
        for chunk in self._chunks:
            fh.write(chunk if sep == " " else chunk.replace(" ", sep))


def _write_edge_rows(fh, edges: EdgeList, sep: str,
                     rows: WeightedRows | None) -> None:
    """``src<sep>dst[<sep>weight]`` per line, reusing ``rows`` (which
    must have been made for ``edges``) when the list is weighted."""
    if not edges.weighted:
        fh.writelines(_render_rows(f"%d{sep}%d\n", (edges.src, edges.dst)))
    elif rows is None:
        fh.writelines(_render_rows(f"%d{sep}%d{sep}%.17g\n",
                                   (edges.src, edges.dst, edges.weights)))
    elif rows.edges is not edges:
        raise ValueError("rows were rendered from a different edge list")
    else:
        rows.write(fh, sep)


# ----------------------------------------------------------------------
# Plain text edge lists (.el / .wel) -- GAP's converter input format.
# ----------------------------------------------------------------------
def write_el(edges: EdgeList, path: str | Path,
             rows: WeightedRows | None = None) -> Path:
    """Write ``src dst [weight]`` per line; extension picks weighting.

    ``rows`` (weighted lists only) reuses text another writer already
    rendered for the same edge list; see :class:`WeightedRows`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        _write_edge_rows(fh, edges, " ", rows)
    return path


def read_el(path: str | Path, n_vertices: int | None = None,
            directed: bool = True, name: str = "graph") -> EdgeList:
    arr = np.loadtxt(path, dtype=np.float64, ndmin=2)
    if arr.size == 0:
        return EdgeList(np.zeros(0, np.int64), np.zeros(0, np.int64),
                        n_vertices or 0, directed=directed, name=name)
    src = arr[:, 0].astype(np.int64)
    dst = arr[:, 1].astype(np.int64)
    weights = arr[:, 2].copy() if arr.shape[1] >= 3 else None
    n = n_vertices if n_vertices is not None else int(
        max(src.max(), dst.max())) + 1
    return EdgeList(src, dst, n, weights=weights, directed=directed,
                    name=name)


# ----------------------------------------------------------------------
# GAP serialized graph (.sg/.wsg): header + row_ptr + col_idx (+ weights).
# ----------------------------------------------------------------------
def write_sg(edges: EdgeList, path: str | Path,
             symmetrize: bool = False) -> Path:
    """Serialize CSR the way GAP's ``converter -b`` does.

    GAP stores the *built* graph so benchmark runs skip text parsing;
    EPG* measures that difference as the read-vs-build phase split.
    """
    from repro.graph.csr import CSRGraph

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    csr = CSRGraph.from_edge_list(edges, symmetrize=symmetrize)
    with path.open("wb") as fh:
        fh.write(_SG_MAGIC)
        fh.write(struct.pack(
            "<qq?", csr.n_vertices, csr.n_edges, csr.weighted))
        fh.write(csr.row_ptr.tobytes())
        fh.write(csr.col_idx.tobytes())
        if csr.weighted:
            fh.write(csr.weights.tobytes())
    return path


def read_sg(path: str | Path):
    """Load a ``.sg`` file back into a :class:`CSRGraph`."""
    from repro.graph.csr import CSRGraph

    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(len(_SG_MAGIC))
        if magic != _SG_MAGIC:
            raise GraphFormatError(f"{path}: not a GAP .sg file")
        header = fh.read(17)
        if len(header) != 17:
            raise GraphFormatError(f"{path}: truncated .sg header")
        n, m, weighted = struct.unpack("<qq?", header)
        if n < 0 or m < 0:
            raise GraphFormatError(f"{path}: corrupt .sg header")
        rp_raw = fh.read(8 * (n + 1))
        ci_raw = fh.read(8 * m)
        if len(rp_raw) != 8 * (n + 1) or len(ci_raw) != 8 * m:
            raise GraphFormatError(f"{path}: truncated .sg body")
        row_ptr = np.frombuffer(rp_raw, dtype=np.int64)
        col_idx = np.frombuffer(ci_raw, dtype=np.int64)
        weights = None
        if weighted:
            w_raw = fh.read(8 * m)
            if len(w_raw) != 8 * m:
                raise GraphFormatError(f"{path}: truncated .sg weights")
            weights = np.frombuffer(w_raw, dtype=np.float64)
    return CSRGraph(row_ptr=row_ptr.copy(), col_idx=col_idx.copy(),
                    weights=None if weights is None else weights.copy())


# ----------------------------------------------------------------------
# Graph500 packed edge tuples (.g500).
# ----------------------------------------------------------------------
def write_g500(edges: EdgeList, path: str | Path) -> Path:
    """Packed int64 pairs (plus float64 weights), the generator dump the
    reference code can mmap straight into its edge-list kernel input."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(_G500_MAGIC)
        fh.write(struct.pack("<qq?", edges.n_vertices, edges.n_edges,
                             edges.weighted))
        pairs = np.empty(2 * edges.n_edges, dtype=np.int64)
        pairs[0::2] = edges.src
        pairs[1::2] = edges.dst
        fh.write(pairs.tobytes())
        if edges.weighted:
            fh.write(edges.weights.tobytes())
    return path


def read_g500(path: str | Path, name: str = "graph") -> EdgeList:
    path = Path(path)
    with path.open("rb") as fh:
        if fh.read(len(_G500_MAGIC)) != _G500_MAGIC:
            raise GraphFormatError(f"{path}: not a Graph500 edge dump")
        header = fh.read(17)
        if len(header) != 17:
            raise GraphFormatError(f"{path}: truncated header")
        n, m, weighted = struct.unpack("<qq?", header)
        if n < 0 or m < 0:
            raise GraphFormatError(f"{path}: corrupt header")
        raw = fh.read(16 * m)
        if len(raw) != 16 * m:
            raise GraphFormatError(f"{path}: truncated edge tuples")
        pairs = np.frombuffer(raw, dtype=np.int64)
        weights = None
        if weighted:
            w_raw = fh.read(8 * m)
            if len(w_raw) != 8 * m:
                raise GraphFormatError(f"{path}: truncated weights")
            weights = np.frombuffer(w_raw, dtype=np.float64).copy()
    return EdgeList(pairs[0::2].copy(), pairs[1::2].copy(), n,
                    weights=weights, directed=False, name=name)


# ----------------------------------------------------------------------
# GraphBIG (IBM System G) CSV pair: vertex.csv + edge.csv.
# ----------------------------------------------------------------------
def write_graphbig_csv(edges: EdgeList, directory: str | Path,
                       rows: WeightedRows | None = None) -> Path:
    """GraphBIG datasets are directories holding vertex and edge CSVs."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "vertex.csv").open("w", encoding="utf-8") as fh:
        fh.write("id\n")
        fh.writelines(_render_rows("%d\n", (np.arange(edges.n_vertices),)))
    with (directory / "edge.csv").open("w", encoding="utf-8") as fh:
        fh.write("src,dst,weight\n" if edges.weighted else "src,dst\n")
        _write_edge_rows(fh, edges, ",", rows)
    return directory


def read_graphbig_csv(directory: str | Path, directed: bool = True,
                      name: str = "graph") -> EdgeList:
    directory = Path(directory)
    vpath = directory / "vertex.csv"
    epath = directory / "edge.csv"
    if not vpath.exists() or not epath.exists():
        raise GraphFormatError(f"{directory}: missing GraphBIG CSV pair")
    n = sum(1 for _ in vpath.open()) - 1
    arr = np.loadtxt(epath, dtype=np.float64, delimiter=",",
                     skiprows=1, ndmin=2)
    if arr.size == 0:
        return EdgeList(np.zeros(0, np.int64), np.zeros(0, np.int64), n,
                        directed=directed, name=name)
    weights = arr[:, 2].copy() if arr.shape[1] >= 3 else None
    return EdgeList(arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64),
                    n, weights=weights, directed=directed, name=name)


# ----------------------------------------------------------------------
# GraphMat binary matrix (.mtxbin): 1-based int32 endpoints + f32 weight.
# ----------------------------------------------------------------------
def write_graphmat_bin(edges: EdgeList, path: str | Path) -> Path:
    """GraphMat's binary edge format: (int32 src1, int32 dst1, f32 val)
    records, 1-based as in Matrix Market, preceded by a small header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    m = edges.n_edges
    rec = np.zeros(m, dtype=[("src", "<i4"), ("dst", "<i4"), ("val", "<f4")])
    rec["src"] = edges.src + 1
    rec["dst"] = edges.dst + 1
    rec["val"] = edges.weights if edges.weighted else 1.0
    with path.open("wb") as fh:
        fh.write(_GMAT_MAGIC)
        fh.write(struct.pack("<qq?", edges.n_vertices, m, edges.weighted))
        fh.write(rec.tobytes())
    return path


def read_graphmat_bin(path: str | Path, directed: bool = True,
                      name: str = "graph") -> EdgeList:
    path = Path(path)
    with path.open("rb") as fh:
        if fh.read(len(_GMAT_MAGIC)) != _GMAT_MAGIC:
            raise GraphFormatError(f"{path}: not a GraphMat binary matrix")
        header = fh.read(17)
        if len(header) != 17:
            raise GraphFormatError(f"{path}: truncated header")
        n, m, weighted = struct.unpack("<qq?", header)
        if n < 0 or m < 0:
            raise GraphFormatError(f"{path}: corrupt header")
        raw = fh.read(12 * m)
        if len(raw) != 12 * m:
            raise GraphFormatError(f"{path}: truncated records")
        rec = np.frombuffer(
            raw, dtype=[("src", "<i4"), ("dst", "<i4"), ("val", "<f4")])
    src = rec["src"].astype(np.int64) - 1
    dst = rec["dst"].astype(np.int64) - 1
    weights = rec["val"].astype(np.float64) if weighted else None
    return EdgeList(src, dst, n, weights=weights, directed=directed,
                    name=name)


# ----------------------------------------------------------------------
# PowerGraph TSV (its snap/tsv loader).
# ----------------------------------------------------------------------
def write_powergraph_tsv(edges: EdgeList, path: str | Path,
                         rows: WeightedRows | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        _write_edge_rows(fh, edges, "\t", rows)
    return path


def read_powergraph_tsv(path: str | Path, n_vertices: int | None = None,
                        directed: bool = True,
                        name: str = "graph") -> EdgeList:
    return read_el(path, n_vertices=n_vertices, directed=directed, name=name)
