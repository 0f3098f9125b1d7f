"""Tests for phase 2 (dataset homogenization) and root selection."""

import hashlib
import json

import numpy as np
import pytest

from repro.datasets import formats
from repro.datasets.homogenize import (
    HomogenizedDataset,
    homogenize,
    load_manifest,
    select_roots,
)
from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.errors import DatasetError
from repro.graph.edgelist import EdgeList


class TestRootSelection:
    def test_32_roots_default(self, kron10):
        roots = select_roots(kron10)
        assert roots.size == 32

    def test_roots_have_degree_greater_than_one(self, kron10):
        """The Graph500 rule the paper adopts (Sec. III-B)."""
        deg = kron10.degrees()
        roots = select_roots(kron10)
        assert np.all(deg[roots] > 1)

    def test_deterministic(self, kron10):
        assert np.array_equal(select_roots(kron10, seed=9),
                              select_roots(kron10, seed=9))

    def test_no_replacement_when_possible(self, kron10):
        roots = select_roots(kron10)
        assert np.unique(roots).size == roots.size

    def test_replacement_fallback_tiny_graph(self):
        el = EdgeList(np.array([0, 1]), np.array([1, 0]), 2,
                      directed=False)
        roots = select_roots(el, n_roots=8)
        assert roots.size == 8

    def test_error_when_no_eligible_vertex(self):
        el = EdgeList(np.array([0]), np.array([1]), 3, directed=True)
        with pytest.raises(DatasetError):
            select_roots(el)


class TestHomogenize:
    def test_all_formats_written(self, kron10_dataset):
        for key in ("el", "wel", "sg", "wsg", "g500", "mtxbin", "tsv",
                    "graphbig", "roots"):
            assert kron10_dataset.path(key).exists(), key

    def test_manifest_roundtrip(self, kron10_dataset):
        back = load_manifest(kron10_dataset.directory)
        assert back.name == kron10_dataset.name
        assert back.n_vertices == kron10_dataset.n_vertices
        assert np.array_equal(back.roots, kron10_dataset.roots)
        assert back.files == kron10_dataset.files

    def test_manifest_is_json(self, kron10_dataset):
        m = json.loads(
            (kron10_dataset.directory / "manifest.json").read_text())
        assert m["n_vertices"] == kron10_dataset.n_vertices

    def test_unknown_key_raises(self, kron10_dataset):
        with pytest.raises(DatasetError):
            kron10_dataset.path("nope")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            load_manifest(tmp_path)

    def test_unweighted_input_gets_generated_weights(self, patents_small,
                                                     tmp_path):
        """SSSP on unweighted datasets uses generated uniform weights
        (the Graph500 convention) -- unlike Graphalytics' N/A."""
        h = homogenize(patents_small, tmp_path)
        wel = formats.read_el(h.path("wel"), n_vertices=h.n_vertices)
        assert wel.weighted
        assert np.all((wel.weights >= 0) & (wel.weights < 1))

    def test_weighted_input_weights_preserved(self, dota_small, tmp_path):
        h = homogenize(dota_small, tmp_path)
        wel = formats.read_el(h.path("wel"), n_vertices=h.n_vertices)
        assert np.array_equal(np.sort(wel.weights),
                              np.sort(dota_small.weights))

    def test_load_edges(self, kron10_dataset, kron10):
        el = kron10_dataset.load_edges()
        assert el.n_edges == kron10.n_edges

    def test_all_systems_see_identical_edges(self, kron10_dataset):
        """The point of homogenization: every format holds the same
        (weighted) edge multiset."""
        wel = formats.read_el(kron10_dataset.path("wel"),
                              n_vertices=kron10_dataset.n_vertices)
        gm = formats.read_graphmat_bin(kron10_dataset.path("mtxbin"))
        g5 = formats.read_g500(kron10_dataset.path("g500"))
        gb = formats.read_graphbig_csv(kron10_dataset.path("graphbig"))
        tsv = formats.read_el(kron10_dataset.path("tsv"),
                              n_vertices=kron10_dataset.n_vertices)
        base = sorted(zip(wel.src.tolist(), wel.dst.tolist()))
        for other in (gm, g5, gb, tsv):
            assert sorted(zip(other.src.tolist(),
                              other.dst.tolist())) == base

    def test_dataclass_type(self, kron10_dataset):
        assert isinstance(kron10_dataset, HomogenizedDataset)


#: sha256 of every file :func:`homogenize` writes for the Kronecker
#: scale-8 graph, as ``np.savetxt`` wrote the text formats.  The bytes
#: of the homogenized tree are part of the output contract: any writer
#: change must leave them alone.
GOLDEN_SHA256 = {
    False: {
        "graphbig/edge.csv": "f7c41b148e71e52e4142816601eab2e77b5e5677ee416f498b94ddc1c8b0878e",
        "graphbig/vertex.csv": "21fc72c684cc4fc6bbf9a699d94c47efedd1d3b4505af53d29d1a27f8d49c40c",
        "kron-scale8.el": "b6d61e2934b7b37fa40498043f3c2538099a4a3c52410496aff920b8fd3ed649",
        "kron-scale8.g500": "10f66073e7a6769564c09688d1cbf3d70013427a78058fb020b15bf1ea7a588c",
        "kron-scale8.mtxbin": "3c0c355b8f62e6cd6da9bc64e8c96928d14a3d0d92ace30f63c231a36711f4d6",
        "kron-scale8.sg": "c56b2bd4b5bbe6313aa2bab850e0edc4caf4b72de030897fa7549f54e27f110e",
        "kron-scale8.tsv": "b56a434d128a748cd14aae18813b5f38449ffd4a224c8ab79c356e60da9a6eb9",
        "kron-scale8.wel": "68347ed95daa676940d387b890073b6e032d2a5aaca01fdd7a1bdf10a5097179",
        "kron-scale8.wsg": "b02b423646ac49b96aec7225e53d680ea5f9496b6cd23ce8959af7469430820a",
        "manifest.json": "83fadbc380d090e0a3add0f105b443f8b93e33adca8433185593a0bfc52ab900",
        "roots.txt": "898970a1d6a525010fc806778ecdcd1ba9b1488c9089aee9550a1ff7315e5ae1",
    },
    True: {
        "graphbig/edge.csv": "27016225bfe96b9af35be85a6c0a4ee184bbd174537c93579ff07363dffdf517",
        "graphbig/vertex.csv": "21fc72c684cc4fc6bbf9a699d94c47efedd1d3b4505af53d29d1a27f8d49c40c",
        "kron-scale8.el": "b6d61e2934b7b37fa40498043f3c2538099a4a3c52410496aff920b8fd3ed649",
        "kron-scale8.g500": "ed4ea18308ee08780d940d7b450d20bf2937f4a7f3024acf996e94682d771bba",
        "kron-scale8.mtxbin": "e4395305aaeb3cf42a96deff7b27cec836859a8ce4a00a435b2a74a779c25f8f",
        "kron-scale8.sg": "0ba099937efc0cbd9d4426f4ad92142aea71b9a2cfdeef6b5da276b5be956355",
        "kron-scale8.tsv": "b26e89da3281e4fc4d5464dfb78e9ec423ee0de70a27556a534b8c4a72bd0239",
        "kron-scale8.wel": "73a0a9e4d3158fbd629cc766a058b3925594c62b0a2e4657b2a3993cf0b8f01d",
        "kron-scale8.wsg": "0ba099937efc0cbd9d4426f4ad92142aea71b9a2cfdeef6b5da276b5be956355",
        "manifest.json": "7379e16bace9038dba2623d9c827f2d2850418a5de4d64dd8b9c42c50b56ed8f",
        "roots.txt": "898970a1d6a525010fc806778ecdcd1ba9b1488c9089aee9550a1ff7315e5ae1",
    },
}


@pytest.mark.parametrize("weighted", [False, True])
def test_homogenized_bytes_are_pinned(weighted, tmp_path):
    el = generate_kronecker(KroneckerSpec(scale=8, weighted=weighted))
    h = homogenize(el, tmp_path)
    digests = {
        p.relative_to(h.directory).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(h.directory.rglob("*")) if p.is_file()}
    assert digests == GOLDEN_SHA256[weighted]
