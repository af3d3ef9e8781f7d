"""The globular cell ledger: one cell per positive-dimensional cube."""

from precubical import (
    PcsMap,
    boundary_cube,
    globular_decomposition,
    standard_cube,
    tensor,
)

from conftest import corner_routes


class TestGlobularDecomposition:
    def test_point_has_no_cells(self):
        decomposition = globular_decomposition(standard_cube(0))
        assert decomposition.vertices == ("",)
        assert decomposition.cells() == ()

    def test_square(self):
        decomposition = globular_decomposition(standard_cube(2))
        by_globe_dim = {}
        for cell in decomposition.cells():
            by_globe_dim.setdefault(cell.globe_dim, []).append(cell)
        assert len(by_globe_dim[0]) == 4
        assert len(by_globe_dim[1]) == 1
        top = by_globe_dim[1][0]
        assert (top.source, top.target) == ("00", "11")

    def test_boundary_cube3_census(self):
        decomposition = globular_decomposition(boundary_cube(3))
        cells = decomposition.cells()
        assert len(cells) == 18
        assert max(c.globe_dim for c in cells) == 1

    def test_one_cell_per_positive_cube(self, corpus_complex):
        _, K = corpus_complex
        decomposition = globular_decomposition(K)
        expected = sum(K.n_cells(d) for d in range(1, K.top_dim + 1))
        assert len(decomposition.cells()) == expected
        for dim, cells in decomposition.stages.items():
            assert len(cells) == K.n_cells(dim)
            assert all(c.globe_dim == dim - 1 for c in cells)

    def test_endpoints_match_permuted_corner_oracle(self, corpus_complex):
        _, K = corpus_complex
        for cell in globular_decomposition(K).cells():
            assert corner_routes(K, cell.cube, 0) == {cell.source}
            assert corner_routes(K, cell.cube, 1) == {cell.target}

    def test_stages_use_only_lower_boundary_data(self, corpus_complex):
        # endpoints of a stage-n cell are vertices, i.e. stage-0 data
        _, K = corpus_complex
        vertices = set(K.cells(0))
        for cell in globular_decomposition(K).cells():
            assert cell.source in vertices and cell.target in vertices

    def test_functorial_along_inclusion(self):
        K, L = boundary_cube(3), standard_cube(3)
        f = PcsMap.inclusion(K, L)
        ledger_K = {c.cube: c for c in globular_decomposition(K).cells()}
        ledger_L = {c.cube: c for c in globular_decomposition(L).cells()}
        for cube, cell in ledger_K.items():
            image = ledger_L[f(cube)]
            assert image.source == f.mapping[(0, cell.source)]
            assert image.target == f.mapping[(0, cell.target)]
            assert image.globe_dim == cell.globe_dim


class TestDecompositionReport:
    """The census of the stages, read straight off the decomposition."""

    @staticmethod
    def stage_sizes(decomposition):
        return {dim: len(cells) for dim, cells in decomposition.stages.items()}

    def test_cube3(self):
        decomposition = globular_decomposition(standard_cube(3))
        assert len(decomposition.vertices) == 8
        assert self.stage_sizes(decomposition) == {1: 12, 2: 6, 3: 1}
        assert len(decomposition.cells()) == 19
        assert max(cell.globe_dim for cell in decomposition.cells()) == 2

    def test_empty(self):
        decomposition = globular_decomposition(boundary_cube(0))
        assert decomposition.vertices == ()
        assert decomposition.stages == {}
        assert decomposition.cells() == ()

    def test_tensor_square_reports_like_the_square(self):
        T = globular_decomposition(tensor(standard_cube(1), standard_cube(1)))
        S = globular_decomposition(standard_cube(2))
        assert len(T.vertices) == len(S.vertices)
        assert self.stage_sizes(T) == self.stage_sizes(S)
