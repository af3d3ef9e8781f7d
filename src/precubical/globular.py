"""The realized flow of a precubical set, as its small globular cell ledger.

The realized flow of K has the vertices K_0 as its states and one atom per
cube of dimension n + 1 >= 1: the cube's diagonal, which is also a globe
of dimension n attached between the cube's all-zeros and all-ones corner
vertices.  globular_decomposition is that flow, its cells grouped by
skeletal stage, stage n holding the cells of the n-cubes, so the boundary
data of a stage only involves earlier stages.

Attaching maps are deliberately absent from the ledger: they are not
canonical, while the cube, the globe dimension and the two endpoint
vertices are invariant under every admissible choice.  Only those four
fields are exported.
"""

from __future__ import annotations

from .core import CellId, PrecubicalSet, _Value, _face_rows, _require_valid, _set


class FlowAtom(_Value):
    """The generating morphism diag(c) of one positive-dimensional cube c.

    It runs from the cube's all-zeros corner to its all-ones corner, and in
    the globular decomposition it is the globe of dimension dim(c) - 1
    attached between those two vertices.
    """

    __slots__ = _fields = ("cube", "source", "target")

    def __init__(self, cube: CellId, source: str, target: str):
        _set(self, "cube", cube)
        _set(self, "source", source)
        _set(self, "target", target)

    @property
    def globe_dim(self) -> int:
        return self.cube.dim - 1

    def as_dict(self) -> dict:
        return {
            "cube": self.cube.label,
            "dim": self.cube.dim,
            "globe_dim": self.globe_dim,
            "source": self.source,
            "target": self.target,
        }


class GlobularDecomposition(_Value):
    """The realized flow: its states plus its atoms grouped by skeletal stage.

    stages maps each cube dimension n >= 1 that has cells to the atoms of
    the n-cubes; there is exactly one atom per positive-dimensional cube of K.
    It is not hashable, since stages is a dict.
    """

    __slots__ = _fields = ("vertices", "stages")

    def __init__(self, vertices: tuple[str, ...], stages: dict):
        _set(self, "vertices", vertices)
        _set(self, "stages", stages)

    def cells(self) -> tuple[FlowAtom, ...]:
        """All cells flattened in skeletal order."""
        out = []
        for dim in sorted(self.stages):
            out.extend(self.stages[dim])
        return tuple(out)

    def as_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "cells": [cell.as_dict() for cell in self.cells()],
        }


def globular_decomposition(K: PrecubicalSet) -> GlobularDecomposition:
    """The realized flow of K: one atom per positive-dimensional cube,
    running between its corners, one stage per dimension that has cells.

    The corners are those of flow.corner, found one dimension at a time:
    a cube's all-alpha corner is that of its face d[1, alpha].
    """
    _require_valid(K)
    stages: dict[int, tuple[FlowAtom, ...]] = {}
    low = high = {v: v for v in K.cells(0)}
    for dim in range(1, K.top_dim + 1):
        rows = _face_rows(K, dim)
        low, high = ({label: low[row[0]] for label, row in rows.items()},
                     {label: high[row[1]] for label, row in rows.items()})
        if rows:
            stages[dim] = tuple(FlowAtom(CellId(dim, label), low[label], high[label])
                                for label in K.cells(dim))
    return GlobularDecomposition(K.cells(0), stages)
