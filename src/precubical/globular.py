"""The small globular cell ledger of a precubical set.

The realized flow of K carries a globular decomposition with exactly one
cell per cube of dimension n + 1 >= 1: a globe of dimension n attached
between the cube's all-zeros and all-ones corner vertices.  Those cells
are the flow's atoms (`FlowAtom`, from `realize_flow`), grouped here by
skeletal stage, stage n holding the cells of the n-cubes, so the boundary
data of a stage only involves earlier stages.

Attaching maps are deliberately absent from the ledger: they are not
canonical, while the cube, the globe dimension and the two endpoint
vertices are invariant under every admissible choice.  Only those four
fields are exported.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .core import PrecubicalSet
from .flow import FlowAtom, realize_flow


@dataclass(frozen=True)
class GlobularDecomposition:
    """Vertex set plus globular cells grouped by skeletal stage.

    stages maps the cube dimension n >= 1 to the cells of the n-cubes;
    there is exactly one cell per positive-dimensional cube of K.
    """

    vertices: tuple[str, ...]
    stages: dict

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
    """One globular cell per positive-dimensional cube, endpoints its corners."""
    flow = realize_flow(K)
    # atoms come in (dimension, label) order, so each stage is one run
    stages = {
        dim: tuple(atoms)
        for dim, atoms in groupby(flow.atoms, key=lambda atom: atom.cube.dim)
    }
    return GlobularDecomposition(flow.states, stages)


def decomposition_report(K: PrecubicalSet) -> dict:
    """Census of the decomposition: vertex count, per-stage cell counts,
    total cell count and the maximum globe dimension (-1 when there are
    no cells, matching the empty-complex dimension convention)."""
    decomposition = globular_decomposition(K)
    stages = {dim: len(cells) for dim, cells in decomposition.stages.items()}
    return {
        "vertices": len(decomposition.vertices),
        "stages": stages,
        "cells_total": sum(stages.values()),
        "max_globe_dim": max(stages, default=0) - 1,
    }
