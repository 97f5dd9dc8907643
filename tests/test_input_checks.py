"""The argument checks of the public entry points: each bad input raises
its own exception type with its own message."""

import math

import numpy as np
import pytest

from polyds.assembly import AssemblyError, assemble_primal, manufactured_solution
from polyds.functions import PowerTable
from polyds.geometry import AffineScalar, GeometryError, Polygon, polygon_stack
from polyds.mesh import (
    MeshError,
    gen_hex_dominant_mesh,
    gen_perturbed_quad_mesh,
    gen_square_mesh,
    import_mesh,
)
from polyds.quadrature import edge_rule
from polyds.serendipity import ElementError, build_ds_element

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def import_without_cells(tmp):
    path = tmp / "no-cells.json"
    path.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]]}')
    return import_mesh(path)


# name: (call on a scratch directory, exception type, message, where
# "{tmp}" stands for that directory)
CASES = {
    "polygon-shape": (lambda tmp: Polygon(np.zeros((4, 3))),
                      GeometryError, "vertices must have shape (N, 2)"),
    "polygon-stack-shape": (lambda tmp: polygon_stack(np.zeros((4, 2))),
                            GeometryError, "vertices must have shape (C, N, 2)"),
    "non-finite-vertices": (lambda tmp: Polygon([(0, 0), (1, 0), (1, math.nan), (0, 1)]),
                            GeometryError, "vertices must be finite"),
    "affine-gradient": (lambda tmp: AffineScalar((1, math.inf), 0),
                        GeometryError, "affine gradient must be a finite 2-vector"),
    "affine-offset": (lambda tmp: AffineScalar((1, 0), math.nan),
                      GeometryError, "affine offset must be finite"),
    "points-shape": (lambda tmp: AffineScalar((1, 0), 0).value_grad(np.zeros((4, 3))),
                     GeometryError, "expected points of shape (M, 2), got (4, 3)"),
    "edge-index": (lambda tmp: edge_rule(Polygon(SQUARE), 4, 2),
                   GeometryError, "edge index 4 out of range"),
    "powers-1d": (lambda tmp: PowerTable([1, 2, 0]),
                  ValueError, "powers must have shape (G, K), got (3,)"),
    "ds-index-0": (lambda tmp: build_ds_element(Polygon(SQUARE), 0),
                   ElementError, "polynomial index must be >= 1, got 0"),
    "primal-r0": (lambda tmp: assemble_primal(gen_square_mesh(2), 0, manufactured_solution().f),
                  AssemblyError, "primal form needs r >= 1"),
    "exact-kind": (lambda tmp: manufactured_solution("x"),
                   ValueError, "unknown exact solution 'x'"),
    "pquad-n1": (lambda tmp: gen_perturbed_quad_mesh(1, 0.2), ValueError, "n must be >= 2"),
    "pquad-noise": (lambda tmp: gen_perturbed_quad_mesh(4, 0.5),
                    ValueError, "noise must be in [0, 0.5)"),
    "hex-n1": (lambda tmp: gen_hex_dominant_mesh(1), ValueError, "n must be >= 2"),
    "mesh-file-without-cells": (import_without_cells,
                                MeshError, "bad mesh file {tmp}/no-cells.json: 'cells'"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises_its_error(case, tmp_path):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert info.type is error and str(info.value) == message.format(tmp=tmp_path)
