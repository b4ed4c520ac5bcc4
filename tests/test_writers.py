"""Every text writer gives the same bytes as its per-node reference in
util.py, on a non-square grid and on values that stress %.17g."""

from types import SimpleNamespace

import numpy as np
import pytest

import util
from psforge import sinegordon
from psforge.cli import _write_geometry_csv
from psforge.frames import ExtendedFrame, save_frame
from psforge.potentials import (PotentialForm, save_potential2_csv,
                                save_potential_csv)
from psforge.sinegordon import AngleField, GridSpec, save_angle_csv
from psforge.surfaces import Immersion, export_mesh

SPECIAL = np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324,
                    2.2250738585072014e-308, 1e22, -1.7976931348623157e308,
                    0.1, -1.0 / 3.0, 2.0 ** 53 + 2.0])
GEOMETRY = ("E", "F", "G", "L", "M", "N2", "K")


def _values(shape, rng):
    """Normals, half of them scaled over 600 decades, with every special
    value at three random entries."""
    scale = np.where(rng.random(shape) < 0.5, 1.0,
                     10.0 ** rng.uniform(-300.0, 300.0, shape))
    v = rng.standard_normal(shape) * scale
    flat = v.reshape(-1)
    flat[rng.choice(flat.size, 3 * SPECIAL.size, replace=False)] = \
        np.tile(SPECIAL, 3)
    return v


def _write_both(case, rng, new, ref):
    grid = GridSpec(-0.0, -1e22, 61, 47, 5e-324, 0.1)   # nx != ny
    nx, ny = grid.nx, grid.ny
    if case == "geometry_csv":
        mask = rng.random((nx, ny)) < 0.8
        geom = SimpleNamespace(grid=grid, **{
            c: _values((nx, ny), rng) for c in GEOMETRY})
        geom.K = np.where(mask, geom.K, np.nan)       # masked K
        _write_geometry_csv(geom, new)
        util.ref_write_geometry_csv(geom, ref)
    elif case == "obj_mesh":
        imm = Immersion(grid, 1.0, _values((nx, ny, 3), rng))
        mask = rng.random((nx, ny)) < 0.9             # drops some faces
        export_mesh(imm, new, mask=mask)
        util.ref_export_mesh(imm, ref, mask=mask)
        faces = new.read_text().count("\nf ")
        assert 0 < faces < 2 * (nx - 1) * (ny - 1)
    elif case == "angle_csv":
        f = AngleField(grid, _values((nx, ny), rng), _values((nx, ny), rng))
        save_angle_csv(f, new, new.with_suffix(".x.csv"))
        util.ref_save_angle_csv(f, ref, ref.with_suffix(".x.csv"))
        assert (new.with_suffix(".x.csv").read_bytes()
                == ref.with_suffix(".x.csv").read_bytes())
    elif case == "frame_csv":
        frame = ExtendedFrame(grid, 1e-300, _values((nx, ny, 3, 3), rng))
        save_frame(frame, new)
        util.ref_save_frame(frame, ref)
    elif case == "potential_csv":
        pot = PotentialForm("x", _values(nx, rng), _values((nx, 3, 3), rng), +1)
        save_potential_csv(pot, new)
        util.ref_save_potential_csv(pot, ref)
    else:
        samples = _values((ny, 2, 2), rng).astype(complex)
        samples.imag = _values((ny, 2, 2), rng)
        pot = PotentialForm("y", _values(ny, rng), samples, -1)
        save_potential2_csv(pot, new)
        util.ref_save_potential2_csv(pot, ref)


@pytest.mark.parametrize("block", ["whole", "small"])
@pytest.mark.parametrize("case", ["geometry_csv", "obj_mesh", "angle_csv",
                                  "frame_csv", "potential_csv",
                                  "potential2_csv"])
def test_writer_bytes_equal_per_node_reference(tmp_path, monkeypatch, case,
                                               block):
    if block == "small":
        # many blocks with a partial last one
        monkeypatch.setattr(sinegordon, "_BLOCK_VALUES", 100)
    rng = np.random.default_rng(sum(map(ord, case)))
    new, ref = tmp_path / "new.txt", tmp_path / "ref.txt"
    _write_both(case, rng, new, ref)
    data = new.read_bytes()
    assert data == ref.read_bytes()
    assert b"nan" in data and b"-inf" in data and b"-0" in data
