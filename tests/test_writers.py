"""Every text writer gives the same bytes as its per-node reference in
util.py, on a non-square grid and on values that stress %.17g; the table
writer matches '%.17g' % v and '%d' % v on the edges of its numpy path;
potential CSVs and OBJ meshes re-save to the bytes they were read from."""

import io
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import util
from psforge import sinegordon
from psforge.cli import _write_geometry_csv
from psforge.potentials import (PotentialForm, load_potential_csv,
                                save_potential2_csv, save_potential_csv)
from psforge.sinegordon import AngleField, GridSpec, save_angle_csv
from psforge.surfaces import export_mesh, read_obj

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
        surf = SimpleNamespace(grid=grid, points=_values((nx, ny, 3), rng))
        mask = rng.random((nx, ny)) < 0.9             # drops some faces
        export_mesh(surf.points, new, mask=mask)
        util.ref_export_mesh(surf, ref, mask=mask)
        faces = new.read_text().count("\nf ")
        assert 0 < faces < 2 * (nx - 1) * (ny - 1)
    elif case == "angle_csv":
        f = AngleField(grid, _values((nx, ny), rng), _values((nx, ny), rng))
        save_angle_csv(f, new, new.with_suffix(".x.csv"))
        util.ref_save_angle_csv(f, ref, ref.with_suffix(".x.csv"))
        assert (new.with_suffix(".x.csv").read_bytes()
                == ref.with_suffix(".x.csv").read_bytes())
    elif case == "potential_csv":
        pot = PotentialForm("x", _values(nx, rng), _values((nx, 3, 3), rng))
        save_potential_csv(pot, new)
        util.ref_save_potential_csv(pot, ref)
    else:
        samples = _values((ny, 2, 2), rng).astype(complex)
        samples.imag = _values((ny, 2, 2), rng)
        pot = PotentialForm("y", _values(ny, rng), samples)
        save_potential2_csv(pot, new)
        util.ref_save_potential2_csv(pot, ref)


@pytest.mark.parametrize("block", ["whole", "small"])
@pytest.mark.parametrize("case", ["geometry_csv", "obj_mesh", "angle_csv",
                                  "potential_csv", "potential2_csv"])
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


def _ref_rows(rows, head="", sep=",", ints=0):
    """The table writer's contract, formatted one value at a time."""
    return "".join(
        head + sep.join(["%d" % v for v in r[:ints]]
                        + ["%.17g" % v for v in r[ints:]]) + "\n"
        for r in np.asarray(rows).tolist())


def _ties(rng):
    """Odd m / 2**k whose exact decimal expansion has 18 significant
    digits, the last a 5: %.17g rounds each of them half to even."""
    out = [2251799813685247.75, 2251799813685246.25]
    for k in range(2, 26):
        bits = min(53, int((17.5 - k * np.log10(5.0)) / np.log10(2.0)))
        x = (rng.integers(2 ** (bits - 1), 2 ** bits, 16) | 1) / 2.0 ** k
        out += [v for v in x.tolist()
                if len(Decimal(v).as_tuple().digits) == 18]
    return np.array(out)


def _numpy_path_edges(rng):
    """Powers of ten for e in [-12, 17] and the ends 1e-11 and 1e16 of the
    numpy %.17g range, each with its neighbours 1 ulp away, and ties."""
    p = np.concatenate([10.0 ** np.arange(-12, 18), [1e-11, 1e16]])
    near = np.concatenate([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)])
    ties = _ties(rng)
    assert len(ties) > 100
    return np.concatenate([near, -near, ties, -ties])


@pytest.mark.parametrize("block", ["whole", "small"])
def test_table_writer_numpy_path_edges(monkeypatch, block):
    if block == "small":
        monkeypatch.setattr(sinegordon, "_BLOCK_VALUES", 100)
    rng = np.random.default_rng(16)
    edges = _numpy_path_edges(rng)
    n = len(edges)
    floats = np.column_stack([edges, rng.permutation(edges), np.zeros(n),
                              np.full(n, -0.0)])
    # int columns: 0, negatives, and non-integral floats, which %d truncates
    ints = np.column_stack([np.arange(n) - n // 2, rng.uniform(-9.9, 9.9, n)])
    for rows, kw in ((floats, {}), (floats, {"head": "v ", "sep": " "}),
                     (np.column_stack([ints, floats]), {"ints": 2}),
                     (ints.astype(int), {"head": "f ", "sep": " ", "ints": 2})):
        fh = io.StringIO()
        sinegordon._write_rows(fh, rows, **kw)
        assert fh.getvalue() == _ref_rows(rows, **kw)


def test_table_writer_nan_in_int_column():
    # '%d' % nan raises, and so does the writer
    with pytest.raises(ValueError, match="cannot convert float NaN"):
        sinegordon._write_rows(io.StringIO(), [[1.0, np.nan, 0.5]], ints=2)


_SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                            -2.2250738585072014e-308, 1e-11, 1e16])
_VALUE = st.one_of(_SPECIAL, st.floats(width=64))
# a potential CSV holds finite values only (the loader rejects nan and inf)
_FINITE = st.one_of(_SPECIAL.filter(np.isfinite),
                    st.floats(width=64, allow_nan=False, allow_infinity=False))


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(_FINITE, min_size=7, max_size=7), min_size=1,
                     max_size=12), axis=st.sampled_from(["x", "y"]))
def test_potential_csv_save_load_save_byte_identical(tmp_path, rows, axis):
    rows = np.array(rows)
    samples = np.zeros((len(rows), 3, 3))
    samples[:, [0, 0, 1, 1, 2, 2], [1, 2, 2, 0, 0, 1]] = rows[:, 1:]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_potential_csv(PotentialForm(axis, rows[:, 0], samples), a)
    save_potential_csv(load_potential_csv(a), b)
    assert a.read_bytes() == b.read_bytes()


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(nx=st.integers(2, 4), ny=st.integers(2, 4), data=st.data())
def test_obj_mesh_export_read_export_byte_identical(tmp_path, nx, ny, data):
    points = np.array(data.draw(st.lists(_VALUE, min_size=3 * nx * ny,
                                         max_size=3 * nx * ny)))
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    export_mesh(points.reshape(nx, ny, 3), a)
    verts, faces = read_obj(a)
    assert len(faces) == 2 * (nx - 1) * (ny - 1)
    export_mesh(verts.reshape(nx, ny, 3), b)
    assert a.read_bytes() == b.read_bytes()
