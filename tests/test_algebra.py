"""Structure-constant algebra layer: construction, verification, loading."""

import json

import numpy as np
import pytest

from carnot import catalog
from carnot.algebra import (
    GradedAlgebra,
    algebra_from_dict,
    descending_central_sequence,
    load_algebra,
    nilpotency_degree,
    verify_graded,
)
from carnot.errors import InputError, NotNilpotentError
from carnot.group import BchTable


def test_heisenberg_bracket():
    h = catalog.heisenberg()
    x, y, z = (h.from_label(s) for s in "XYZ")
    assert np.allclose(h.bracket(x, y), z)
    assert np.allclose(h.bracket(y, x), -z)
    assert np.allclose(h.bracket(x, z), 0)
    assert np.allclose(h.bracket(z, z), 0)


def test_bracket_bilinear_batched(rng):
    h = catalog.engel()
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    lhs = h.bracket(2.0 * a + b, b)
    rhs = 2.0 * h.bracket(a, b) + h.bracket(b, b)
    assert np.allclose(lhs, rhs)
    # the coadjoint row action is the bracket's transpose:
    # (v ad(a)) . b = v . [a, b]
    v = rng.standard_normal((5, 4))
    kernel = h.kernel
    lhs = np.sum(kernel.coadjoint(kernel.factor(a), v) * b, axis=-1)
    rhs = np.sum(v * h.bracket(a, b), axis=-1)
    assert np.allclose(lhs, rhs)


def _filiform_chain(n):
    # [X0, Xi] = X(i+1) for 1 <= i < n - 1: nilpotency degree n - 1
    c = np.zeros((n, n, n))
    for i in range(1, n - 1):
        c[0, i, i + 1] = 1.0
        c[i, 0, i + 1] = -1.0
    return GradedAlgebra(f"filiform{n}", [2] + [1] * (n - 2), c)


def _scaled_engel():
    # structure constants other than +-1 (scaling keeps Jacobi)
    e = catalog.engel()
    return GradedAlgebra("engel-scaled", e.layer_dims, 1.7 * e.structure)


@pytest.mark.parametrize("maker", [
    catalog.heisenberg, catalog.engel, lambda: catalog.abelian(3),
    lambda: catalog.free_step2(3), lambda: catalog.free_step2(4),
    lambda: _filiform_chain(5), lambda: _filiform_chain(6),
    lambda: _filiform_chain(7), _scaled_engel,
], ids=["heisenberg", "engel", "abelian3", "free2-3", "free2-4",
        "filiform5", "filiform6", "filiform7", "engel-scaled"])
def test_bracket_kernel_matches_dense_structure(maker, rng):
    # the sparse kernel against the dense definitions
    # [x, w]_l = sum_ij x_i w_j c_ijl and (v ad(x))_j = sum_il v_l x_i c_ijl
    a = maker()
    c, n, kernel = a.structure, a.dim, a.kernel

    def close(got, want):
        scale = max(np.max(np.abs(want)), 1.0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * scale

    for shape in [(), (7,), (3, 5)]:
        x, w, v = rng.standard_normal((3,) + shape + (n,))
        xs = kernel.factor(x)
        close(kernel.bracket(xs, w), np.einsum("...i,...j,ijl->...l", x, w, c))
        close(a.bracket(x, w), np.einsum("...i,...j,ijl->...l", x, w, c))
        close(kernel.coadjoint(xs, v),
              np.einsum("...l,...i,ijl->...j", v, x, c))
    # broadcasting: one x against a stack of rows, rows of an identity
    x = rng.standard_normal(n)
    w = rng.standard_normal((4, 6, n))
    close(kernel.bracket(kernel.factor(x), w),
          np.einsum("i,...j,ijl->...l", x, w, c))
    x = rng.standard_normal((4, n))
    close(kernel.coadjoint(kernel.factor(x)[:, None, :], np.eye(n)),
          np.einsum("ml,bi,ijl->bmj", np.eye(n), x, c))
    # the layer-1 x layer-1 -> layer-2 block of the path prefix sums
    if a.num_layers > 1:
        d1, sl = a.layer_dims[0], a.layer_slice(2)
        block = BchTable(a).layer2
        u, s = rng.standard_normal((2, 6, 11, d1))
        close(block.bracket(block.factor(u), s),
              np.einsum("...i,...j,ijl->...l", u, s, c[:d1, :d1, sl]))


def test_layer_slicing():
    e = catalog.engel()
    assert e.layer_slice(1) == slice(0, 2)
    assert e.layer_slice(3) == slice(3, 4)
    with pytest.raises(InputError):
        e.layer_slice(4)


def test_vector_validation():
    h = catalog.heisenberg()
    with pytest.raises(InputError):
        h.vector([1.0, 2.0])
    with pytest.raises(InputError):
        h.from_label("W")


def test_verify_graded_builtin():
    for a in (catalog.heisenberg(), catalog.engel(), catalog.abelian(3),
              catalog.free_step2(3)):
        report = verify_graded(a)
        assert report.valid, report.as_dict()


def test_verify_detects_antisymmetry_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the [1,0] counterpart
    report = verify_graded(GradedAlgebra("bad", [2, 1], c))
    assert not report.valid
    assert any(name == "antisymmetry" for name, _ in report.violations)


def test_verify_detects_jacobi_violation():
    # layers [3, 1, 1]: [e1, e2] = e4 and [e3, e4] = e5 respect the
    # grading but the (e1, e2, e3) Jacobi cycle sums to e5, not zero
    c = np.zeros((5, 5, 5))
    c[0, 1, 3] = 1.0
    c[1, 0, 3] = -1.0
    c[2, 3, 4] = 1.0
    c[3, 2, 4] = -1.0
    report = verify_graded(GradedAlgebra("bad", [3, 1, 1], c))
    assert not report.valid
    assert any(name == "jacobi" for name, _ in report.violations)


def test_verify_detects_grading_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 0] = 1.0  # bracket of layer-1 vectors landing in layer 1
    c[1, 0, 0] = -1.0
    report = verify_graded(GradedAlgebra("bad", [2, 1], c))
    assert not report.valid
    assert any(name == "grading closure" for name, _ in report.violations)


def test_non_nilpotent_flagged():
    # sl(2): h, e, f with [h,e]=2e, [h,f]=-2f, [e,f]=h
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    c[0, 2, 2] = -2.0
    c[2, 0, 2] = 2.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    a = GradedAlgebra("sl2", [3], c)
    with pytest.raises(NotNilpotentError):
        descending_central_sequence(a)
    report = verify_graded(a)
    assert any(name == "nilpotency" for name, _ in report.violations)


def test_central_sequence_dimensions():
    chain = descending_central_sequence(catalog.heisenberg())
    assert [c.shape[0] for c in chain] == [3, 1, 0]
    chain = descending_central_sequence(catalog.engel())
    assert [c.shape[0] for c in chain] == [4, 2, 1, 0]
    chain = descending_central_sequence(catalog.abelian(5))
    assert [c.shape[0] for c in chain] == [5, 0]


def test_nilpotency_degree():
    assert nilpotency_degree(catalog.heisenberg()) == 2
    assert nilpotency_degree(catalog.engel()) == 3
    assert nilpotency_degree(catalog.abelian(2)) == 1
    assert nilpotency_degree(catalog.free_step2(4)) == 2


def test_catalog_get():
    assert catalog.get("heisenberg").name == "heisenberg"
    assert catalog.get("abelian4").dim == 4
    assert catalog.get("free2-3").dim == 6
    with pytest.raises(InputError):
        catalog.get("borel")


HEIS_DOC = {
    "version": 1,
    "name": "heisenberg-file",
    "layer_dims": [2, 1],
    "labels": ["X", "Y", "Z"],
    "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1.0}}],
}


def test_load_algebra_roundtrip(tmp_path):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(HEIS_DOC))
    a = load_algebra(path)
    assert a.name == "heisenberg-file"
    assert np.allclose(a.structure, catalog.heisenberg().structure)


def test_load_algebra_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(InputError):
        load_algebra(bad)

    with pytest.raises(InputError):
        algebra_from_dict({"version": 2})
    with pytest.raises(InputError):
        algebra_from_dict({"version": 1, "name": "x", "layer_dims": [1]})
    doc = dict(HEIS_DOC, brackets=[{"i": 0, "j": 9, "coeffs": {"2": 1.0}}])
    with pytest.raises(InputError):
        algebra_from_dict(doc)
    # grading violation caught at load time
    doc = dict(HEIS_DOC, brackets=[{"i": 0, "j": 1, "coeffs": {"0": 1.0}}])
    with pytest.raises(InputError):
        algebra_from_dict(doc)
