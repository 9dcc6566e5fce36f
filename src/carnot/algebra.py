"""Graded nilpotent Lie algebras given by structure constants.

An algebra is stored as a dense rank-3 tensor ``c`` with
``[e_i, e_j] = sum_l c[i, j, l] e_l`` together with a list of layer
dimensions.  Basis indices are 0-based and layers occupy contiguous index
ranges in declared order, so layer projection is plain slicing.  Vectors
are ordinary numpy arrays of length ``dim``; a vector doubles as the
exponential coordinates of a group element.

Brackets are computed from the nonzero structure constants alone
(``BracketKernel``): Heisenberg has 2 of 27, Engel 4 of 64, so a bracket
or a row times ad(x) is a few multiplies per row, not an n x n matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotNilpotentError

# Rank / zero decisions in subspace computations.
RANK_TOL = 1e-10
# Residual tolerance for the structural checks (Jacobi etc).
CHECK_TOL = 1e-12


class GradedAlgebra:
    """A graded nilpotent Lie algebra in a fixed basis.

    Parameters
    ----------
    name : str
        Identifier used in reports and error messages.
    layer_dims : sequence of int
        Dimensions d_1, ..., d_k of the grading layers; layer i spans
        basis indices [d_1 + ... + d_{i-1}, d_1 + ... + d_i).
    structure : (n, n, n) array
        Structure constants, [e_i, e_j] = sum_l structure[i, j, l] e_l.
    labels : sequence of str, optional
        Basis labels for the CLI and reports; defaults to e0, e1, ...
    """

    def __init__(self, name, layer_dims, structure, labels=None):
        layer_dims = [int(d) for d in layer_dims]
        if not layer_dims or any(d <= 0 for d in layer_dims):
            raise InputError("layer_dims must be a nonempty list of positive integers")
        n = sum(layer_dims)
        structure = np.array(structure, dtype=float)
        if structure.shape != (n, n, n):
            raise InputError(
                f"structure tensor has shape {structure.shape}, expected {(n, n, n)}"
            )
        self.name = str(name)
        self.layer_dims = tuple(layer_dims)
        self.structure = structure
        self.structure.setflags(write=False)
        self.kernel = BracketKernel(structure)
        if labels is None:
            labels = [f"e{i}" for i in range(n)]
        if len(labels) != n:
            raise InputError(f"expected {n} basis labels, got {len(labels)}")
        self.labels = tuple(str(s) for s in labels)

        offsets = np.concatenate([[0], np.cumsum(layer_dims)])
        self._offsets = offsets
        # layer_of[idx] = 1-based layer containing basis index idx
        self.layer_of = np.repeat(
            np.arange(1, len(layer_dims) + 1), layer_dims
        )

    # -- basic geometry of the basis -------------------------------------

    @property
    def dim(self):
        return int(self._offsets[-1])

    @property
    def num_layers(self):
        return len(self.layer_dims)

    def layer_slice(self, i):
        """Index slice of layer ``i`` (1-based)."""
        if not 1 <= i <= self.num_layers:
            raise InputError(f"layer {i} out of range 1..{self.num_layers}")
        return slice(int(self._offsets[i - 1]), int(self._offsets[i]))

    def vector(self, x):
        """Validate and convert ``x`` to a coefficient array (batch-friendly)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise InputError(
                f"vector of length {x.shape[-1] if x.ndim else 0} "
                f"incompatible with {self.name} (dim {self.dim})"
            )
        return x

    def basis_vector(self, idx):
        v = np.zeros(self.dim)
        v[idx] = 1.0
        return v

    def from_label(self, label):
        """Coefficient vector for a basis label such as ``"X"`` or ``"e3"``."""
        try:
            return self.basis_vector(self.labels.index(label))
        except ValueError:
            raise InputError(
                f"unknown basis label {label!r} for {self.name}; "
                f"known labels: {', '.join(self.labels)}"
            ) from None

    # -- bracket arithmetic ----------------------------------------------

    def bracket(self, x, y):
        """Lie bracket of coefficient vectors (batched over leading axes)."""
        x = self.vector(x)
        y = self.vector(y)
        return self.kernel.bracket(self.kernel.factor(x), y)

    def __repr__(self):
        return f"GradedAlgebra({self.name!r}, layers={self.layer_dims})"


class BracketKernel:
    """The nonzero structure constants c_k = c[i_k, j_k, l_k] as GEMM operands.

    With 0/1 selection matrices S_i, S_j, S_l ((n, K), column k picks
    index i_k, j_k or l_k) and coefficient matrices R_l, R_j ((K, n), row
    k holds c_k at l_k or j_k):

        [x, w]   = ((x @ S_i) * (w @ S_j)) @ R_l,
        v ad(x)  = ((x @ S_i) * (v @ S_l)) @ R_j.

    ``factor(x) = x @ S_i`` is formed once and reused for every bracket
    with x in a series.  Every step is one ``np.dot`` against a small
    matrix; a (rows, n) stack is one GEMM, so hot callers flatten their
    batches to two dimensions.  ``structure`` may be any (n_i, n_j, n_l)
    block of an algebra's constants, e.g. layer 1 x layer 1 -> layer 2.
    """

    def __init__(self, structure):
        structure = np.asarray(structure, dtype=float)
        i, j, l = np.nonzero(structure)
        coeffs = structure[i, j, l]
        cols = np.arange(len(coeffs))
        n_i, n_j, n_l = structure.shape
        self.si, self.sj, self.sl = (np.zeros((n, len(cols)))
                                     for n in (n_i, n_j, n_l))
        self.si[i, cols] = self.sj[j, cols] = self.sl[l, cols] = 1.0
        self.rl = np.zeros((len(cols), n_l))
        self.rl[cols, l] = coeffs
        self.rj = np.zeros((len(cols), n_j))
        self.rj[cols, j] = coeffs

    def factor(self, x):
        """x @ S_i, batched: x's coefficient on each nonzero constant.

        x may hold only its first coordinates; the rest are taken as 0.
        """
        return np.dot(x, self.si[: x.shape[-1]])

    def bracket(self, xs, w):
        """[x, w] from x's factor ``xs``, batched over leading axes."""
        return np.dot(xs * np.dot(w, self.sj), self.rl)

    def coadjoint(self, xs, v):
        """The row action v ad(x) from x's factor ``xs``, batched."""
        return np.dot(xs * np.dot(v, self.sl), self.rj)


# -- structural verification ---------------------------------------------


@dataclass
class GradingReport:
    """Result of verify_graded: one entry per violated invariant."""

    algebra: str
    violations: list  # list of (invariant name, worst residual magnitude)

    @property
    def valid(self):
        return not self.violations

    def as_dict(self):
        return {
            "algebra": self.algebra,
            "valid": self.valid,
            "violations": [
                {"invariant": name, "residual": float(res)}
                for name, res in self.violations
            ],
        }


def verify_graded(a: GradedAlgebra) -> GradingReport:
    """Check antisymmetry, Jacobi, grading closure and nilpotency.

    Report-valued: never raises on a bad algebra, each violated invariant
    is listed with its worst-case residual magnitude.
    """
    c = a.structure
    scale = max(np.max(np.abs(c)), 1.0)
    violations = []

    anti = np.max(np.abs(c + np.swapaxes(c, 0, 1)))
    if anti > CHECK_TOL * scale:
        violations.append(("antisymmetry", anti))

    # [e_i, [e_j, e_m]] summed cyclically over (i, j, m)
    nest = np.einsum("jmp,ipl->ijml", c, c)
    jac = nest + np.transpose(nest, (1, 2, 0, 3)) + np.transpose(nest, (2, 0, 1, 3))
    jac_res = np.max(np.abs(jac))
    if jac_res > CHECK_TOL * scale * scale * a.dim:
        violations.append(("jacobi", jac_res))

    k = a.num_layers
    worst = 0.0
    for i in range(a.dim):
        for j in range(a.dim):
            target = int(a.layer_of[i] + a.layer_of[j])
            block = c[i, j]
            if target > k:
                bad = np.max(np.abs(block)) if block.size else 0.0
            else:
                mask = a.layer_of != target
                bad = np.max(np.abs(block[mask])) if mask.any() else 0.0
            worst = max(worst, bad)
    if worst > CHECK_TOL * scale:
        violations.append(("grading closure", worst))

    try:
        descending_central_sequence(a)
    except NotNilpotentError:
        violations.append(("nilpotency", np.inf))

    return GradingReport(algebra=a.name, violations=violations)


def _row_space(rows):
    """Orthonormal basis (as rows) of the span of ``rows``."""
    rows = np.atleast_2d(rows)
    if rows.size == 0:
        return np.zeros((0, rows.shape[-1]))
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > RANK_TOL * max(scale, 1.0)))
    return vt[:rank]


def descending_central_sequence(a: GradedAlgebra):
    """Bases of C^0 >= C^1 >= ... down to (and including) the zero subspace.

    C^{m+1} is the span of brackets of a C^m basis with all basis vectors.
    Raises NotNilpotentError if the chain has not died after dim steps.
    """
    current = np.eye(a.dim)
    chain = [current]
    for _ in range(a.dim):
        if current.shape[0] == 0:
            return chain
        # brackets of every current basis row with every algebra basis vector
        prods = np.einsum("ri,ijl->rjl", current, a.structure)
        current = _row_space(prods.reshape(-1, a.dim))
        chain.append(current)
    if current.shape[0] != 0:
        raise NotNilpotentError(
            f"{a.name}: central sequence still has rank {current.shape[0]} "
            f"after {a.dim} steps"
        )
    return chain


def nilpotency_degree(a: GradedAlgebra) -> int:
    """Smallest n with C^n = 0."""
    return len(descending_central_sequence(a)) - 1


# -- group definition files ----------------------------------------------

FORMAT_VERSION = 1


def load_algebra(path) -> GradedAlgebra:
    """Load a group definition file (JSON) and verify its grading.

    Schema (version 1)::

        {
          "version": 1,
          "name": "heisenberg",
          "layer_dims": [2, 1],
          "labels": ["X", "Y", "Z"],          # optional
          "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": 1.0}}
          ]
        }

    Each bracket entry gives [e_i, e_j]; the loader fills in the
    antisymmetric counterpart itself.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from exc
    return algebra_from_dict(doc, source=str(path))


def algebra_from_dict(doc, source="<dict>") -> GradedAlgebra:
    if not isinstance(doc, dict):
        raise InputError(f"{source}: expected a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise InputError(
            f"{source}: unsupported format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    for key in ("name", "layer_dims", "brackets"):
        if key not in doc:
            raise InputError(f"{source}: missing required key {key!r}")
    layer_dims = doc["layer_dims"]
    if not isinstance(layer_dims, list):
        raise InputError(f"{source}: layer_dims must be an array")
    n = int(sum(layer_dims))
    c = np.zeros((n, n, n))
    for entry in doc["brackets"]:
        try:
            i, j = int(entry["i"]), int(entry["j"])
            coeffs = entry["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{source}: malformed bracket entry {entry!r}") from exc
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"{source}: bracket index out of range in {entry!r}")
        for l_str, val in coeffs.items():
            l = int(l_str)
            if not 0 <= l < n:
                raise InputError(f"{source}: coefficient index {l} out of range")
            c[i, j, l] += float(val)
            c[j, i, l] -= float(val)
    algebra = GradedAlgebra(doc["name"], layer_dims, c, labels=doc.get("labels"))
    report = verify_graded(algebra)
    if not report.valid:
        names = ", ".join(name for name, _ in report.violations)
        raise InputError(f"{source}: invalid grading ({names})")
    return algebra
