"""Finite-dimensional carriers for higher-order forward-mode lifting.

A carrier here is a commutative unital algebra that splits as the reals
plus a nilpotent ideal spanned by the non-unit basis vectors.  Structure
constants are stored densely as float64; every canonical constructor
(monomial quotients, tensor, sum) produces small integer constants, which
float64 represents exactly, so the matrix identities checked elsewhere in
the package hold exactly.

Element coefficients are deliberately generic: floats for numeric work,
expression trees for emitting programs, or again algebra elements for
nilpotent-parameter differentiation.  All element arithmetic goes through
plain Python loops for that reason: a product walks, for each nonzero
coefficient of its left factor, the structure row of that basis vector,
so the zero coefficients of a sparse nilpotent power cost nothing.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from ._monomials import add_indices, degree, monomial_label, monomials
from .errors import (
    AlgebraMismatch,
    DivisionByNilpotent,
    InvariantViolation,
    NotMultiplicative,
    NotUnital,
    ShapeMismatch,
)
from .scalars import apply_primitive

DEFAULT_HOM_TOL = 1e-9
STRUCT_TOL = 1e-12
# Largest algebra dimension accepted.  Validation holds d^4 floats at once:
# dim 64 takes about 0.5 GB, and every standard algebra is far below it.
MAX_DIM = 64


def _check_dim(dim: int, what: str) -> None:
    """Refuse an algebra past MAX_DIM before anything dense is allocated."""
    if dim > MAX_DIM:
        raise ShapeMismatch("%s would have dim %d; the limit is %d" % (what, dim, MAX_DIM))


class WeilAlgebra:
    """Structure-constant presentation of a Weil algebra, as an immutable value.

    basis_labels[unit_index] is the unit; every other basis vector must lie
    in a common nilpotent ideal.  Construction copies the structure tensor,
    makes the copy read-only, and validates finiteness, commutativity,
    associativity, the unit law, that non-unit products have no unit
    component, and that iterated products of the ideal terminate; `height`
    is the largest h with a nonzero h-fold product and `width` the minimal
    generator count of the ideal.  `==` is the one equality of algebras:
    two are equal when their name, basis labels, unit index, structure and
    generators are, so equal tables under different names do not mix.
    """

    def __init__(self, name: str, basis_labels, structure, unit_index: int = 0, generators=None):
        self.name = name
        self.basis_labels = tuple(str(s) for s in basis_labels)
        self.dim = len(self.basis_labels)
        _check_dim(self.dim, name)
        self.unit_index = int(unit_index)
        self.structure = np.array(structure, dtype=float)
        if self.structure.shape != (self.dim, self.dim, self.dim):
            raise ShapeMismatch(
                "structure tensor must be (%d,%d,%d), got %r"
                % (self.dim, self.dim, self.dim, self.structure.shape)
            )
        self.structure.flags.writeable = False
        if not 0 <= self.unit_index < self.dim:
            raise ShapeMismatch("unit_index %d out of range" % self.unit_index)
        if len(set(self.basis_labels)) != self.dim:
            raise ShapeMismatch("basis labels must be distinct")
        self.generators = (
            tuple(tuple(float(c) for c in g) for g in generators)
            if generators is not None
            else None
        )
        if self.generators is not None:
            for g in self.generators:
                if len(g) != self.dim:
                    raise ShapeMismatch("generator coefficient length mismatch")
        if not (np.isfinite(self.structure).all() and np.isfinite(self.generators or ()).all()):
            raise ShapeMismatch("structure constants and generators must be finite")
        self._nz = None
        self._rows = None
        self.height = self._validate()
        self.width = self._minimal_width()
        self._key = (
            self.name, self.basis_labels, self.unit_index, self.structure.tobytes(), self.generators
        )
        self._hash = hash(self._key)

    def __eq__(self, other):
        if not isinstance(other, WeilAlgebra):
            return NotImplemented
        return self is other or (self._hash == other._hash and self._key == other._key)

    def __hash__(self):
        return self._hash

    # -- validation ---------------------------------------------------

    def _validate(self) -> int:
        c = self.structure
        u = self.unit_index
        d = self.dim
        eye = np.eye(d)
        if np.abs(c[u] - eye).max() > STRUCT_TOL or np.abs(c[:, u] - eye).max() > STRUCT_TOL:
            raise InvariantViolation("unit law fails for basis vector %d" % u)
        gap = np.abs(c - c.transpose(1, 0, 2))
        if gap.max() > STRUCT_TOL:
            i, j, k = np.unravel_index(int(gap.argmax()), gap.shape)
            raise InvariantViolation(
                "multiplication is not commutative: c[%d,%d,%d] != c[%d,%d,%d] (dev %.3e)"
                % (i, j, k, j, i, k, gap.max())
            )
        left = np.einsum("ijl,lkm->ijkm", c, c)
        right = np.einsum("jkl,ilm->ijkm", c, c)
        gap = np.abs(left - right)
        if gap.max() > STRUCT_TOL:
            i, j, k, _ = np.unravel_index(int(gap.argmax()), gap.shape)
            raise InvariantViolation(
                "multiplication is not associative at basis triple (%d,%d,%d) (dev %.3e)"
                % (i, j, k, gap.max())
            )
        rest = [i for i in range(d) if i != u]
        if rest:
            gap = np.abs(c[np.ix_(rest, rest)][:, :, u])
            if gap.max() > STRUCT_TOL:
                a, b = np.unravel_index(int(gap.argmax()), gap.shape)
                raise InvariantViolation(
                    "product of basis vectors %d and %d has a unit component; "
                    "the complement of the unit is not a nilpotent ideal"
                    % (rest[a], rest[b])
                )
        # iterated ideal powers must terminate
        if not rest:
            return 0
        cur = eye[rest]
        ideal = eye[rest]
        h = 1
        while True:
            prods = _products(cur, ideal, c)
            if prods.size == 0 or np.abs(prods).max() <= STRUCT_TOL:
                return h
            cur = _row_basis(prods)
            h += 1
            if h > d:
                raise InvariantViolation(
                    "ideal powers do not vanish: not a Weil algebra"
                )

    def _minimal_width(self) -> int:
        # minimal generator count of the ideal is dim N - dim N^2
        rest = [i for i in range(self.dim) if i != self.unit_index]
        if not rest:
            return 0
        n = np.eye(self.dim)[rest]
        prods = _products(n, n, self.structure)
        nsq = _row_basis(prods)
        return len(rest) - nsq.shape[0]

    # -- element plumbing ----------------------------------------------

    def nonzeros(self):
        """Cached sparse view [(i, j, k, c), ...] of the structure tensor."""
        if self._nz is None:
            c = self.structure
            nz = np.argwhere(c != 0.0)
            self._nz = [(int(i), int(j), int(k), float(c[i, j, k])) for i, j, k in nz]
        return self._nz

    def rows(self):
        """Cached rows of nonzeros(): rows()[i] holds the (j, k, c) with that
        i, in j order, so walking the rows in i order keeps nonzeros() order."""
        if self._rows is None:
            rows = [[] for _ in range(self.dim)]
            for i, j, k, c in self.nonzeros():
                rows[i].append((j, k, c))
            self._rows = tuple(map(tuple, rows))
        return self._rows

    def unit(self, scale=1.0) -> "AlgebraElement":
        coeffs = [0.0] * self.dim
        coeffs[self.unit_index] = scale
        return AlgebraElement(self, coeffs)

    def generator_elements(self):
        if self.generators is None:
            raise InvariantViolation(
                "algebra %r carries no designated generators" % self.name
            )
        return [AlgebraElement(self, g) for g in self.generators]

    def __repr__(self):
        return "WeilAlgebra(%s, dim=%d, height=%d)" % (self.name, self.dim, self.height)


def _products(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficients of every product (row i of a) * (row j of b) under the
    structure tensor c, one product per row, i major.

    Contracted pairwise by two BLAS products: a three-operand einsum with
    no path search runs one C loop over every index at once.
    """
    ac = np.tensordot(a, c, axes=(1, 0))
    return np.tensordot(ac, b, axes=(1, 1)).transpose(0, 2, 1).reshape(-1, c.shape[2])


def _row_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the row space, rows with tiny norm dropped."""
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    keep = s > 1e-9 * max(1.0, s[0] if len(s) else 1.0)
    return vt[keep]


def _zero_real(x) -> bool:
    """Whether a real part is an exact zero, or a column with a zero entry."""
    return not x.all() if type(x) is np.ndarray else isinstance(x, (int, float)) and x == 0


class AlgebraElement:
    """Element of a WeilAlgebra with carrier-generic coefficients."""

    __slots__ = ("algebra", "coeffs")
    # numpy defers to the element's operators, so a column times an element
    # is one element with column coefficients, not an array of elements
    __array_ufunc__ = None

    def __init__(self, algebra: WeilAlgebra, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != algebra.dim:
            raise ShapeMismatch(
                "expected %d coefficients, got %d" % (algebra.dim, len(coeffs))
            )
        self.algebra = algebra
        self.coeffs = tuple(coeffs)

    # scalars are anything that is not an element of the same algebra
    def _peer(self, other):
        if isinstance(other, AlgebraElement):
            # identity first: every element op runs this, and operands
            # almost always share the one memoized algebra
            if other.algebra is self.algebra or other.algebra == self.algebra:
                return other
            raise AlgebraMismatch(
                "operands live in %r and %r" % (self.algebra.name, other.algebra.name)
            )
        return None

    def __add__(self, other):
        peer = self._peer(other)
        if peer is not None:
            return AlgebraElement(
                self.algebra, [a + b for a, b in zip(self.coeffs, peer.coeffs)]
            )
        coeffs = list(self.coeffs)
        coeffs[self.algebra.unit_index] = coeffs[self.algebra.unit_index] + other
        return AlgebraElement(self.algebra, coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        peer = self._peer(other)
        if peer is not None:
            return AlgebraElement(
                self.algebra, [a - b for a, b in zip(self.coeffs, peer.coeffs)]
            )
        coeffs = list(self.coeffs)
        coeffs[self.algebra.unit_index] = coeffs[self.algebra.unit_index] - other
        return AlgebraElement(self.algebra, coeffs)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.coeffs])

    def __mul__(self, other):
        peer = self._peer(other)
        if peer is None:
            return AlgebraElement(self.algebra, [a * other for a in self.coeffs])
        out = [None] * self.algebra.dim
        cb = peer.coeffs
        # every output k sums its terms in nonzeros() order, as one flat walk would
        for x, row in zip(self.coeffs, self.algebra.rows()):
            if isinstance(x, float) and x == 0.0:
                continue
            for j, k, c in row:
                y = cb[j]
                if isinstance(y, float) and y == 0.0:
                    continue
                term = x * y
                if c != 1.0:
                    term = term * c
                out[k] = term if out[k] is None else out[k] + term
        return AlgebraElement(self.algebra, [0.0 if v is None else v for v in out])

    __rmul__ = __mul__

    def __truediv__(self, other):
        peer = self._peer(other)
        if peer is None:
            if isinstance(other, (int, float)):
                return self * (1.0 / other)
            return self * apply_primitive("recip", other)
        # the fixed point q = (self - q*n)/b0 of b = b0 + n, from q = self/b0:
        # each round fixes one more power of the ideal, so `height` rounds do
        b0 = peer.coeffs[self.algebra.unit_index]
        if _zero_real(b0):
            raise DivisionByNilpotent("division by zero real part")
        nil = peer.nilpotent_part()
        q = self._over(b0)
        for _ in range(0 if nil.is_zero() else self.algebra.height):
            q = (self - q * nil)._over(b0)
        return q

    def __rtruediv__(self, other):
        return self.algebra.unit(other) / self

    def _over(self, b0):
        # a float zero is not divided, so it stays a zero that products skip
        return AlgebraElement(
            self.algebra, [c if isinstance(c, float) and c == 0.0 else c / b0 for c in self.coeffs]
        )

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if _zero_real(self.coeffs[self.algebra.unit_index]):
                raise DivisionByNilpotent("zero real part raised to a negative power")
            return self.inverse() ** (-k)
        acc = self.algebra.unit()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def nilpotent_part(self) -> "AlgebraElement":
        coeffs = list(self.coeffs)
        coeffs[self.algebra.unit_index] = 0.0
        return AlgebraElement(self.algebra, coeffs)

    def is_zero(self) -> bool:
        return all(isinstance(c, float) and c == 0.0 for c in self.coeffs)

    def analytic(self, name: str, shift: int = 0) -> "AlgebraElement":
        """Truncated Taylor evaluation of the shift-th derivative of a primitive."""
        a0 = self.coeffs[self.algebra.unit_index]
        out = self.algebra.unit(apply_primitive(name, a0, shift))
        nil = npow = self.nilpotent_part()
        for j in range(1, self.algebra.height + 1):
            if npow.is_zero():
                break
            coeff = apply_primitive(name, a0, shift + j)
            out = out + npow * (coeff * (1.0 / math.factorial(j)))
            if j < self.algebra.height:
                npow = npow * nil
        return out

    def inverse(self) -> "AlgebraElement":
        return self.algebra.unit() / self

    def __repr__(self):
        labels = self.algebra.basis_labels
        parts = []
        for c, lbl in zip(self.coeffs, labels):
            if isinstance(c, float) and c == 0.0:
                continue
            parts.append("%r*%s" % (c, lbl))
        return "<" + (" + ".join(parts) if parts else "0") + ">"


# -- homomorphisms -----------------------------------------------------


class AlgebraHom:
    """Unital algebra homomorphism given by its matrix on basis coefficients."""

    def __init__(self, source: WeilAlgebra, target: WeilAlgebra, matrix, *, validate=True):
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.shape != (target.dim, source.dim):
            raise ShapeMismatch(
                "hom matrix must be (%d,%d), got %r"
                % (target.dim, source.dim, self.matrix.shape)
            )
        if validate:
            self._validate()

    def _validate(self):
        m = self.matrix
        unit_img = m[:, self.source.unit_index]
        want = np.zeros(self.target.dim)
        want[self.target.unit_index] = 1.0
        dev = np.abs(unit_img - want).max()
        if dev > DEFAULT_HOM_TOL:
            raise NotUnital("unit maps with deviation %.3e" % dev)
        lhs = np.einsum("ijs,ts->ijt", self.source.structure, m)
        rhs = np.einsum("pi,qj,pqt->ijt", m, m, self.target.structure)
        dev = np.abs(lhs - rhs)
        worst = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[worst] > DEFAULT_HOM_TOL:
            raise NotMultiplicative((int(worst[0]), int(worst[1])), float(dev[worst]))

    def __repr__(self):
        return "AlgebraHom(%s -> %s)" % (self.source.name, self.target.name)


def apply_matrix(matrix: np.ndarray, coeffs):
    """matrix @ coeffs with carrier-generic coefficients."""
    rows, cols = matrix.shape
    out = []
    for t in range(rows):
        acc = None
        row = matrix[t]
        for s in range(cols):
            c = row[s]
            if c == 0.0:
                continue
            v = coeffs[s]
            if isinstance(v, float) and v == 0.0:
                continue
            term = v if c == 1.0 else v * c
            acc = term if acc is None else acc + term
        out.append(0.0 if acc is None else acc)
    return out


def make_hom(source: WeilAlgebra, target: WeilAlgebra, matrix) -> AlgebraHom:
    """Validated homomorphism, to within DEFAULT_HOM_TOL; raises NotUnital /
    NotMultiplicative."""
    return AlgebraHom(source, target, matrix, validate=True)


def identity_hom(a: WeilAlgebra) -> AlgebraHom:
    return AlgebraHom(a, a, np.eye(a.dim), validate=False)


def rho(a: WeilAlgebra) -> AlgebraHom:
    """Real-part projection onto the scalars."""
    m = np.zeros((1, a.dim))
    m[0, a.unit_index] = 1.0
    return AlgebraHom(a, make_basic("reals"), m, validate=False)


# -- canonical constructions -------------------------------------------
#
# make_basic, tensor, sum_algebra and exchange are memoized on their
# arguments, which are values: equal arguments give the very same algebra
# or hom, however the arguments were built or loaded.


@lru_cache(maxsize=None)
def make_basic(kind: str, k: int | None = None, r: int | None = None) -> WeilAlgebra:
    """reals | dual | truncated(k, r): polynomials in k variables modulo
    everything of degree above r, on the graded monomial basis.  Memoized."""
    if kind == "reals":
        return WeilAlgebra("reals", ("1",), np.ones((1, 1, 1)), generators=())
    if kind == "dual":
        c = np.zeros((2, 2, 2))
        c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
        return WeilAlgebra("dual", ("1", "e"), c, generators=((0.0, 1.0),))
    if kind == "truncated":
        if k is None or r is None or k < 1 or r < 0:
            raise ShapeMismatch("truncated needs k >= 1 and r >= 0")
        if k >= MAX_DIM or r >= MAX_DIM:
            raise ShapeMismatch("truncated needs k and r below %d" % MAX_DIM)
        _check_dim(math.comb(k + r, r), "truncated(%d,%d)" % (k, r))
        monos = monomials(k, r)
        index = {a: i for i, a in enumerate(monos)}
        d = len(monos)
        c = np.zeros((d, d, d))
        for i, a in enumerate(monos):
            for j, b in enumerate(monos):
                s = add_indices(a, b)
                if degree(s) <= r:
                    c[i, j, index[s]] = 1.0
        labels = [monomial_label(a) for a in monos]
        gens = []
        for a in monos:
            if degree(a) == 1:
                g = [0.0] * d
                g[index[a]] = 1.0
                gens.append(tuple(g))
        return WeilAlgebra("truncated(%d,%d)" % (k, r), labels, c, generators=tuple(gens))
    raise ShapeMismatch("unknown basic algebra kind %r" % kind)


@lru_cache(maxsize=None)
def tensor(a: WeilAlgebra, b: WeilAlgebra) -> WeilAlgebra:
    """Tensor product on the pairwise-product basis, left factor major.  Memoized."""
    if a.unit_index != 0 or b.unit_index != 0:
        raise ShapeMismatch("tensor expects unit_index 0 presentations")
    da, db = a.dim, b.dim
    _check_dim(da * db, "tensor(%s,%s)" % (a.name, b.name))
    c = np.einsum("ikp,jlq->ijklpq", a.structure, b.structure).reshape(
        da * db, da * db, da * db
    )
    def factor_label(lbl):
        # nested products need parens or distinct triples can collide
        return "(%s)" % lbl if ("*" in lbl or "+" in lbl) else lbl

    labels = []
    for i in range(da):
        for j in range(db):
            la, lb = a.basis_labels[i], b.basis_labels[j]
            if i == 0 and j == 0:
                labels.append("1")
            else:
                labels.append("%s*%s" % (factor_label(la), factor_label(lb)))
    gens = None
    if a.generators is not None and b.generators is not None:
        gens = []
        for g in a.generators:
            v = [0.0] * (da * db)
            for i, x in enumerate(g):
                v[i * db] = x
            gens.append(tuple(v))
        for g in b.generators:
            v = [0.0] * (da * db)
            for j, x in enumerate(g):
                v[j] = x
            gens.append(tuple(v))
        gens = tuple(gens)
    return WeilAlgebra("tensor(%s,%s)" % (a.name, b.name), labels, c, generators=gens)


@lru_cache(maxsize=None)
def sum_algebra(a: WeilAlgebra, b: WeilAlgebra) -> WeilAlgebra:
    """Glue along the unit; products across the two nilpotent ideals vanish.
    Memoized."""
    if a.unit_index != 0 or b.unit_index != 0:
        raise ShapeMismatch("sum expects unit_index 0 presentations")
    da, db = a.dim, b.dim
    d = da + db - 1
    _check_dim(d, "sum(%s,%s)" % (a.name, b.name))
    c = np.zeros((d, d, d))
    c[0, :, :] = np.eye(d)
    c[:, 0, :] = np.eye(d)
    c[1:da, 1:da, 1:da] = a.structure[1:, 1:, 1:]
    c[da:, da:, da:] = b.structure[1:, 1:, 1:]
    labels = ["1"] + list(a.basis_labels[1:])
    used = set(labels)
    for lbl in b.basis_labels[1:]:
        new = lbl
        if new in used and new.upper() not in used and new.upper() != new:
            new = new.upper()
        while new in used:
            new += "'"
        labels.append(new)
        used.add(new)
    gens = None
    if a.generators is not None and b.generators is not None:
        gens = []
        for g in a.generators:
            gens.append(tuple(list(g) + [0.0] * (db - 1)))
        for g in b.generators:
            gens.append(tuple([g[0]] + [0.0] * (da - 1) + list(g[1:])))
        gens = tuple(gens)
    return WeilAlgebra("sum(%s,%s)" % (a.name, b.name), labels, c, generators=gens)


@lru_cache(maxsize=None)
def exchange(a: WeilAlgebra, b: WeilAlgebra) -> AlgebraHom:
    """Factor swap tensor(a,b) -> tensor(b,a) as a validated hom, with a
    read-only matrix.  Memoized."""
    hom = make_hom(tensor(a, b), tensor(b, a), swap_matrix(a.dim, b.dim))
    hom.matrix.flags.writeable = False
    return hom


def swap_matrix(da: int, db: int) -> np.ndarray:
    """Permutation taking left-major tensor coefficients of (a, b) to (b, a)."""
    m = np.zeros((da * db, da * db))
    for i in range(da):
        for j in range(db):
            m[j * da + i, i * db + j] = 1.0
    return m


def hom_tensor(mu: AlgebraHom, c: WeilAlgebra) -> AlgebraHom:
    """id_c (x) mu on tensor(c, mu.source)."""
    m = np.kron(np.eye(c.dim), mu.matrix)
    return AlgebraHom(tensor(c, mu.source), tensor(c, mu.target), m, validate=False)


# -- serialization ------------------------------------------------------

_ALGEBRA_KEYS = {"name", "dim", "basis", "unit_index", "structure", "width", "height", "generators"}


def algebra_to_json(a: WeilAlgebra) -> dict:
    entries = []
    d = a.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                v = a.structure[i, j, k]
                if v != 0.0:
                    entries.append([i, j, k, float(v)])
    return {
        "name": a.name,
        "dim": a.dim,
        "basis": list(a.basis_labels),
        "unit_index": a.unit_index,
        "structure": entries,
        "width": a.width,
        "height": a.height,
        "generators": None if a.generators is None else [list(g) for g in a.generators],
    }


def algebra_from_json(data) -> WeilAlgebra:
    """Strict loader; unknown keys, bad indices, a boolean where an integer
    belongs, a coefficient past the float range or a wrong cached width or
    height all fail."""
    if not isinstance(data, dict):
        raise ShapeMismatch("algebra document must be an object")
    unknown = set(data) - _ALGEBRA_KEYS
    if unknown:
        raise ShapeMismatch("unknown algebra fields %s" % sorted(unknown))
    for key in ("name", "dim", "basis", "unit_index", "structure"):
        if key not in data:
            raise ShapeMismatch("algebra document missing %r" % key)
    dim = data["dim"]
    basis = data["basis"]
    # a JSON boolean is no integer here, though Python's bool is one
    if type(dim) is not int or not isinstance(basis, list) or len(basis) != dim:
        raise ShapeMismatch("dim and basis disagree")
    if type(data["unit_index"]) is not int:
        raise ShapeMismatch("unit_index must be an integer, got %r" % (data["unit_index"],))
    _check_dim(dim, "algebra document")
    structure = np.zeros((dim, dim, dim))
    seen = set()
    for entry in data["structure"]:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ShapeMismatch("structure entries must be [i, j, k, coeff]")
        i, j, k, v = entry
        if not all(type(t) is int and 0 <= t < dim for t in (i, j, k)):
            raise ShapeMismatch("structure indices must be integers in [0, %d) in %r" % (dim, entry))
        if (i, j, k) in seen:
            raise ShapeMismatch("duplicate structure entry for %r" % ((i, j, k),))
        seen.add((i, j, k))
        structure[i, j, k] = _json_number(v, "structure coefficient %r" % ((i, j, k),))
    gens = data.get("generators")
    if gens is not None:
        if not (isinstance(gens, list) and all(isinstance(g, list) for g in gens)):
            raise ShapeMismatch("generators must be a list of coefficient lists")
        gens = [[_json_number(c, "generator coefficient") for c in g] for g in gens]
    alg = WeilAlgebra(
        str(data["name"]), basis, structure, unit_index=data["unit_index"], generators=gens
    )
    for key in ("width", "height"):
        stored = data.get(key)
        if stored is not None and (type(stored) is not int or stored != getattr(alg, key)):
            raise ShapeMismatch(
                "stored %s %r disagrees with computed %d" % (key, stored, getattr(alg, key))
            )
    return alg


def _json_number(v, what: str) -> float:
    """A JSON number as a float; anything else, or an integer past the float
    range, is malformed input."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ShapeMismatch("%s must be numeric, got %r" % (what, v))
    try:
        return float(v)
    except OverflowError:
        raise ShapeMismatch("%s is past the float range" % what)


def save_algebra(a: WeilAlgebra, path) -> None:
    with open(path, "w") as fh:
        json.dump(algebra_to_json(a), fh, sort_keys=True, indent=2)
        fh.write("\n")
