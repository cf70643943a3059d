"""Finite-dimensional carriers for higher-order forward-mode lifting.

A carrier here is a commutative unital algebra that splits as the reals
plus a nilpotent ideal spanned by the non-unit basis vectors.  Structure
constants are stored densely as float64; every canonical constructor
(monomial quotients, tensor, sum) produces small integer constants, which
float64 represents exactly, so the matrix identities checked elsewhere in
the package hold exactly.

Element coefficients are deliberately generic: floats for numeric work,
expression trees for emitting programs, or again algebra elements for
nilpotent-parameter differentiation.  All element arithmetic is plain
Python for that reason.  A product runs the algebra's compiled product
(`WeilAlgebra.product`): straight-line code over the two coefficient
tuples, generated once per algebra from its structure nonzeros, that
skips a float-zero coefficient with everything it would multiply, so the
zero coefficients of a sparse nilpotent power cost one test each.  A
Taylor series (`analytic`) runs as one compiled kernel per algebra
(`WeilAlgebra.series`) that skips the structural zeros of the powers n^j,
the coefficients outside their support in the basis; `**` runs on
coefficient tuples through the product.  Each wraps only its result in an
element.  Division by an element is one triangular solve
(`WeilAlgebra.divide`) where the basis allows it, as every monomial basis
does, and the fixed point q = (a - q*n)/b0 otherwise.  The solve and the
series read one walk of the supports of n^j (`_supports`); validation's
walk of the ideal's powers gives the width from the first, N^2.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

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
from .scalars import apply_primitive, primitive_rule

DEFAULT_HOM_TOL = 1e-9
STRUCT_TOL = 1e-12
# Largest algebra dimension accepted.  Validation holds d^3 floats at a time:
# dim 64 builds in about a second, and every standard algebra is far below it.
MAX_DIM = 64
# 1/j! for the Taylor terms of `analytic`; the height is below MAX_DIM
_INVERSE_FACTORIALS = tuple(1.0 / math.factorial(j) for j in range(MAX_DIM))

# Running totals since import: element-by-element products (a division by an
# element counts one), and products compiled (one per algebra value that
# multiplies).  `verify --profile` records each unit's share.
COUNTS = {"algebra_products": 0, "product_compiles": 0}


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
        self._product = None
        self._divide = False  # not built yet
        self._series = None
        self.height, self.width = self._validate()
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

    def _validate(self) -> tuple:
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
        # (e_i e_j) e_k against e_i (e_j e_k), one i at a time as two BLAS
        # products; the first i to reach the largest gap names the triple
        worst, where = 0.0, None
        for i in range(d):
            gap = np.abs(c[i] @ c.reshape(d, d * d) - (c.reshape(d * d, d) @ c[i]).reshape(d, d * d))
            if gap.max() > worst:
                worst, where = gap.max(), (i, *np.unravel_index(int(gap.argmax()), (d, d, d))[:2])
        if worst > STRUCT_TOL:
            raise InvariantViolation(
                "multiplication is not associative at basis triple (%d,%d,%d) (dev %.3e)"
                % (*where, worst)
            )
        rest = [i for i in range(d) if i != u]
        if not rest:
            return 0, 0
        gap = np.abs(c[np.ix_(rest, rest)][:, :, u])
        if gap.max() > STRUCT_TOL:
            a, b = np.unravel_index(int(gap.argmax()), gap.shape)
            raise InvariantViolation(
                "product of basis vectors %d and %d has a unit component; "
                "the complement of the unit is not a nilpotent ideal"
                % (rest[a], rest[b])
            )
        # iterated ideal powers must terminate; the first, N^2, gives the
        # minimal generator count of the ideal, dim N - dim N^2
        cur = ideal = eye[rest]
        h, width = 1, len(rest)
        while True:
            prods = _products(cur, ideal, c)
            if prods.size == 0 or np.abs(prods).max() <= STRUCT_TOL:
                return h, width
            cur = _row_basis(prods)
            if h == 1:
                width -= len(cur)
            h += 1
            if h > d:
                raise InvariantViolation(
                    "ideal powers do not vanish: not a Weil algebra"
                )

    # -- element plumbing ----------------------------------------------

    def nonzeros(self):
        """Cached sparse view [(i, j, k, c), ...] of the structure tensor, in
        (i, j, k) order: the order in which a product sums each output's terms."""
        if self._nz is None:
            at = np.nonzero(self.structure)
            self._nz = list(zip(*(ix.tolist() for ix in at), self.structure[at].tolist()))
        return self._nz

    def product(self):
        """The compiled product of two coefficient tuples, built on first
        use and kept on this value (see `_compile_product`)."""
        if self._product is None:
            self._product = _compile_product(self.dim, self.nonzeros())
            COUNTS["product_compiles"] += 1
        return self._product

    def divide(self):
        """The compiled solve divide(a, n, b0) of q*(b0 + n) = a for q, with n's
        real part 0.0, built on first use and kept on this value; None for a
        basis that admits no single sweep (see `_compile_divide`)."""
        if self._divide is False:
            self._divide = _compile_divide(self.dim, self.unit_index, self.nonzeros(), self.height)
        return self._divide

    def series(self):
        """The compiled Taylor sum series(n, f0, rule, y, name, shift) of
        `AlgebraElement.analytic`, built on first use and kept on this value
        (see `_compile_series`)."""
        if self._series is None:
            self._series = _compile_series(self.dim, self.unit_index, self.nonzeros(), self.height, self.product)
        return self._series

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


class _NoTerm:
    """The value of a sum before its first term: adding a term to it gives
    that term, so the first term is assigned, not added to 0.0."""

    __slots__ = ()

    def __add__(self, term):
        return term


_NO_TERM = _NoTerm()


def _compile_product(dim: int, nonzeros):
    """product(a, b): the coefficient tuple of a*b, as one generated function.

    It does what a walk of `nonzeros` in order does, term for term.  A
    coefficient that is a float zero (`isinstance(v, float) and v == 0.0`,
    so a numpy float64 zero too) is tested once and adds no term; each
    output sums its terms in `nonzeros` order, the first one assigned, not
    added to 0.0; a constant c other than 1.0 multiplies a_i*b_j after the
    product; an output with no term is 0.0.  The code makes one zero test
    and one product t per (i, j) pair, then one line per (k, c), so it
    grows linearly in len(nonzeros).  Its source holds only integer
    indices: the constants come in through the tuple C.

    An output's first line assigns, since no line before it can have given
    a term.  An output with at most dim entries, as every output of a
    monomial algebra has, starts at None, and its later lines test for it.
    One with more starts at the marker E (`_NO_TERM`), and its later lines
    just add, as E + t is t.  A test costs CPython two to three times as
    much to compile as an add, so the source holds at most dim^2 tests
    however dense the algebra.
    """
    consts = {}
    empty, body = _sum_lines(nonzeros, dim, "(isinstance(a{0}, float) and a{0} == 0.0)", "a", "b", "o", consts)
    head = (
        ["%s, = %s" % (", ".join("%s%d" % (v, k) for k in range(dim)), v) for v in "ab"]
        + ["z%d = isinstance(b%d, float) and b%d == 0.0" % (j, j, j) for j in sorted({e[1] for e in nonzeros})]
        + ["o%d = %s" % (k, empty[k]) for k in sorted(empty)]
    )
    out = ["0.0 if o%d is %s else o%d" % (k, empty[k], k) if k in empty else "0.0" for k in range(dim)]
    return _kernel("product(a, b)", head + body, "(%s,)" % ", ".join(out), consts, E=_NO_TERM)


def _kernel(signature: str, body, tail: str, consts: dict, **names):
    """The function `def <signature>: <body>; return <tail>`, compiled with
    `names` as its globals.  Its source holds only integer indices: the
    constant c numbered consts[c] = n is c<n>, a local of the closure
    make(C) that returns the function, bound from the tuple C."""
    name = signature[:signature.index("(")]
    source = "\n".join(
        ["def make(C):"]
        + (["    %s, = C" % ", ".join("c%d" % n for n in range(len(consts)))] if consts else [])
        + ["    def %s:" % signature]
        + ["        " + line for line in body]
        + ["        return %s" % tail, "    return %s" % name]
    )
    exec(compile(source, "<weil %s>" % name, "exec"), names)
    return names["make"](tuple(consts))


def _supports(dim: int, unit: int, nonzeros, count: int) -> list:
    """[S_1, S_2, ...], at most count of them, up to the first empty one:
    S_j holds the indices where n^j may be nonzero for an n whose real part
    is 0.0.  S_1 is every non-unit index, and S_(j+1) the outputs k of the
    entries (i, l, k, c) with i in S_j and l not the unit."""
    reach = [set() for _ in range(dim)]
    for i, l, k, _ in nonzeros:
        if l != unit:
            reach[i].add(k)
    supports, support = [], [k for k in range(dim) if k != unit]
    while support and len(supports) < count:
        supports.append(support)
        support = sorted(set().union(*(reach[i] for i in support)))
    return supports


def _compile_divide(dim: int, unit: int, nonzeros, height: int):
    """divide(a, n, b0): the fixed point's last round in one sweep, or None.

    Entry (i, j, k, c) with j not the unit makes q_k depend on q_i.  The
    unit's row makes every non-unit k depend on it, so the longest chain of
    these edges into k is the last j with k in S_j (`_supports`), and no
    chain is a cycle or longer than `height` exactly when S_(height+1) is
    empty.  Then the fixed point's q_k stops changing at the round equal
    to its chain depth, so one sweep by depth gives its last round bit for
    bit: q_k is over(a_k - s_k, b0), s_k summing q_i*n_j*c under the
    product's rules (`_compile_product`).  Two source lines per entry, a
    few per output.
    """
    supports = _supports(dim, unit, nonzeros, height + 1)
    if len(supports) > height:
        return None
    depth = {k: j for j, support in enumerate(supports, 1) for k in support}
    terms = [[] for _ in range(dim)]
    for i, j, k, c in nonzeros:
        if j != unit:
            terms[k].append((i, j, c))
    consts = {}
    sources = {i for ts in terms for i, _, _ in ts}
    factors = sorted({j for ts in terms for _, j, _ in ts})
    body = ["%s, = %s" % (", ".join("%s%d" % (v, k) for k in range(dim)), v) for v in "an"]
    body += ["z%d = isinstance(n%d, float) and n%d == 0.0" % (j, j, j) for j in factors]
    for k in sorted(range(dim), key=lambda k: (depth.get(k, 0), k)):
        body.append("o = None")
        for i, j, c in terms[k]:
            t = "q%d * n%d" % (i, j) + ("" if c == 1.0 else " * c%d" % consts.setdefault(c, len(consts)))
            body += ["if not (w%d or z%d):" % (i, j), " o = %s if o is None else o + %s" % (t, t)]
        body.append("q%d = over(a%d - (0.0 if o is None else o), b0)" % (k, k))
        if k in sources:
            body.append("w%d = isinstance(q%d, float) and q%d == 0.0" % (k, k, k))
    return _kernel("divide(a, n, b0)", body, "(%s,)" % ", ".join("q%d" % k for k in range(dim)), consts, over=_over)


def _compile_series(dim: int, unit: int, nonzeros, height: int, product):
    """series(n, f0, rule, y, name, shift): the coefficient tuple of
    f0 + sum_j rule(y, name, shift + j)/j! n^j, as one generated function.

    It does what a loop over j of full-width sums and products does, term
    for term, but step j reads only S_j (`_supports`): outside it n^j
    is the literal 0.0 of a product output with no term.  The loop stopped
    at the first n^j of float zeros; here only S_j is tested.  For k in
    S_j, o_k = o_k + p_k*s.  For k outside it the loop added 0.0*s: the
    unit always gets that term, as f0 may be -0.0, and every other o_k
    only when s is not a finite float.  A non-unit o_k starts at +0.0 and
    a sum is -0.0 only when both terms are, so 0.0*s of a finite float
    leaves it as it was, bit for bit; an inf or NaN s, a column, a tree
    or an element still gets its term.

    The next power n^j * n is the product's code (`_compile_product`)
    restricted to rows in S_j and non-unit factors: the rows it drops
    hold float zeros, and n's unit coefficient is 0.0, so the product
    skips them too.  Steps are inlined fewest entries first while their
    total stays within len(nonzeros); the others call the compiled
    `product()`, fetched at the first power, where the loop first asked
    for it.  So the source holds at most as many entries as the product's
    and O(height * dim) more lines.  Step `height` makes no product.
    """
    supports = _supports(dim, unit, nonzeros, height)
    # the entries that the product n^j * n can use, per power it makes
    count = Counter(i for i, l, _, _ in nonzeros if l != unit)
    entries = {j: sum(count[i] for i in support) for j, support in enumerate(supports[:height - 1], 1)}
    inline, budget = set(), len(nonzeros)
    for j in sorted(entries, key=entries.get):
        if entries[j] > budget:
            break
        budget -= entries[j]
        inline.add(j)
    others = [k for k in range(dim) if k != unit]
    consts = {}
    head = (
        ["%s, = n" % ", ".join("n%d" % k for k in range(dim)), "o%d = f0" % unit]
        + ["o%d = 0.0" % k for k in others]
        + ["z%d = isinstance(n%d, float) and n%d == 0.0" % (k, k, k) for k in others]
    )
    body = []
    p, w = "n", "z"  # the names of n^j's coefficients and of their zero flags
    for j, support in enumerate(supports, 1):
        if j > 1:
            body += ["w%d = isinstance(p%d, float) and p%d == 0.0" % (i, i, i) for i in support]
        body.append("if %s: break" % " and ".join("%s%d" % (w, i) for i in support))
        body.append("s = rule(y, name, shift + %d) * I%d" % (j, j))
        body += ["o%d = o%d + %s%d * s" % (k, k, p, k) for k in support]
        if unit not in support:
            body.append("o%d = o%d + 0.0 * s" % (unit, unit))
        rest = [k for k in others if k not in support]
        if rest:
            body.append("if not (type(s) is float and s - s == 0.0):")
            body += [" o%d = o%d + 0.0 * s" % (k, k) for k in rest]
        if j == height:
            break
        body.append('COUNTS["algebra_products"] += 1')
        if j == 1:
            body.append("P = product()")
        if j in inline:
            rows = set(support)
            terms = [e for e in nonzeros if e[0] in rows and e[1] != unit]
            empty, lines = _sum_lines(terms, dim, w + "{0}", p, "n", "q", consts)
            body += ["q%d = %s" % (k, empty[k]) for k in sorted(empty)] + lines
            body += ["p%d = 0.0 if q%d is %s else q%d" % (k, k, empty[k], k) for k in sorted(empty)]
        else:
            body.append("%s, = P((%s,), n)" % (
                ", ".join("p%d" % k for k in range(dim)),
                ", ".join("%s%d" % (p, k) if k in support else "0.0" for k in range(dim)),
            ))
        p, w = "p", "w"
    return _kernel(
        "series(n, f0, rule, y, name, shift)",
        head + ["while True:"] + ["    " + line for line in body + ["break"]],
        "(%s,)" % ", ".join("o%d" % k for k in range(dim)),
        consts,
        COUNTS=COUNTS, E=_NO_TERM, product=product,
        **{"I%d" % j: _INVERSE_FACTORIALS[j] for j in range(1, len(supports) + 1)},
    )


def _sum_lines(terms, dim: int, row_zero: str, a: str, b: str, out: str, consts: dict) -> tuple:
    """(empty, lines): the lines that sum the terms (i, j, k, c) of a*b into
    out<k> as `_compile_product` describes, and the value each output with
    a term holds before its first.  row_zero.format(i) tests a_i for a float
    zero, and z<j> holds that test of b_j; constants come from c<n>."""
    entries = Counter(k for _, _, k, _ in terms)
    empty = {k: "None" if n <= dim else "E" for k, n in entries.items()}
    assigned = set()
    lines = []
    for i, row in groupby(terms, itemgetter(0)):
        lines.append("if not %s:" % row_zero.format(i))
        for j, pair in groupby(row, itemgetter(1)):
            lines += [" if not z%d:" % j, "  t = %s%d * %s%d" % (a, i, b, j)]
            for _, _, k, c in pair:
                term = "t" if c == 1.0 else "t * c%d" % consts.setdefault(c, len(consts))
                if k not in assigned:
                    assigned.add(k)
                    lines.append("  %s%d = %s" % (out, k, term))
                elif empty[k] == "None":
                    lines.append("  %s%d = %s if %s%d is None else %s%d + %s" % (out, k, term, out, k, out, k, term))
                else:
                    lines.append("  %s%d = %s%d + %s" % (out, k, out, k, term))
    return empty, lines


def _zero_real(x) -> bool:
    """Whether a real part is an exact zero, or a column with a zero entry."""
    return not x.all() if type(x) is np.ndarray else isinstance(x, (int, float)) and x == 0


def _nilpotent(x) -> list:
    """The coefficients of x with its real part set to 0.0."""
    coeffs = list(x.coeffs)
    coeffs[x.algebra.unit_index] = 0.0
    return coeffs


def _all_zero(coeffs) -> bool:
    # a loop, not all() over a generator: analytic asks at every Taylor
    # step, and a generator costs a frame switch per coefficient
    for c in coeffs:
        if not (isinstance(c, float) and c == 0.0):
            return False
    return True


def _over(c, b0):
    # a float zero is not divided, so it stays a zero that products skip
    return c if isinstance(c, float) and c == 0.0 else c / b0


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
            return _of(self.algebra, tuple([a + b for a, b in zip(self.coeffs, peer.coeffs)]))
        coeffs = list(self.coeffs)
        coeffs[self.algebra.unit_index] = coeffs[self.algebra.unit_index] + other
        return _of(self.algebra, tuple(coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        peer = self._peer(other)
        if peer is not None:
            return _of(self.algebra, tuple([a - b for a, b in zip(self.coeffs, peer.coeffs)]))
        coeffs = list(self.coeffs)
        coeffs[self.algebra.unit_index] = coeffs[self.algebra.unit_index] - other
        return _of(self.algebra, tuple(coeffs))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _of(self.algebra, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        peer = self._peer(other)
        if peer is None:
            return _of(self.algebra, tuple([a * other for a in self.coeffs]))
        COUNTS["algebra_products"] += 1
        return _of(self.algebra, self.algebra.product()(self.coeffs, peer.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        peer = self._peer(other)
        algebra = self.algebra
        if peer is None:
            if isinstance(other, (int, float)):
                # each coefficient as the float run divides it, signed zeros too
                return _of(algebra, tuple([c / other for c in self.coeffs]))
            return self * apply_primitive("recip", other)
        # the fixed point q = (a - q*n)/b0 of b = b0 + n, from q = a/b0: each
        # round fixes one more power of the ideal, so `height` rounds do; the
        # compiled sweep gives its last round at once, counted as one product
        b0 = peer.coeffs[algebra.unit_index]
        if _zero_real(b0):
            raise DivisionByNilpotent("division by zero real part")
        nil = _nilpotent(peer)
        rounds = 0 if _all_zero(nil) else algebra.height
        COUNTS["algebra_products"] += rounds > 0
        if rounds and algebra.divide() is not None:
            return _of(algebra, algebra.divide()(self.coeffs, nil, b0))
        q = tuple([_over(c, b0) for c in self.coeffs])
        for _ in range(rounds):
            q = tuple([_over(x - y, b0) for x, y in zip(self.coeffs, algebra.product()(q, nil))])
        return _of(algebra, q)

    def __rtruediv__(self, other):
        return self.algebra.unit(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if _zero_real(self.coeffs[self.algebra.unit_index]):
                raise DivisionByNilpotent("zero real part raised to a negative power")
            return self.inverse() ** (-k)
        acc, base = self.algebra.unit().coeffs, self.coeffs
        while k:
            if k & 1:
                COUNTS["algebra_products"] += 1
                acc = self.algebra.product()(acc, base)
            if k > 1:
                COUNTS["algebra_products"] += 1
                base = self.algebra.product()(base, base)
            k >>= 1
        return _of(self.algebra, acc)

    def analytic(self, name: str, shift: int = 0) -> "AlgebraElement":
        """Truncated Taylor evaluation of the shift-th derivative of a primitive,
        the sum of f^(shift+j)(a0)/j! n^j up to the first n^j of float zeros,
        run by the algebra's compiled series (`WeilAlgebra.series`)."""
        algebra = self.algebra
        rule, y = primitive_rule(self.coeffs[algebra.unit_index])
        f0 = rule(y, name, shift)
        return _of(algebra, algebra.series()(_nilpotent(self), f0, rule, y, name, shift))

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


def _of(algebra: WeilAlgebra, coeffs: tuple) -> AlgebraElement:
    """An element from a tuple of exactly algebra.dim coefficients, unchecked."""
    e = object.__new__(AlgebraElement)
    e.algebra = algebra
    e.coeffs = coeffs
    return e


# -- homomorphisms -----------------------------------------------------


class AlgebraHom:
    """Unital algebra homomorphism given by its matrix on basis coefficients;
    the constructor checks the shape only, and make_hom validates."""

    def __init__(self, source: WeilAlgebra, target: WeilAlgebra, matrix):
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.shape != (target.dim, source.dim):
            raise ShapeMismatch(
                "hom matrix must be (%d,%d), got %r"
                % (target.dim, source.dim, self.matrix.shape)
            )

    def _validate(self):
        m = self.matrix
        unit_img = m[:, self.source.unit_index]
        want = np.zeros(self.target.dim)
        want[self.target.unit_index] = 1.0
        dev = np.abs(unit_img - want).max()
        if dev > DEFAULT_HOM_TOL:
            raise NotUnital("unit maps with deviation %.3e" % dev)
        lhs = np.einsum("ijs,ts->ijt", self.source.structure, m)
        # sum_pq m[p,i] m[q,j] c[p,q,t] as two BLAS contractions, not one O(d^5) loop
        rhs = np.tensordot(np.tensordot(m, self.target.structure, (0, 0)), m, (1, 0)).transpose(0, 2, 1)
        dev = np.abs(lhs - rhs)
        worst = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[worst] > DEFAULT_HOM_TOL:
            raise NotMultiplicative((int(worst[0]), int(worst[1])), float(dev[worst]))

    def __repr__(self):
        return "AlgebraHom(%s -> %s)" % (self.source.name, self.target.name)


def apply_matrix(matrix: np.ndarray, coeffs):
    """matrix @ coeffs with carrier-generic coefficients, summed as a
    product sums its terms: float zeros skipped, the first term assigned."""
    rows, cols = matrix.shape
    out = []
    for t in range(rows):
        acc = _NO_TERM
        row = matrix[t]
        for s in range(cols):
            c = row[s]
            if c == 0.0:
                continue
            v = coeffs[s]
            if isinstance(v, float) and v == 0.0:
                continue
            acc = acc + (v if c == 1.0 else v * c)
        out.append(0.0 if acc is _NO_TERM else acc)
    return out


def make_hom(source: WeilAlgebra, target: WeilAlgebra, matrix) -> AlgebraHom:
    """Validated homomorphism, to within DEFAULT_HOM_TOL; raises NotUnital /
    NotMultiplicative."""
    hom = AlgebraHom(source, target, matrix)
    hom._validate()
    return hom


def identity_hom(a: WeilAlgebra) -> AlgebraHom:
    return AlgebraHom(a, a, np.eye(a.dim))


def rho(a: WeilAlgebra) -> AlgebraHom:
    """Real-part projection onto the scalars."""
    m = np.zeros((1, a.dim))
    m[0, a.unit_index] = 1.0
    return AlgebraHom(a, make_basic("reals"), m)


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
    return AlgebraHom(tensor(c, mu.source), tensor(c, mu.target), m)


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
    belongs, a name or basis label that is not a string, a coefficient past
    the float range or a wrong cached width or height all fail."""
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
    if not all(isinstance(t, str) for t in (data["name"], *basis)):
        raise ShapeMismatch("name and basis labels must be strings")
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
    alg = WeilAlgebra(data["name"], basis, structure, unit_index=data["unit_index"], generators=gens)
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
