"""Carrier-generic application of analytic primitives.

A "carrier" is whatever scalars a program is being evaluated over: plain
floats, columns (float64 1-D arrays, one entry per point), expression
trees, algebra elements (possibly nested, e.g. dual numbers whose
coefficients are again algebra elements, or columns).  Everything here
dispatches on the carrier; `shift` asks for the shift-th derivative of the
primitive, in closed form, which is what truncated Taylor evaluation of an
algebra element needs.

"recip" (the derivative family of 1/x) is an internal primitive for 1/x
of a carrier that is not a plain number, such as an expression divisor of
an algebra element; it is not part of the program AST.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import exprs
from .errors import DivisionByNilpotent, DomainError


_MATH = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "log": math.log, "sqrt": math.sqrt}


@lru_cache(maxsize=None)
def _rule(name: str, shift: int) -> tuple:
    """The shift-th derivative of a primitive as c * f(x) * x**k.

    Returns (c, f, k): the constant c, the primitive f applied to x or None
    for none, and the power k or 0 for none.  The float and the symbolic
    path both multiply in that order, left to right; a factor 1.0 changes
    no float and folds away from a tree.
    """
    if name == "exp":
        return 1.0, "exp", 0
    if name in ("sin", "cos"):
        # cos is sin shifted by one derivative; the sign flips every two
        q = (shift + (name == "cos")) % 4
        return (-1.0 if q >= 2 else 1.0), ("sin", "cos")[q % 2], 0
    if name == "log":
        if shift == 0:
            return 1.0, "log", 0
        return (-1.0) ** (shift - 1) * math.factorial(shift - 1), None, -shift
    if name == "sqrt":
        c = 1.0
        for i in range(shift):
            c *= 0.5 - i
        return c, "sqrt", -shift
    if name == "recip":
        return (-1.0) ** shift * math.factorial(shift), None, -shift - 1
    raise DomainError("unknown primitive %r" % name)


def _numeric(name: str, shift: int, x: float) -> float:
    c, f, k = _rule(name, shift)
    if name == "log":
        if shift == 0 and x <= 0.0:
            raise DomainError("log of non-positive real part %r" % x)
        if x == 0.0:
            raise DomainError("log derivative at zero real part")
    elif name == "sqrt":
        if x < 0.0 or (x == 0.0 and shift > 0):
            raise DomainError("sqrt needs positive real part, got %r" % x)
    elif name == "recip" and x == 0.0:
        raise DivisionByNilpotent("division by element with zero real part")
    try:
        v = c if f is None else c * _MATH[f](x)
        return v * x**k if k else v
    # overflow in math.exp or float **, or math.sin or math.cos of an infinity
    except (OverflowError, ValueError) as err:
        raise DomainError("%s has no finite value at %r" % (name, x)) from err


def _symbolic(name: str, shift: int, x: exprs.Expr) -> exprs.Expr:
    c, f, k = _rule(name, shift)
    v = exprs.Const(c) if f is None else exprs.mul(exprs.Const(c), exprs.prim(f, x))
    return exprs.mul(v, exprs.intpow(x, k)) if k else v


def apply_primitive(name: str, x, shift: int = 0):
    """shift-th derivative of the named primitive at the carrier scalar x."""
    analytic = getattr(x, "analytic", None)
    if analytic is not None:
        return analytic(name, shift)
    if isinstance(x, exprs.Expr):
        return _symbolic(name, shift, x)
    if type(x) is np.ndarray:
        # entry by entry: numpy's exp and friends differ from math's in the last ulp
        return np.array([_numeric(name, shift, t) for t in x.tolist()])
    return _numeric(name, shift, float(x))
