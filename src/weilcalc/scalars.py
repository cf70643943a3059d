"""Carrier-generic application of analytic primitives.

A "carrier" is whatever scalars a program is being evaluated over: plain
floats, columns (float64 1-D arrays, one entry per point), expression
trees, algebra elements (possibly nested, e.g. dual numbers whose
coefficients are again algebra elements, or columns).  Everything here
dispatches on the carrier; `shift` asks for the shift-th derivative of the
primitive, in closed form, which is what truncated Taylor evaluation of an
algebra element needs.

"recip" (the derivative family of 1/x) is an internal primitive used for
division by algebra elements; it is not part of the program AST.
"""

from __future__ import annotations

import math

import numpy as np

from . import exprs
from .errors import DivisionByNilpotent, DomainError


def _numeric(name: str, shift: int, x: float) -> float:
    try:
        if name == "exp":
            return math.exp(x)
        if name == "sin":
            return (math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t))[
                shift % 4
            ](x)
        if name == "cos":
            return (math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t), math.sin)[
                shift % 4
            ](x)
        if name == "log":
            if shift == 0:
                if x <= 0.0:
                    raise DomainError("log of non-positive real part %r" % x)
                return math.log(x)
            if x == 0.0:
                raise DomainError("log derivative at zero real part")
            return (-1.0) ** (shift - 1) * math.factorial(shift - 1) * x ** (-shift)
        if name == "sqrt":
            if x < 0.0 or (x == 0.0 and shift > 0):
                raise DomainError("sqrt needs positive real part, got %r" % x)
            c = 1.0
            for i in range(shift):
                c *= 0.5 - i
            return c * math.sqrt(x) * x ** (-shift) if shift else math.sqrt(x)
        if name == "recip":
            if x == 0.0:
                raise DivisionByNilpotent("division by element with zero real part")
            return (-1.0) ** shift * math.factorial(shift) * x ** (-shift - 1)
        raise DomainError("unknown primitive %r" % name)
    # overflow in math.exp or float **, or math.sin or math.cos of an infinity
    except (OverflowError, ValueError) as err:
        raise DomainError("%s has no finite value at %r" % (name, x)) from err


def _symbolic(name: str, shift: int, x: exprs.Expr) -> exprs.Expr:
    if name == "exp":
        return exprs.prim("exp", x)
    if name == "sin":
        base = (
            exprs.prim("sin", x),
            exprs.prim("cos", x),
            exprs.neg(exprs.prim("sin", x)),
            exprs.neg(exprs.prim("cos", x)),
        )
        return base[shift % 4]
    if name == "cos":
        base = (
            exprs.prim("cos", x),
            exprs.neg(exprs.prim("sin", x)),
            exprs.neg(exprs.prim("cos", x)),
            exprs.prim("sin", x),
        )
        return base[shift % 4]
    if name == "log":
        if shift == 0:
            return exprs.prim("log", x)
        c = (-1.0) ** (shift - 1) * math.factorial(shift - 1)
        return exprs.mul(exprs.Const(c), exprs.intpow(x, -shift))
    if name == "sqrt":
        if shift == 0:
            return exprs.prim("sqrt", x)
        c = 1.0
        for i in range(shift):
            c *= 0.5 - i
        return exprs.mul(
            exprs.Const(c), exprs.mul(exprs.prim("sqrt", x), exprs.intpow(x, -shift))
        )
    if name == "recip":
        c = (-1.0) ** shift * math.factorial(shift)
        return exprs.mul(exprs.Const(c), exprs.intpow(x, -shift - 1))
    raise DomainError("unknown primitive %r" % name)


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
