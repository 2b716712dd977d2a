"""Diagonal jets for exact forward-mode differentiation over a grid.

A HyperDual here carries, at every point of a grid, a value ``v``, the
first partials ``g[k]`` and the pure second partials ``h[k]`` along each
input axis k.  Row k is what a scalar hyperdual v + b e1 + c e2 + d e12
(e1^2 = e2^2 = 0, e1 e2 = e12) seeded with e1 = e2 = 1 on axis k would
carry as b and d, so one field evaluation on the jets made by
``variables`` gives the value, the gradient and the Hessian diagonal at
every point.  This is the forward Laplacian of Li et al. 2023
(arXiv:2307.08214), Taylor-mode AD in Griewank & Walther, *Evaluating
Derivatives*, ch. 13.  Coefficients are numpy arrays, real or complex,
so the same arithmetic threads through phase factors, Hermite
recurrences, powers and logarithms without truncation error.

Rounding.  Every component is rounded as scalar hyperdual arithmetic in
CPython rounds it, so a residual computed on jets equals the one a
point-by-point evaluation gives, bit for bit.  numpy fuses the multiply
and add of a complex product and has its own exp, log and pow, so:

* complex-by-complex products are split into real products (``mul``);
* the complex reciprocal follows CPython's division (``_recip``);
* real exp goes through complex exp, which matches libm's real exp;
  log, complex sqrt and the other powers are evaluated in CPython, once
  per distinct value of the argument (``_each``): values with one bit
  pattern round alike, and -0.0 and +0.0, or the two sides of a branch
  cut, are two values.

A square x**2 is the product x * x and a real x**0.5 is the IEEE square
root: both correctly rounded, unlike libm's pow, and both whole-array
operations, and so is a real x**1, which libm's pow returns as x.  On a
jet, ``powr`` takes any integer power as products, square and multiply
as ``x ** n`` runs them, and lifts only the other exponents.  Real
products, sums, ``sqrt`` and complex-by-real products round alike in
numpy and CPython.  Components are combined in the order of the scalar
hyperdual: the second partial of a product is ((v oh + h ov) + g og) +
g og, and of a lifted function fp h + (fpp g) g.

A constant combined with a jet is a Python scalar, or an array of shape
(n,) with one value per point (a family of fields whose parameters differ
from point to point); either way the arithmetic is elementwise, so an
array constant rounds at each point as that point's scalar would.

The functions ``exp``, ``log``, ``sqrt`` and ``powr`` also take plain
scalars and arrays, and lift any argument that has ``_lift``.

Axes.  A jet's ``axes`` is a bitmask of the axes whose rows may be nonzero
(-1, all, for a jet built elsewhere).  Seed jet j has 1 << j; sums,
products and ``join_tiles`` take the union (a constant's is 0); negation,
constant operands, lifts and ``reshape_points`` keep it.  A product with a
factor b of one axis j computes only b's rows (v ov on every row, then v og
and v oh on j's), and g og only if the masks share an axis; a lift of a jet
of one axis fills rows 0, g_j and h_j only.  The terms kept are summed as
above (IEEE sums commute), and where the general formula adds a * 0, only
the sign of a zero can differ.

Memo.  While ``call_on(field, arguments, memo)`` calls a field on the
arguments diffengine keeps with a grid (its seed jets or stencil table),
``cached(args, key, make)`` keeps values in ``memo`` for arguments among
those very ones, so the fields of a grid compute a factor they share once.
For any other argument, or outside ``call_on``, it keeps nothing; nothing
is kept at module level.  Seed jets and kept values are read-only.
"""

from __future__ import annotations

import cmath
import contextvars
import itertools
import math

import numpy as np

#: constants a jet combines with: scalars, and (n,) arrays of one value per point
_CONSTANTS = (int, float, complex, np.ndarray)
#: ({id(argument): index}, memo) while ``call_on`` calls a field, else no memo
_CALL = contextvars.ContextVar("call", default=({}, None))


def _is_complex(x) -> bool:
    if isinstance(x, np.ndarray):
        return x.dtype.kind == "c"
    return isinstance(x, complex)


def mul(a, b):
    """a * b, rounded as CPython rounds a complex product.

    numpy fuses the multiply-add of complex-by-complex products; this
    computes the real and imaginary parts from separately rounded real
    products instead.
    """
    if _is_complex(b) and _is_complex(a) and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        re = ar * br
        re -= ai * bi
        out = np.empty(re.shape, dtype=complex)
        out.real = re
        im = ar * bi
        im += ai * br
        out.imag = im
        return out
    return a * b


def modulus(a) -> np.ndarray:
    """|a| per element, as CPython's abs() rounds it: both call libm's
    hypot on the real and imaginary parts (np.abs rounds otherwise)."""
    a = np.asarray(a)
    return np.hypot(a.real, a.imag)


def _recip(x):
    """1.0 / x; for complex arrays, CPython's complex division."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind == "c"):
        return 1.0 / x
    br, bi = x.real, x.imag
    wide = np.abs(br) >= np.abs(bi)
    # one ratio per point, smaller component over larger, as CPython takes it
    ratio = np.where(wide, bi, br) / np.where(wide, br, bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    out = np.empty(x.shape, dtype=complex)
    out.real = np.where(wide, 1.0, ratio) / denom
    out.imag = np.where(wide, -ratio, -1.0) / denom
    return out


def _exp(x):
    if isinstance(x, np.ndarray):
        if x.dtype.kind == "c":
            return np.exp(x)
        return np.exp(x.astype(complex)).real
    return cmath.exp(x) if isinstance(x, complex) else math.exp(x)


def _each(f, x, *args):
    """``f(v, *args)`` for each element v of the array ``x``, in CPython: once
    per distinct bit pattern (a float's one word, a complex's two, so -0.0
    and +0.0, and the two sides of a branch cut, stay apart), gathered back."""
    flat = x.ravel()
    bits = flat.view(np.uint64 if flat.itemsize == 8 else f"V{flat.itemsize}")
    ranked = np.sort(bits)
    new = np.empty(len(ranked), dtype=bool)  # where a run of equal patterns starts
    new[:1] = True
    new[1:] = ranked[1:] != ranked[:-1]
    distinct = ranked[new]
    values = map(f, distinct.view(flat.dtype).tolist(), *map(itertools.repeat, args))
    return np.fromiter(values, np.result_type(x, 0.0), len(distinct))[distinct.searchsorted(bits)].reshape(x.shape)


def _log(x):
    if isinstance(x, np.ndarray):
        return _each(cmath.log if x.dtype.kind == "c" else math.log, x)
    return cmath.log(x) if isinstance(x, complex) else math.log(x)


def _sqrt(x):
    if isinstance(x, np.ndarray):
        return _each(cmath.sqrt, x) if x.dtype.kind == "c" else np.sqrt(x)
    return cmath.sqrt(x) if isinstance(x, complex) else math.sqrt(x)


def _pow(x, p):
    if p == 1 and not _is_complex(x):
        return x * 1.0  # libm's pow(x, 1) is x; a copy, as x ** 1 is
    if p == 2:
        return mul(x, x)
    if p == 0.5:
        return _sqrt(x)
    if isinstance(x, np.ndarray):
        return _each(pow, x, p)
    return x**p


def _one_axis(axes) -> int:  # the row of g_j for a mask of the one axis j, else 0
    return axes.bit_length() if axes > 0 and not axes & (axes - 1) else 0


class HyperDual:
    """Diagonal jet along k axes at n points.

    ``c`` has shape (1 + 2k, n): row 0 is the value v, rows 1..k the first
    partials g, rows k+1..2k the pure second partials h.
    """

    __slots__ = ("c", "axes")
    # numpy must hand mixed operations to the jet, not build object arrays
    __array_ufunc__ = None

    def __init__(self, c, axes=-1):
        self.c, self.axes = c, axes

    @property
    def v(self):
        return self.c[0]

    # -- ring operations -------------------------------------------------

    def __add__(self, o):
        if isinstance(o, HyperDual):
            return HyperDual(self.c + o.c, self.axes | o.axes)
        if isinstance(o, _CONSTANTS):
            c = self.c.astype(np.result_type(self.c, o))
            c[0] += o
            return HyperDual(c, self.axes)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.c, self.axes)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, HyperDual):
            a, b = (o, self) if _one_axis(self.axes) else (self, o)  # b: of one axis, if either is
            g, shared, axes, a, b = _one_axis(b.axes), a.axes & b.axes, a.axes | b.axes, a.c, b.c
            k = len(a) // 2
            if g:  # b's partials are 0 but g_j (row g) and h_j (row g + k)
                out = mul(a, b[0])  # v ov, g ov, h ov
                out[g::k] += mul(a[0], b[g::k])  # + v og_j, + v oh_j
            else:
                out = mul(a[0], b)  # v ov, v og, v oh
                out[1:] += mul(a[1:], b[0])  # + g ov, + h ov
            if shared:  # else g og is 0 on every axis
                first = slice(g, g + 1) if g else slice(1, 1 + k)
                gg = mul(a[first], b[first])
                out[k:][first] += gg
                out[k:][first] += gg
            return HyperDual(out, axes)
        if isinstance(o, _CONSTANTS):
            return HyperDual(mul(self.c, o), self.axes)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, HyperDual):
            return self * o._reciprocal()
        if isinstance(o, _CONSTANTS):
            return self * _recip(o)
        return NotImplemented

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def _reciprocal(self):
        iv = _recip(self.v)
        return self._lift(iv, mul(-iv, iv), mul(mul(2.0 * iv, iv), iv))

    def __pow__(self, n):
        if isinstance(n, int):
            if n < 0:
                return self._reciprocal() ** (-n)
            if n == 0:
                return 1.0
            # square-and-multiply, as CPython's complex power runs it
            out = None
            base = self
            while n:
                if n & 1:
                    out = base if out is None else out * base
                n >>= 1
                if n:
                    base = base * base
            return out
        return powr(self, n)

    # -- analytic lift ---------------------------------------------------

    def _lift(self, f, fp, fpp):
        """Compose with a scalar analytic function given f, f', f'' at v."""
        a, g = self.c, _one_axis(self.axes)
        k = len(a) // 2
        rows, m = (slice(g, None, k), 1) if g else (slice(1, None), k)  # m rows g, then m rows h
        d = mul(fp, a[rows])  # fp g, fp h
        fpp_g = d[:m] if fpp is fp else mul(fpp, a[rows][:m])
        d[m:] += mul(fpp_g, a[rows][:m])
        out = (np.zeros if g else np.empty)((len(a),) + d.shape[1:], np.result_type(f, d))
        out[0], out[rows] = f, d  # a jet of one axis keeps its other rows 0
        return HyperDual(out, self.axes)


def variables(*coords):
    """One read-only jet per coordinate array, each seeded along its own axis."""
    k = len(coords)
    out = []
    for i, x in enumerate(coords):
        c = np.zeros((1 + 2 * k, len(x)))
        c[0] = x
        c[1 + i] = 1.0
        out.append(HyperDual(frozen(c), 1 << i))
    return out


def join_tiles(parts):
    """The values of several tiles side by side along the points (last)
    axis, as one jet or array (see core.PointSet).  A tile may be a
    constant: its value at every point.  One tile, or one constant for
    every tile, is returned as it is."""
    scalars = (int, float, complex)
    if len(parts) == 1 or all(isinstance(p, scalars) and p == parts[0] for p in parts):
        return parts[0]
    like = next(p for p in parts if not isinstance(p, scalars))
    if not isinstance(like, HyperDual):
        return np.concatenate([np.broadcast_to(p, like.shape) for p in parts], axis=-1)

    def coefficients(p):  # a constant's jet: its value, with zero partials
        if not isinstance(p, scalars):
            return p.c
        c = np.zeros(like.c.shape, dtype=np.result_type(p, 0.0))
        c[0] = p
        return c

    axes = 0
    for p in parts:
        axes |= getattr(p, "axes", 0)  # a constant's is 0
    return HyperDual(np.concatenate([coefficients(p) for p in parts], axis=-1), axes)


def reshape_points(x, shape, axes=1):
    """A view of ``x`` (of a jet's coefficients) with its last ``axes``
    axes, the points, reshaped to ``shape``; a constant as it is."""
    if isinstance(x, HyperDual):
        return HyperDual(reshape_points(x.c, shape, axes), x.axes)
    if isinstance(x, np.ndarray):
        return x.reshape(x.shape[: x.ndim - axes] + shape)
    return x


def call_on(field, arguments, memo):
    """``field(*arguments)``, during which ``cached`` keeps values in ``memo``
    for arguments that are among ``arguments`` themselves.  They stay alive
    for the whole call, so an id names one of them."""
    token = _CALL.set(({id(a): i for i, a in enumerate(arguments)}, memo))
    try:
        return field(*arguments)
    finally:
        _CALL.reset(token)


def cached(args, key, make):
    """``make()``, kept under ``key`` in the memo of the current ``call_on``
    when every one of ``args`` is among its arguments; ``key`` must hold
    every value ``make`` reads besides ``args``."""
    index, memo = _CALL.get()
    axes = tuple(index.get(id(a)) for a in args)  # the arguments' places: ids are never kept
    if None in axes:
        return make()
    key = (key, axes)
    if key not in memo:
        memo[key] = frozen(make())
    return memo[key]


def frozen(x):
    """``x``, with its array (a jet's coefficients) made read-only."""
    array = getattr(x, "c", x)
    if isinstance(array, np.ndarray):
        array.flags.writeable = False
    return x


# -- generic math: scalars, arrays, and anything with _lift ----------------


def exp(x):
    if hasattr(x, "_lift"):
        e = _exp(x.v)
        return x._lift(e, e, e)
    return _exp(x)


def log(x):
    if hasattr(x, "_lift"):
        iv = _recip(x.v)
        return x._lift(_log(x.v), iv, mul(-iv, iv))
    return _log(x)


def sqrt(x):
    if hasattr(x, "_lift"):
        s = _sqrt(x.v)
        half = 0.5 / s  # f'' = -f'^2 / s: no r^3 to overflow
        return x._lift(s, half, mul(-half, half) / s)
    return _sqrt(x)


def powr(x, p):
    """x**p for real exponent p, x > 0; x * x and sqrt(x) for p = 2 and 0.5,
    and a real x itself for p = 1.  A jet takes an integer-valued p as
    products (``x ** int(p)``), whose order fixes its derivative rows."""
    if hasattr(x, "_lift"):
        if float(p).is_integer():
            return x ** int(p)
        f = _pow(x.v, p)
        return x._lift(f, p * f / x.v, p * (p - 1.0) * f / (x.v * x.v))
    return _pow(x, p)


def norm3(x1, x2, x3):
    """sqrt(x1^2 + x2^2 + x3^2), generic over floats, arrays and jets."""
    return sqrt(x1 * x1 + x2 * x2 + x3 * x3)
