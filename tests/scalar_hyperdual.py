"""Reference for the jets: scalar hyperdual numbers, one point and one axis.

    x = v + b e1 + c e2 + d e12,   e1^2 = e2^2 = 0,  e1 e2 = e12

Seeding e1 = e2 = 1 on one input makes b the first and d the second
partial along it.  This is the arithmetic the package used point by point
before its jets; the tests evaluate the package's field closures with it,
one axis at a time, and require the jets to give the same numbers.
``kgconformal.dual``'s exp, log, sqrt and powr lift it through its
``_lift`` method.
"""

from kgconformal import dual

_SCALARS = (int, float, complex)


class ScalarHyperDual:
    __slots__ = ("v", "e1", "e2", "e12")

    def __init__(self, v, e1=0.0, e2=0.0, e12=0.0):
        self.v = v
        self.e1 = e1
        self.e2 = e2
        self.e12 = e12

    def __add__(self, o):
        if isinstance(o, ScalarHyperDual):
            return ScalarHyperDual(self.v + o.v, self.e1 + o.e1, self.e2 + o.e2, self.e12 + o.e12)
        if isinstance(o, _SCALARS):
            return ScalarHyperDual(self.v + o, self.e1, self.e2, self.e12)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return ScalarHyperDual(-self.v, -self.e1, -self.e2, -self.e12)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, ScalarHyperDual):
            return ScalarHyperDual(
                self.v * o.v,
                self.v * o.e1 + self.e1 * o.v,
                self.v * o.e2 + self.e2 * o.v,
                self.v * o.e12 + self.e12 * o.v + self.e1 * o.e2 + self.e2 * o.e1,
            )
        if isinstance(o, _SCALARS):
            return ScalarHyperDual(self.v * o, self.e1 * o, self.e2 * o, self.e12 * o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, ScalarHyperDual):
            return self * o._reciprocal()
        if isinstance(o, _SCALARS):
            return self * (1.0 / o)
        return NotImplemented

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def _reciprocal(self):
        iv = 1.0 / self.v
        return self._lift(iv, -iv * iv, 2.0 * iv * iv * iv)

    def __pow__(self, n):
        if isinstance(n, int):
            if n < 0:
                return (self._reciprocal()) ** (-n)
            out = ScalarHyperDual(1.0)
            base = self
            k = n
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        return dual.powr(self, n)

    def _lift(self, f, fp, fpp):
        return ScalarHyperDual(f, fp * self.e1, fp * self.e2, fp * self.e12 + fpp * self.e1 * self.e2)


def partials(fn, point, axis, others_dual=True):
    """(first, second) partial of ``fn`` along ``axis`` at one (x1, x2, x3, t)
    point.

    With ``others_dual`` every other input is a hyperdual with zero seeds,
    as every input is a jet in a jet evaluation.  Without it the other
    inputs are plain floats, as in the point-by-point path; a field that
    divides by a constant then rounds its value as r / b where the
    hyperdual rounds r * (1 / b), which can move the last bit of partials
    along an axis the divided quantity does not depend on.
    """
    args = [ScalarHyperDual(x) if others_dual else x for x in point]
    args[axis] = ScalarHyperDual(point[axis], 1.0, 1.0, 0.0)
    out = fn(*args)
    if isinstance(out, ScalarHyperDual):
        return complex(out.e1), complex(out.e12)
    return 0j, 0j
