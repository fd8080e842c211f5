"""Exact arithmetic cores shared across the toolkit.

Provides Gaussian rationals, sparse polynomials with Gaussian-rational
coefficients, one formal radical ring Q + Q*sqrt(a) + Q*sqrt(b) + Q*sqrt(ab)
(with b = 1 it is the quadratic ring Q(sqrt(a))) and its complex form, and
exact rational/integer linear solvers.  Everything here refuses floats on
input: these types exist so that algebraic identities can be checked with no
tolerance at all.

``QI`` and ``Rad`` keep integer numerators over one positive denominator, in
lowest terms, so their ring operations run on Python ints alone; Fraction
appears only in their component views and at construction from Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

_new = object.__new__


def as_fraction(x):
    """Coerce int/Fraction (or a fraction string like '2/3') to Fraction.

    Floats are rejected: silent float->Fraction conversion would defeat the
    exactness guarantees of every class in this module.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}")


def _rational(x):
    """x itself if it is an int or a Fraction, else ``as_fraction(x)``."""
    return x if isinstance(x, (int, Fraction)) else as_fraction(x)


def _lowest(x, y, d):
    """A QI from integers x/d + (y/d)*i with d > 0, in lowest terms."""
    if d != 1:
        g = math.gcd(x, y, d)
        if g != 1:
            x //= g
            y //= g
            d //= g
    z = _new(QI)
    z._x = x
    z._y = y
    z._d = d
    return z


class QI:
    """Gaussian rational (x + y*i)/d with integers x, y and one denominator.

    The stored form is canonical: d > 0 and gcd(x, y, d) = 1, so equality
    and hashing are componentwise.  ``re`` and ``im`` are Fraction views.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._x, self._y, self._d = re, im, 1
            return
        re = _rational(re)
        im = _rational(im)
        q, s = re.denominator, im.denominator
        d = q * s // math.gcd(q, s)
        self._x = re.numerator * (d // q)
        self._y = im.numerator * (d // s)
        self._d = d

    re = property(lambda self: Fraction(self._x, self._d))
    im = property(lambda self: Fraction(self._y, self._d))

    @staticmethod
    def coerce(x):
        if isinstance(x, QI):
            return x
        return QI(as_fraction(x))

    @staticmethod
    def _try_coerce(x):
        if isinstance(x, QI):
            return x
        if isinstance(x, (int, Fraction)):
            return QI(x)
        return None

    @staticmethod
    def _operand(x):
        """x as a QI for a binary operator, or None to let the reflected
        operator of a wider type (Poly, RadC) decide; a float or complex
        operand raises the ``coerce`` error."""
        if isinstance(x, (float, complex)):
            return QI.coerce(x)
        return QI._try_coerce(x)

    def __add__(self, other):
        if type(other) is not QI:
            other = QI._operand(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _lowest(self._x + other._x, self._y + other._y, d)
        return _lowest(self._x * e + other._x * d, self._y * e + other._y * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QI:
            other = QI._operand(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _lowest(self._x - other._x, self._y - other._y, d)
        return _lowest(self._x * e - other._x * d, self._y * e - other._y * d, d * e)

    def __rsub__(self, other):
        return QI.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not QI:
            other = QI._operand(other)
            if other is None:
                return NotImplemented
        x, y, u, v = self._x, self._y, other._x, other._y
        return _lowest(x * u - y * v, x * v + y * u, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QI.coerce(other)
        u, v = other._x, other._y
        n2 = u * u + v * v
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        x, y, e = self._x, self._y, other._d
        return _lowest((x * u + y * v) * e, (y * u - x * v) * e, self._d * n2)

    def __neg__(self):
        return _lowest(-self._x, -self._y, self._d)

    def conj(self):
        return _lowest(self._x, -self._y, self._d)

    def is_zero(self):
        return self._x == 0 and self._y == 0

    def __bool__(self):
        return self._x != 0 or self._y != 0

    def __eq__(self, other):
        other = QI._try_coerce(other)
        if other is None:
            return NotImplemented
        return self._x == other._x and self._y == other._y and self._d == other._d

    def __hash__(self):
        return hash((self._x, self._y, self._d))

    def to_complex(self):
        return complex(self._x / self._d, self._y / self._d)

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)


class VarTable:
    """Variable layout for coordinate polynomials at a fixed fiber dimension n.

    Variables, in index order: the holomorphic base coordinates X_1..X_{n-1},
    their conjugates, the fiber coordinates w_0..w_{n-1}, their conjugates,
    and the deformation parameter c (kept symbolic).  Total 4n-1 variables.
    """

    __slots__ = ("n", "nvars")

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.nvars = 4 * n - 1

    def x(self, a):
        if not 1 <= a <= self.n - 1:
            raise IndexError(f"X index {a} out of range 1..{self.n - 1}")
        return a - 1

    def xb(self, a):
        return (self.n - 1) + self.x(a)

    def w(self, k):
        if not 0 <= k <= self.n - 1:
            raise IndexError(f"w index {k} out of range 0..{self.n - 1}")
        return 2 * (self.n - 1) + k

    def wb(self, k):
        return self.w(k) + self.n

    @property
    def c(self):
        return self.nvars - 1

    def conj_perm(self):
        """Index permutation swapping each variable with its conjugate (c is fixed)."""
        perm = list(range(self.nvars))
        for a in range(1, self.n):
            perm[self.x(a)], perm[self.xb(a)] = perm[self.xb(a)], perm[self.x(a)]
        for k in range(self.n):
            perm[self.w(k)], perm[self.wb(k)] = perm[self.wb(k)], perm[self.w(k)]
        return tuple(perm)


class Poly:
    """Sparse multivariate polynomial with QI coefficients.

    terms maps exponent tuples (length nvars) to nonzero QI coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = QI.coerce(coeff)
                if not coeff.is_zero():
                    self.terms[tuple(mono)] = coeff

    @staticmethod
    def zero(nvars):
        return Poly(nvars)

    @staticmethod
    def const(nvars, coeff):
        return Poly(nvars, {(0,) * nvars: QI.coerce(coeff)})

    @staticmethod
    def variable(nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return Poly(nvars, {tuple(mono): QI_ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable tables")

    @staticmethod
    def _accumulate(terms, items):
        """Add (monomial, coefficient) pairs into the dict ``terms``, in order.

        The one accumulation loop behind every sum and product of term dicts:
        a new monomial is appended, a sum that cancels removes its monomial,
        so ``terms`` keeps only nonzero coefficients.  Returns ``terms``.
        """
        get = terms.get
        for mono, coeff in items:
            acc = get(mono)
            if acc is None:
                terms[mono] = coeff
            else:
                acc = acc + coeff
                if not acc:
                    del terms[mono]
                else:
                    terms[mono] = acc
        return terms

    @staticmethod
    def _products(left, right):
        """The (monomial, coefficient) pairs of a product of two term lists,
        left factor outermost."""
        for m1, c1 in left:
            for m2, c2 in right:
                yield tuple(map(add, m1, m2)), c1 * c2

    @classmethod
    def _wrap(cls, nvars, terms):
        """A Poly around a dict of nonzero QI coefficients, taken as is."""
        out = _new(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        return Poly._wrap(
            self.nvars, Poly._accumulate(dict(self.terms), other.terms.items())
        )

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __neg__(self):
        return Poly._wrap(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QI)):
            return self.scale(other)
        self._check(other)
        terms = Poly._accumulate(
            {}, Poly._products(self.terms.items(), other.terms.items())
        )
        return Poly._wrap(self.nvars, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, coeff):
        coeff = QI.coerce(coeff)
        if coeff.is_zero():
            return Poly(self.nvars)
        return Poly._wrap(self.nvars, {m: c * coeff for m, c in self.terms.items()})

    def diff(self, i):
        """Partial derivative with respect to variable i."""
        terms = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            new = list(mono)
            new[i] = e - 1
            terms[tuple(new)] = coeff * e
        return Poly._wrap(self.nvars, terms)

    def subs(self, assign):
        """Substitute exact QI values for some variables; returns a Poly.

        assign maps variable index -> QI/int/Fraction value.
        """
        assign = {i: QI.coerce(v) for i, v in assign.items()}
        out = Poly.zero(self.nvars)
        for mono, coeff in self.terms.items():
            factor = coeff
            new = list(mono)
            for i, val in assign.items():
                for _ in range(mono[i]):
                    factor = factor * val
                new[i] = 0
            out = out + Poly(self.nvars, {tuple(new): factor})
        return out

    def conj_swap(self, perm):
        """Conjugate coefficients and permute variables by perm (bar-partner swap)."""
        terms = {}
        for mono, coeff in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(mono):
                new[perm[i]] = e
            terms[tuple(new)] = coeff.conj()
        return Poly._wrap(self.nvars, terms)

    def sorted_items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = [f"{c!r}*{m}" for m, c in self.sorted_items()]
        return "Poly(" + " + ".join(bits) + ")"


def _radical(a, b, n1, na, nb, nab, d, x=None):
    """A Rad from integer numerators over d > 0, in lowest terms.

    The numerators must already carry the a = 1 / b = 1 folds; ring
    operations on folded operands keep them folded.  ``x`` is filled in
    place of a new Rad when given.
    """
    if d != 1:
        g = math.gcd(n1, na, nb, nab, d)
        if g != 1:
            n1 //= g
            na //= g
            nb //= g
            nab //= g
            d //= g
    if x is None:
        x = _new(Rad)
    x.a = a
    x.b = b
    x._n1 = n1
    x._na = na
    x._nb = nb
    x._nab = nab
    x._d = d
    return x


class Rad:
    """Element of the formal radical ring Q + Q*sa + Q*sb + Q*sab.

    sa, sb are formal square roots of the positive integers a and b with
    sa*sa = a, sb*sb = b, sa*sb = sab, sa*sab = a*sb, sb*sab = b*sa,
    sab*sab = a*b.  No squarefreeness of a, b is assumed; equality is
    componentwise in this formal ring.

    A parameter equal to 1 folds its root into the rational part: with
    b = 1, sb = 1 and sab = sa, so Rad(d, 1) is the quadratic ring
    Q(sqrt(d)) carried on (r1, ra) with rb = rab = 0; with a = 1 likewise
    sa = 1, and Rad(1, 1) is Q.

    The four coordinates are stored as integer numerators over one
    denominator d > 0 whose gcd with them is 1, so the stored form is
    canonical; ``r1``, ``ra``, ``rb``, ``rab`` and ``components()`` are
    Fraction views.
    """

    __slots__ = ("a", "b", "_n1", "_na", "_nb", "_nab", "_d")

    def __init__(self, a, b, r1=0, ra=0, rb=0, rab=0):
        if not (isinstance(a, int) and isinstance(b, int) and a > 0 and b > 0):
            raise ValueError("radical parameters must be positive integers")
        if type(r1) is int and type(ra) is int and type(rb) is int and type(rab) is int:
            n1, na, nb, nab, d = r1, ra, rb, rab, 1
        else:
            parts = [_rational(r) for r in (r1, ra, rb, rab)]
            d = math.lcm(*(r.denominator for r in parts))
            n1, na, nb, nab = (r.numerator * (d // r.denominator) for r in parts)
        if b == 1:
            n1, na, nb, nab = n1 + nb, na + nab, 0, 0
        if a == 1:
            n1, nb, na, nab = n1 + na, nb + nab, 0, 0
        _radical(a, b, n1, na, nb, nab, d, self)

    r1 = property(lambda self: Fraction(self._n1, self._d))
    ra = property(lambda self: Fraction(self._na, self._d))
    rb = property(lambda self: Fraction(self._nb, self._d))
    rab = property(lambda self: Fraction(self._nab, self._d))

    def coerce(self, x):
        """x in this ring: int/Fraction lift, same-ring values pass.

        Floats and values over other radical parameters raise ValueError, so
        that nothing inexact or from another ring enters an exact solve.
        """
        if isinstance(x, Rad):
            if (x.a, x.b) != (self.a, self.b):
                raise ValueError("mixed radical parameters")
            return x
        if isinstance(x, (int, Fraction)):
            return _radical(self.a, self.b, x.numerator, 0, 0, 0, x.denominator)
        raise ValueError(
            f"exact value over Rad[{self.a},{self.b}] required; "
            f"got {type(x).__name__}"
        )

    def __add__(self, other):
        if type(other) is not Rad:
            if type(other) is RadC:
                return NotImplemented
            other = self.coerce(other)
        elif self.a != other.a or self.b != other.b:
            raise ValueError("mixed radical parameters")
        d, e = self._d, other._d
        if d == e:
            return _radical(self.a, self.b, self._n1 + other._n1, self._na + other._na,
                            self._nb + other._nb, self._nab + other._nab, d)
        return _radical(self.a, self.b, self._n1 * e + other._n1 * d,
                        self._na * e + other._na * d, self._nb * e + other._nb * d,
                        self._nab * e + other._nab * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return _radical(self.a, self.b, -self._n1, -self._na, -self._nb, -self._nab,
                        self._d)

    def __mul__(self, other):
        if type(other) is not Rad:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            if type(other) is RadC:
                return NotImplemented
            other = self.coerce(other)
        elif self.a != other.a or self.b != other.b:
            raise ValueError("mixed radical parameters")
        a, b = self.a, self.b
        u1, ua, ub, uab = self._n1, self._na, self._nb, self._nab
        v1, va, vb, vab = other._n1, other._na, other._nb, other._nab
        return _radical(
            a, b,
            u1 * v1 + a * ua * va + b * ub * vb + a * b * uab * vab,
            u1 * va + ua * v1 + b * (ub * vab + uab * vb),
            u1 * vb + ub * v1 + a * (ua * vab + uab * va),
            u1 * vab + uab * v1 + ua * vb + ub * va,
            self._d * other._d,
        )

    __rmul__ = __mul__

    def scale(self, k):
        k = _rational(k)
        p = k.numerator
        return _radical(self.a, self.b, self._n1 * p, self._na * p, self._nb * p,
                        self._nab * p, self._d * k.denominator)

    def is_zero(self):
        return self._n1 == 0 and self._na == 0 and self._nb == 0 and self._nab == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.coerce(other)
        if not isinstance(other, Rad):
            return NotImplemented
        return (self.a == other.a and self.b == other.b and self._d == other._d
                and self._n1 == other._n1 and self._na == other._na
                and self._nb == other._nb and self._nab == other._nab)

    def __hash__(self):
        return hash((self.a, self.b, self._n1, self._na, self._nb, self._nab, self._d))

    def components(self):
        return (self.r1, self.ra, self.rb, self.rab)

    def numerators(self):
        """((n1, na, nb, nab), d): the components are the n_k / d."""
        return (self._n1, self._na, self._nb, self._nab), self._d

    def to_float(self):
        sa = math.sqrt(self.a)
        sb = math.sqrt(self.b)
        d = self._d
        return (self._n1 / d + self._na / d * sa + self._nb / d * sb
                + self._nab / d * sa * sb)

    def __repr__(self):
        return (f"Rad[{self.a},{self.b}]({self.r1} + {self.ra}*sa"
                f" + {self.rb}*sb + {self.rab}*sab)")


class RadC:
    """Complex number re + i*im with Rad real and imaginary parts."""

    __slots__ = ("re", "im")
    re: Rad
    im: Rad

    def __init__(self, re, im=None):
        if not isinstance(re, Rad):
            raise TypeError("RadC requires Rad components")
        if im is None:
            im = _radical(re.a, re.b, 0, 0, 0, 0, 1)
        self.re = re
        self.im = im

    def coerce(self, x):
        """x in this ring: int/Fraction/QI/Rad lift, same-ring values pass.

        Floats, complex numbers and mixed radical parameters raise
        ValueError, as in ``Rad.coerce``.
        """
        lift = self.re.coerce
        if isinstance(x, RadC):
            lift(x.re)  # rejects mixed (a, b)
            return x
        if isinstance(x, QI):
            return RadC(lift(x.re), lift(x.im))
        return RadC(lift(x))

    def __add__(self, other):
        if type(other) is not RadC:
            other = self.coerce(other)
        return RadC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not RadC:
            other = self.coerce(other)
        return RadC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return RadC(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not RadC:
            if isinstance(other, (int, Fraction)):
                return RadC(self.re * other, self.im * other)
            other = self.coerce(other)
        return RadC(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conj(self):
        return RadC(self.re, -self.im)

    def is_zero(self):
        return self.re.is_zero() and self.im.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RadC):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def components(self):
        return self.re.components() + self.im.components()

    def __repr__(self):
        return f"RadC({self.re!r}, {self.im!r})"


def pivot_inverse(matrix):
    """Pivot rows and the exact inverse of a full-column-rank matrix.

    matrix is m x k (rows of ints/Fractions) with independent columns.
    Returns (rows, inverse): rows lists k row indices, each the first row
    independent of the rows before it, and inverse is the k x k inverse of
    the square submatrix [matrix[i] for i in rows], as Fractions.  Raises
    ValueError on dependent columns.  This is Gauss-Jordan elimination on
    [matrix^T | I]: its pivot columns are those rows, and the identity block
    turns into the inverse of their transpose.
    """
    k = len(matrix[0]) if matrix else 0
    work = [[as_fraction(row[j]) for row in matrix]
            + [Fraction(int(i == j)) for i in range(k)] for j in range(k)]
    rows = []
    for col in range(len(matrix)):
        r = len(rows)
        if r == k:
            break
        pivot = next((i for i in range(r, k) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(k):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        rows.append(col)
    if len(rows) < k:
        raise ValueError("linearly dependent columns: no unique solution")
    m = len(matrix)
    return rows, [[work[j][m + i] for j in range(k)] for i in range(k)]


def solve_rational(matrix, rhs):
    """Solve M x = rhs exactly over the rationals.

    matrix is a list of rows (each a list of Fractions/ints), possibly with
    more rows than columns; the columns must be linearly independent.
    Returns the unique solution as a list of Fractions, or None if the
    system is inconsistent.  Raises ValueError on dependent columns.
    """
    rows = [[as_fraction(x) for x in row] for row in matrix]
    values = [as_fraction(r) for r in rhs]
    if len(rows) != len(values) or (rows and len({len(r) for r in rows}) != 1):
        raise ValueError("ragged system")
    pivots, inverse = pivot_inverse(rows)
    x = [sum(w * values[i] for w, i in zip(weights, pivots)) for weights in inverse]
    if any(sum(m * xj for m, xj in zip(row, x)) != v for row, v in zip(rows, values)):
        return None
    return x


def integer_solution(matrix, rhs):
    """Exact solve, accepted only if every coefficient is an integer.

    Returns a list of ints, or None (inconsistent or non-integral).
    """
    sol = solve_rational(matrix, rhs)
    if sol is None or any(f.denominator != 1 for f in sol):
        return None
    return [int(f) for f in sol]
