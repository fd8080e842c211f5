"""Exact arithmetic cores shared across the toolkit.

Provides one exact ring type with three generator lists -- Gaussian
rationals ``QI`` = Q(i), the formal radical ring ``Rad`` = Q(sa, sb) with
sa^2 = a and sb^2 = b (with b = 1 it is the quadratic ring Q(sqrt(a))) and
its complex form ``RadC`` = Q(sa, sb, i) -- together with sparse polynomials
with ``QI`` coefficients and exact rational/integer linear solvers.  The
polynomials' variable layout is :mod:`oneloop.generators`' ``VarTable``.
Everything here refuses floats on input: these types exist so that
algebraic identities can be checked with no tolerance at all.

A ring value holds integer numerators over one positive denominator, in
lowest terms, so ring operations run on Python ints alone; Fraction appears
only in the named views and at construction.  Lowest terms, equality, the
zero test (``bool``), coercion and the a = 1 / b = 1 fold are written once;
each ring's +, -, *, conjugation and hash are straight-line code that
``_build`` writes out from its generators.  An operator takes a value of its
own ring over the same parameters, an int or a Fraction; ``RadC.coerce``
alone lifts a ``QI`` or ``Rad`` value into ``RadC``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, neg

_new = object.__new__


def as_fraction(x):
    """An int or a Fraction as a Fraction.

    Anything else, a float or a string included, raises TypeError: silent
    float->Fraction conversion would defeat the exactness guarantees of every
    class in this module.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}")


def _element(cls, p, nums, d):
    """The ``cls`` value with parameters ``p`` and integer numerators over
    d > 0, in lowest terms: the one constructor behind every ring value."""
    if d != 1:
        g = math.gcd(math.gcd(*nums), d)
        if g != 1:
            nums = tuple([n // g for n in nums])
            d //= g
    z = _new(cls)
    z._p = p
    z._n = nums
    z._d = d
    return z


def _numerators(values):
    """Ints and Fractions as integer numerators over their least common
    denominator, and that denominator."""
    values = [as_fraction(v) for v in values]
    d = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (d // v.denominator) for v in values]), d


def _view(k):
    return property(lambda self: Fraction(self._n[k], self._d))


class _Ring:
    """A value of a multiquadratic ring Q[s_1..s_k]/(s_j^2 - g_j).

    A ring class lists its generators in bit order as ``_gens``: i squares to
    -1, and sa (sb) to the value's parameter a (b).  A value holds its
    parameters ``_p`` and 2^k integer numerators ``_n`` over one denominator
    ``_d`` > 0 in lowest terms, numerator S being the coefficient of the
    product of the generators in the bits of S; this form is canonical, so
    equality compares it."""

    __slots__ = ("_p", "_n", "_d")

    def _operand(self, x):
        """x in this value's ring, for a binary operator: a value of this ring
        over the same parameters passes, an int or a Fraction embeds, and
        anything else goes to ``_refuse``; a narrower ring's value enters only
        through ``coerce``."""
        cls = type(self)
        if type(x) is cls:
            if x._p != self._p:
                raise ValueError("mixed radical parameters")
            return x
        if isinstance(x, (int, Fraction)):
            return _element(cls, self._p, (x.numerator,) + cls._tail, x.denominator)
        return self._refuse(x)

    def __rsub__(self, other):
        return self._operand(other) - self

    def __neg__(self):
        return _element(type(self), self._p, tuple(map(neg, self._n)), self._d)

    def __bool__(self):
        return self._n != self._zero

    def __eq__(self, other):
        if type(other) is type(self):
            return self._n == other._n and self._d == other._d and self._p == other._p
        if isinstance(other, (int, Fraction)):
            # A rational compares on the numerators; no ring value is built.
            return self._d == other.denominator and self._n == (other.numerator,) + self._tail
        return NotImplemented

    def numerators(self):
        """(numerators, d): the components are the numerators over d."""
        return self._n, self._d

    def numerators_of(self, x):
        """``self.coerce(x).numerators()``, read off without building a ring
        value when x is already in this ring or is an int or a Fraction."""
        if type(x) is type(self) and x._p == self._p:
            return x._n, x._d
        if isinstance(x, (int, Fraction)):
            return (x.numerator,) + self._tail, x.denominator
        return self.coerce(x).numerators()

    def __reduce__(self):
        # copy and pickle rebuild the stored form; the constructors take other arguments.
        return _element, (type(self), self._p, self._n, self._d)


class QI(_Ring):
    """Gaussian rational (x + y*i)/d; ``re`` and ``im`` are Fraction views."""

    __slots__ = ()
    _gens = ("i",)

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _element(cls, (), (re, im), 1)
        return _element(cls, (), *_numerators((re, im)))

    re, im = _view(0), _view(1)

    @staticmethod
    def coerce(x):
        return x if type(x) is QI else QI(x)

    def _refuse(self, x):
        return QI.coerce(x)  # raises: x is neither a QI nor a rational

    def __truediv__(self, other):
        other = QI.coerce(other)
        u, v = other._n
        n2 = u * u + v * v
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        x, y = self._n
        e = other._d
        return _element(QI, (), ((x * u + y * v) * e, (y * u - x * v) * e), self._d * n2)

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


def _folded(cls, a, b, nums, d):
    """The ``cls`` value over Rad[a, b] from integer numerators over d, with
    each parameter equal to 1 folded in: that root is 1, so b = 1 makes sb = 1
    and sab = sa, and a = 1 makes sa = 1 and sab = sb.  Ring operations keep
    folded values folded.  The parameters are positive ints, and not bools."""
    if not (type(a) is int and type(b) is int and a > 0 and b > 0):
        raise ValueError(f"Rad[a, b] requires positive integer parameters, got {a!r}, {b!r}")
    for j, g in enumerate((a, b)):
        if g == 1:
            m = 1 << j
            nums = tuple([0 if s & m else n + nums[s | m] for s, n in enumerate(nums)])
    return _element(cls, (a, b), nums, d)


class _Radical(_Ring):
    """A value over the formal square roots sa, sb of positive integers a, b."""

    __slots__ = ()
    _embeds = {}

    a = property(lambda self: self._p[0])
    b = property(lambda self: self._p[1])

    def coerce(self, x):
        """x in this ring: the one way a value changes ring.  A same-ring
        value passes, ints, Fractions and narrower rings' values embed, and
        anything else raises ValueError, so that nothing inexact or from
        another ring enters an exact solve."""
        if type(x) is type(self) and x._p == self._p:
            return x
        embed = self._embeds.get(type(x))
        if embed is None:
            return self._operand(x)
        # A narrower ring with parameters (Rad into RadC) must share them.
        if x._p and x._p != self._p:
            raise ValueError("mixed radical parameters")
        nums = list(self._zero)
        for k, n in zip(embed, x._n):
            nums[k] = n
        return _element(type(self), self._p, tuple(nums), x._d)

    def _refuse(self, x):
        raise ValueError(
            f"exact value over Rad[{self.a},{self.b}] required; got {type(x).__name__}")


class Rad(_Radical):
    """Element of the formal radical ring Q + Q*sa + Q*sb + Q*sab.

    sa*sa = a, sb*sb = b and sab = sa*sb for positive integers a, b.  No
    squarefreeness of a, b is assumed; equality is componentwise in this
    formal ring.  A parameter equal to 1 folds its root into the rational
    part: Rad(d, 1) is the quadratic ring Q(sqrt(d)) carried on (r1, ra),
    and Rad(1, 1) is Q.  ``r1``, ``ra``, ``rb`` and ``rab`` are Fraction views.
    """

    __slots__ = ()
    _gens = ("sa", "sb")

    def __new__(cls, a, b, r1=0, ra=0, rb=0, rab=0):
        return _folded(cls, a, b, *_numerators((r1, ra, rb, rab)))

    r1, ra, rb, rab = map(_view, range(4))

    def __repr__(self):
        return (f"Rad[{self.a},{self.b}]({self.r1} + {self.ra}*sa"
                f" + {self.rb}*sb + {self.rab}*sab)")


class RadC(_Radical):
    """Complex number re + i*im with re and im in one ring Rad[a, b].

    Its numerators are re's four and then im's four; ``re`` and ``im`` are
    Rad views.
    """

    __slots__ = ()
    _gens = ("sa", "sb", "i")
    # The index here of each numerator of a narrower ring: QI's i goes to
    # index 4, and Rad's 1, sa, sb, sab keep theirs.
    _embeds = {QI: (0, 4), Rad: (0, 1, 2, 3)}

    def __new__(cls, re, im=0):
        if type(re) is not Rad:
            raise TypeError("RadC requires Rad components")
        im = re.coerce(im)  # refuses an imaginary part from another ring
        zero = (0, 0, 0, 0)
        return (_element(cls, re._p, re._n + zero, re._d)
                + _element(cls, re._p, zero + im._n, im._d))

    @staticmethod
    def from_ints(a, b, re, im=(0, 0, 0, 0)):
        """re + i*im over Rad[a, b] from integer quadruples (n1, na, nb, nab),
        folded as ``Rad`` folds a parameter equal to 1."""
        nums = (*re, *im)
        # A sum of ints is an int; a Fraction or float among them is not.
        if len(nums) != 8 or type(sum(nums)) is not int:
            raise ValueError("RadC.from_ints requires positive integer parameters "
                             "and integer numerators")
        return _folded(RadC, a, b, nums, 1)

    re = property(lambda self: _element(Rad, self._p, self._n[:4], self._d))
    im = property(lambda self: _element(Rad, self._p, self._n[4:], self._d))

    def __repr__(self):
        return f"RadC({self.re!r}, {self.im!r})"


_SQUARES = {"sa": "a * ", "sb": "b * "}  # and i*i = -1


def _build(rings):
    """Each ring's zero and its straight-line methods, from its generators:
    x and y are the operands' numerators, d and e their denominators, s is 1
    for + and -1 for -, and a value with no nonzero numerator after the
    first equals a rational and hashes as that rational does."""
    source = []
    for ring in rings:
        name, gens = ring.__name__, ring._gens
        width = 1 << len(gens)
        i = 1 << gens.index("i") if "i" in gens else 0
        ring._zero, ring._tail = (0,) * width, (0,) * (width - 1)
        # x_s * y_t goes to index s ^ t, times the squares of the generators
        # in m = s & t: the terms with a common factor a, b or a*b are summed
        # first, and i*i = -1 gives the sign.
        factor = ["".join([_SQUARES.get(g, "") for j, g in enumerate(gens) if m >> j & 1])
                  for m in range(width)]
        product = []
        for k in range(width):
            groups = {}
            for s in range(width):
                m = s & (s ^ k)
                sign = "-" if m & i else "+"
                groups[factor[m]] = groups.get(factor[m], "") + f" {sign} x{s} * y{s ^ k}"
            product.append(" + ".join([f"{f}({t.lstrip(' +')})" if f else t.lstrip(" +")
                                       for f, t in groups.items()]))
        x, y = ["".join([f"{v}{s}, " for s in range(width)]) for v in "xy"]
        total = "".join([f"x{s} * e + y{s} * f, " for s in range(width)])
        tail = " or ".join([f"x{s}" for s in range(1, width)])
        mixed, params = ((" or other._p != self._p", "a, b = self._p\n    ")
                         if "sa" in gens else ("", ""))
        source.append(f"""
def {name}_sum(s):
    def {name}_sum(self, other):
        if type(other) is not {name}{mixed}:
            other = self._operand(other)
        {x} = self._n
        {y} = other._n
        d, e = self._d, other._d
        if d == e:
            e, f = 1, s
        else:
            f = s * d
            d *= e
        return _element({name}, self._p, ({total}), d)
    return {name}_sum

def {name}_mul(self, other):
    if type(other) is not {name}{mixed}:
        other = self._operand(other)
    {x} = self._n
    {y} = other._n
    {params}return _element({name}, self._p, ({", ".join(product)}), self._d * other._d)

def {name}_hash(self):
    {x} = self._n
    if {tail}:
        return hash((self._n, self._d))
    return hash(x0 if self._d == 1 else Fraction(x0, self._d))
""")
        if i:
            conj = "".join([f"{'-' if s & i else ''}x{s}, " for s in range(width)])
            source.append(f"""
def {name}_conj(self):
    {x} = self._n
    return _element({name}, self._p, ({conj}), self._d)
""")
    methods = {}
    exec("".join(source), globals(), methods)
    for ring in rings:
        name = ring.__name__
        # One function per ring and operator: bench/tracer.py rebinds them by identity.
        ring.__add__ = ring.__radd__ = methods[name + "_sum"](1)
        ring.__sub__ = methods[name + "_sum"](-1)
        ring.__mul__ = ring.__rmul__ = methods[name + "_mul"]
        ring.__hash__ = methods[name + "_hash"]
        if name + "_conj" in methods:
            ring.conj = methods[name + "_conj"]


_build((QI, Rad, RadC))
QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)


class Poly:
    """Sparse multivariate polynomial with QI coefficients.

    terms maps exponent tuples (length nvars) to nonzero QI coefficients;
    ``Poly(nvars)``, with none, is the zero polynomial."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = QI.coerce(coeff)
                if coeff:
                    self.terms[tuple(mono)] = coeff

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check(self, other):
        # A coefficient goes through ``scale``.
        if not isinstance(other, Poly):
            raise TypeError(f"Poly operand required, got {type(other).__name__}")
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
        self._check(other)
        return Poly._wrap(
            self.nvars, Poly._accumulate(dict(self.terms), other.terms.items())
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly._wrap(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = Poly._accumulate(
            {}, Poly._products(self.terms.items(), other.terms.items())
        )
        return Poly._wrap(self.nvars, terms)

    def scale(self, coeff):
        coeff = QI.coerce(coeff)
        if not coeff:
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


def solve_rational(matrix, rhs):
    """Solve M x = rhs exactly over the rationals.

    matrix is a list of rows (each a list of Fractions/ints), possibly with
    more rows than columns; the columns must be linearly independent.
    Returns the unique solution as a list of Fractions, or None if the
    system is inconsistent.  Raises ValueError on dependent columns, before
    consistency is read.  This is Gauss-Jordan elimination on [M | rhs]:
    each column gets a pivot row, and the rows past the last pivot must
    reduce to zero.
    """
    rows = [[as_fraction(x) for x in row] for row in matrix]
    values = [as_fraction(v) for v in rhs]
    if len(rows) != len(values) or len({len(row) for row in rows}) > 1:
        raise ValueError("ragged system")
    work = [row + [v] for row, v in zip(rows, values)]
    k = len(rows[0]) if rows else 0
    for r in range(k):
        pivot = next((i for i in range(r, len(work)) if work[i][r]), None)
        if pivot is None:
            raise ValueError("linearly dependent columns: no unique solution")
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][r] for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[r]:
                work[i] = [x - row[r] * y for x, y in zip(row, work[r])]
    if any(row[k] for row in work[k:]):
        return None
    return [row[k] for row in work[:k]]


def integer_solution(matrix, rhs):
    """Exact solve, accepted only if every coefficient is an integer.

    Returns a list of ints, or None (inconsistent or non-integral).
    """
    sol = solve_rational(matrix, rhs)
    if sol is None or any(f.denominator != 1 for f in sol):
        return None
    return [int(f) for f in sol]
