"""The closed forms of the symmetry generators, written once.

A generator is named by its kind and indices, the arguments of
``generator_terms``, which checks them.  :mod:`oneloop.polyfields` wraps the
closed forms as exact polynomials and :mod:`oneloop.fields` converts them to
floats, so the exact fields, the float Killing catalogue, its flows and the
commutator images that ``structure`` checks its brackets against read the
same coefficients.  No floats and no exact types: a process that verifies
the Killing property loads no exact ring.
"""

from .params import VK_SHEAR


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


# Number of indices each generator kind takes.
_ARITY = {"YC": 0, "T": 0, "C1": 0, "C2": 0, "Ya": 1, "Vk": 1, "CommYaYbBar": 2}


def generator_terms(kind: str, n: int, a=None, b=None):
    """The coefficients of a catalogued generator at dimension index n.

    kind is YC, T, C1, C2, Ya (base index a), Vk (fiber index k = a) or
    CommYaYbBar, the shear commutator [Ya, conj(Yb)] (any a, b); an unknown
    kind, or indices other than the kind's ``_ARITY``, raise ValueError, and
    an index out of range raises IndexError.  Returns
    one dict per direction, in ``VarTable`` order with the angle direction
    last, mapping monomials (exponent tuples over the 4n - 1 variables, c
    last) to Gaussian-integer coefficients (re, im).  Every component has at
    most one term.  The V(k) angle coefficients are +-(VK_SHEAR/2) i, so an
    odd VK_SHEAR is refused.
    """
    arity = _ARITY.get(kind)
    if arity is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    if [a is not None, b is not None] != [arity > 0, arity > 1]:
        raise ValueError(f"generator {kind} takes {arity} of the indices a, b; "
                         f"got a={a!r}, b={b!r}")
    vt = VarTable(n)
    nv = vt.nvars
    x, xb, w, wb = vt.x, vt.xb, vt.w, vt.wb
    c = phi = nv - 1  # c is the last variable, the angle the last direction

    def mono(*variables):
        return tuple([variables.count(v) for v in range(nv)])

    comps = [{} for _ in range(nv)]
    if kind in ("YC", "C1"):
        for k in range(n):
            comps[w(k)] = {mono(w(k)): (0, -1)}
            comps[wb(k)] = {mono(wb(k)): (0, 1)}
        if kind == "YC":  # C1 = YC + 2c d/dphi: the angle terms cancel
            comps[phi] = {mono(c): (-2, 0)}
    elif kind == "T":
        comps[phi] = {mono(): (1, 0)}
    elif kind == "C2":
        for d in range(1, n):
            comps[x(d)] = {mono(x(d)): (0, -n)}
            comps[xb(d)] = {mono(xb(d)): (0, n)}
        comps[w(0)] = {mono(w(0)): (0, -n)}
        comps[wb(0)] = {mono(wb(0)): (0, n)}
    elif kind == "Ya":
        comps[xb(a)] = {mono(): (1, 0)}  # validates the range
        for d in range(1, n):
            comps[x(d)] = {mono(x(a), x(d)): (-1, 0)}
        comps[w(a)] = {mono(w(0)): (-1, 0)}
        comps[wb(0)] = {mono(wb(a)): (-1, 0)}
        comps[phi] = {mono(c, x(a)): (0, 1)}
    elif kind == "Vk":
        if type(VK_SHEAR) is not int or VK_SHEAR % 2:
            raise ValueError(f"VK_SHEAR must be an even integer, got {VK_SHEAR!r}: the V(k) "
                             "angle coefficients +-(VK_SHEAR/2) i are Gaussian integers")
        half = VK_SHEAR // 2
        comps[w(a)] = {mono(): (1, 0)}
        comps[phi] = {mono(wb(a)): (0, half if a == 0 else -half)}
    else:  # CommYaYbBar
        if x(a) == x(b):  # validates both indices
            for d in range(1, n):
                scale = 2 if d == a else 1
                comps[x(d)] = {mono(x(d)): (scale, 0)}
                comps[xb(d)] = {mono(xb(d)): (-scale, 0)}
            comps[w(0)] = {mono(w(0)): (1, 0)}
            comps[w(a)] = {mono(w(a)): (-1, 0)}
            comps[wb(0)] = {mono(wb(0)): (-1, 0)}
            comps[wb(a)] = {mono(wb(a)): (1, 0)}
            comps[phi] = {mono(c): (0, -2)}
        else:
            comps[x(b)] = {mono(x(a)): (1, 0)}
            comps[xb(a)] = {mono(xb(b)): (-1, 0)}
            comps[w(a)] = {mono(w(b)): (-1, 0)}
            comps[wb(b)] = {mono(wb(a)): (1, 0)}
    return comps
