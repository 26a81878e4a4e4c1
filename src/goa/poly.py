"""Polynomials on the Boolean lattice: the quotient algebra with x_i^2 = x_i.

A Poly is a dense vector of exact coefficients indexed by subset mask,
tagged with its basis:

  P basis    p_A, with p_A(B) = 1 iff A is a subset of B, and p_A * p_B = p_{A union B}
  EPS basis  eps_A, the idempotent indicators: eps_A(B) = 1 iff A = B

Coefficients are Python ints or Fractions; the two mix exactly.

Poly.coeffs is the one coefficient sequence: the bytes a Poly was built
from (packed: every coefficient an int in 0..255), or a tuple of
anything else.  Every module reads coeffs and no other form; ==, hash,
terms, is_zero and evaluate agree between a packed Poly and the tuple
with the same entries.  Block sums, P-basis products of packed Polys
whose coefficients stay in 0..255, complementation, ell_power and
to_basis (see goa.operators and subsets.subset_sum) produce and consume
the bytes with no 2^n-entry tuple or list in between, and the closure
test and the coefficient-matrix cross-check hand them to
Partition.block_values as they are.
"""

from goa.errors import InputError
from goa.subsets import GroundSet, format_subset, popcount, submasks, subset_sum

P = "P"
EPS = "EPS"


class Poly:
    __slots__ = ("g", "basis", "coeffs", "_terms")

    def __init__(self, g: GroundSet, basis: str, coeffs):
        if basis not in (P, EPS):
            raise InputError(f"unknown basis {basis!r}")
        if type(coeffs) is not bytes:
            coeffs = tuple(coeffs)
        if len(coeffs) != g.size:
            raise InputError(f"coefficient vector must have {g.size} entries, got {len(coeffs)}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_terms", None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(g, basis=P):
        return Poly(g, basis, (0,) * g.size)

    @staticmethod
    def term(g, mask, coeff=1, basis=P):
        c = [0] * g.size
        c[mask] = coeff
        return Poly(g, basis, c)

    @staticmethod
    def one(g):
        return Poly.term(g, 0)

    @staticmethod
    def block_sum(g, masks, basis=P):
        """Sum of basis vectors over an iterable of masks; packed unless
        some mask is counted more than 255 times."""
        c = bytearray(g.size)
        masks = iter(masks)
        for m in masks:
            try:
                c[m] += 1
            except ValueError:   # a 256th count of m: go on in a list
                c = list(c)
                c[m] += 1
                for m in masks:
                    c[m] += 1
                return Poly(g, basis, c)
        return Poly(g, basis, bytes(c))

    # -- linear structure ----------------------------------------------

    def _check_compatible(self, other):
        if self.g != other.g:
            raise InputError("polynomials live on different ground sets")
        if self.basis != other.basis:
            raise InputError("mixed-basis arithmetic; convert explicitly first")

    def __add__(self, other):
        self._check_compatible(other)
        return Poly(self.g, self.basis, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_compatible(other)
        return Poly(self.g, self.basis, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Poly(self.g, self.basis, [-a for a in self.coeffs])

    def scale(self, c):
        return Poly(self.g, self.basis, [c * a for a in self.coeffs])

    def __eq__(self, other):
        if not (isinstance(other, Poly) and self.g == other.g and self.basis == other.basis):
            return False
        if type(self.coeffs) is type(other.coeffs):
            return self.coeffs == other.coeffs
        return tuple(self.coeffs) == tuple(other.coeffs)

    def __hash__(self):
        # an int and the equal Fraction hash alike, and so do packed and
        # tuple coeffs with equal entries, so this agrees with ==
        return hash((self.g, self.basis, tuple(self.coeffs)))

    def is_zero(self):
        return not any(self.coeffs)

    def terms(self):
        """Nonzero (mask, coeff) pairs, ascending mask, as a tuple.  A Poly
        is immutable, so the scan runs once and later calls reuse it."""
        if self._terms is None:
            object.__setattr__(self, "_terms",
                               tuple((m, c) for m, c in enumerate(self.coeffs) if c != 0))
        return self._terms

    # -- algebra --------------------------------------------------------

    def __mul__(self, other):
        """Product in the common basis.

        P basis: bilinear extension of p_A * p_B = p_{A union B}.
        EPS basis: coefficient-wise, since the eps_A are orthogonal idempotents.
        S_n-equivariant in each basis: with sigma . p_A = p_{sigma A},
        sigma(x * y) = (sigma x) * (sigma y), as sigma(A | B) = sigma A | sigma B.

        Two packed P-basis factors multiply into a bytearray, and their
        product is packed; if a coefficient passes 255, the list loop
        starts over.
        """
        self._check_compatible(other)
        if self.basis == EPS:
            return Poly(self.g, EPS, [a * b for a, b in zip(self.coeffs, other.coeffs)])
        left, right = self.terms(), other.terms()
        if type(self.coeffs) is bytes and type(other.coeffs) is bytes:
            try:
                return Poly(self.g, P, bytes(_union_products(bytearray(self.g.size), left, right)))
            except ValueError:   # a coefficient past 255
                pass
        return Poly(self.g, P, _union_products([0] * self.g.size, left, right))

    def __rmul__(self, c):
        return self.scale(c)

    def evaluate(self, b: int):
        """Value of the associated function at the subset b."""
        if not 0 <= b < self.g.size:
            raise InputError(f"mask {b} out of range")
        if self.basis == EPS:
            return self.coeffs[b]
        return sum(self.coeffs[a] for a in submasks(b))

    def to_basis(self, target: str):
        """Exact basis change; round trips are the identity.

        P -> EPS is the zeta transform of the coefficient vector (p_A is
        the sum of eps_B over B containing A, so eps-coefficient B is the
        sum of the p-coefficients of the subsets of B): subset_sum with
        w = 1.  EPS -> P is its Moebius inverse, subset_sum with w = -1.
        Both run in O(n 2^n).  The result is packed when subset_sum's
        packed route holds it in 1-byte fields.
        """
        if target not in (P, EPS):
            raise InputError(f"unknown basis {target!r}")
        if target == self.basis:
            return self
        w = 1 if target == EPS else -1
        return Poly(self.g, target, subset_sum(self.coeffs, self.g.n, w))

    def __repr__(self):
        return f"Poly({self.g.n}, {self.basis}, {dict(self.terms())})"


def _union_products(out, left, right):
    """Add ca * cb to out[a | b] for each (a, ca) in left and (b, cb) in
    right; returns out."""
    for a, ca in left:
        for b, cb in right:
            out[a | b] += ca * cb
    return out


def from_function(g: GroundSet, f) -> Poly:
    """The polynomial whose evaluation is f (a map mask -> value), in EPS basis."""
    if callable(f):
        vals = [f(m) for m in g.masks()]
    else:
        vals = [f[m] for m in g.masks()]
    return Poly(g, EPS, vals)


def format_poly(p: Poly) -> str:
    """Line-oriented text form: 'basis X' header, then 'coeff * subset' per term."""
    lines = [f"basis {p.basis}"]
    for m, c in sorted(p.terms(), key=lambda t: (popcount(t[0]), t[0])):
        lines.append(f"{c} * {format_subset(m)}")
    return "\n".join(lines)
