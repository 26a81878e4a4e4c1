"""Ground set and subset-as-bitmask primitives.

Subsets of the ground set {1..n} are n-bit masks: element i is present
iff bit i-1 is set.  All arithmetic in this package is exact (Python
ints and fractions.Fraction); there are no floats anywhere.
"""

from dataclasses import dataclass
from math import comb

from goa.errors import InputError

MAX_N_VECTOR = 20   # 2^n coefficient vectors stay practical up to here


@dataclass(frozen=True)
class GroundSet:
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N_VECTOR:
            raise InputError(f"ground set size must be in 1..{MAX_N_VECTOR}, got {self.n}")

    @property
    def size(self):
        return 1 << self.n

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def masks(self):
        return range(1 << self.n)


def popcount(mask: int) -> int:
    return mask.bit_count()


def elements_of(mask: int):
    """1-based elements of a mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def enumerate_by_size(g: GroundSet, k: int):
    """All C(n,k) masks of popcount k in strictly increasing numeric order."""
    if not 0 <= k <= g.n:
        raise InputError(f"subset size {k} out of range 0..{g.n}")
    if k == 0:
        return [0]
    out = []
    m = (1 << k) - 1
    limit = 1 << g.n
    while m < limit:
        out.append(m)
        # Gosper's hack: next mask of equal popcount
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r
    return out


def complement_mask(g: GroundSet, a: int) -> int:
    return a ^ g.full_mask


def submasks(mask: int):
    """All submasks of mask, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def parse_subset(text: str, g: GroundSet) -> int:
    """Parse the subset syntax: increasing 1-based integers, or '-' for the empty set."""
    text = text.strip()
    if text == "-":
        return 0
    parts = text.split()
    elems = []
    for p in parts:
        try:
            e = int(p)
        except ValueError:
            raise InputError(f"bad subset token {p!r}") from None
        if not 1 <= e <= g.n:
            raise InputError(f"element {e} out of range 1..{g.n}")
        if elems and e <= elems[-1]:
            raise InputError(f"subset elements must be strictly increasing, got {text!r}")
        elems.append(e)
    return mask_of(elems)


def format_subset(mask: int) -> str:
    if mask == 0:
        return "-"
    return " ".join(str(e) for e in elements_of(mask))
