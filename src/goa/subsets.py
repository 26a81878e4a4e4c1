"""Ground set and subset-as-bitmask primitives.

Subsets of the ground set {1..n} are n-bit masks: element i is present
iff bit i-1 is set.  All arithmetic in this package is exact (Python
ints and fractions.Fraction); there are no floats anywhere.

subset_sum is the one subset-lattice (zeta/Moebius) transform of the
package, Yates' transform: the P <-> EPS basis change, the powers of the
down-set operator, the Venn-cell transform of incidence functions and
downward_counts, the packed table of per-block counts inside each mask,
all run through it.  Reversing a vector indexed by masks moves entry x to
full - x, the complement of x: reversal is complementation, and it turns
superset sums into subset sums.

subset_sum has three routes with the same results.  When the weight is an
int w >= 1 and every entry is an int in 0..255 (bytes(c) succeeds), the
vector is packed into one Python int of unsigned 1-, 2-, 4- or 8-byte
fields, sized by min(sum(c) * w^n, max(c) * (1+w)^n), and each of the n
passes is a few big-int operations over all fields at once.  Block
indicators qualify, so every ell_power of the coefficient-matrix
cross-check takes this route, and so does each P -> EPS change of a
closure image whose coefficients stay at most 255.  Every other vector
(negative entries, entries above 255, w <= 0, or a bound of 2^64 or
more) takes the list loop, which is also the packed route's test
oracle.  A vector with a Fraction entry and an int weight is scaled to
ints by the lcm of its denominators, transformed by the int routes and
divided back once per entry, so no Fraction is added in the n passes.
downward_counts calls the list loop directly: its entries are
multi-field words, wide by construction.

subset_sum returns bytes exactly when the packed route holds the result
in 1-byte fields, and a list otherwise; int or bool entries come back as
ints either way, and the entries of a vector with a Fraction entry as
Fractions.  This bytes-or-list result is the one packed form of the
package: goa.poly keeps such bytes as a Poly's coeffs and feeds them to
the next transform, which packs them as they are.
"""

import re
import sys
from functools import lru_cache
from itertools import repeat
from math import lcm
from operator import add, attrgetter, mul
from struct import calcsize, unpack_from

from goa.errors import InputError

MAX_N_VECTOR = 20   # 2^n coefficient vectors stay practical up to here
# struct codes of the packed subset_sum fields (1, 2, 4 and 8 bytes),
# narrowest first, each with 2^bits: a bound must lie below it to fit
_WIDTHS = tuple((code, 1 << 8 * calcsize("<" + code)) for code in "BHIQ")
_INTS = {int, bool}   # entry types the int routes take as they are


class GroundSet:
    """The points 1..n, whose 2^n subsets are the masks 0..2^n - 1."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N_VECTOR:
            raise InputError(f"ground set size must be in 1..{MAX_N_VECTOR}, got {n}")
        object.__setattr__(self, "n", n)

    def __setattr__(self, *a):
        raise AttributeError("GroundSet is immutable")

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.n == other.n

    def __hash__(self):
        return hash((self.n,))   # the value a frozen dataclass gave, so set orders hold

    def __repr__(self):
        return f"GroundSet({self.n})"

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


def submasks(mask: int):
    """All submasks of mask, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_sum(c, n: int, w):
    """Entry x of the result is the sum over submasks y of x of
    w^(|x|-|y|) * c[y], for a sequence c of length 2^n; returns bytes when
    the packed route holds the result in 1-byte fields, else a new list.

    w = 1 is the zeta transform and w = -1 its Moebius inverse.  Three
    routes give the same exact results, and c is never modified:

    - packed: w is an int >= 1 and every entry an int in 0..255 (bytes(c)
      succeeds; bytes(c) of a bytes c is c itself).  Every result and every
      intermediate value is at most
      bound = min(sum(c) * w^n, max(c) * (1+w)^n), and the fields are the
      narrowest of 1, 2, 4, 8 bytes with bound < 2^bits (_packed_sum with
      code "B", "H", "I" or "Q"); a larger bound takes the list loop.  For
      w = 1 the sum term is always the smaller, and it is taken over the
      nonzero bytes alone (translate deletes the zeros), which a block
      indicator has few of.  1-byte fields are widened in place of a
      second pack.
    - scaled (_scaled_sum): w is an int and some entry is not an int
      (a Fraction).  c times the lcm L of its denominators is an int
      vector; its transform, by one of the two int routes, is divided by
      L once per entry, and every entry comes back a Fraction.  The type
      scan that finds such an entry runs in C, and only on vectors that
      do not take the packed route.
    - list loop (_list_sum): everything else, that is negative entries,
      entries above 255, w <= 0 and larger bounds.  It is the test oracle
      of the other two routes.
    """
    count = len(c)
    if count != 1 << n:
        raise InputError(f"a vector over {n} points has {1 << n} entries, got {count}")
    if isinstance(w, int) and w >= 1:
        try:
            data = bytes(c)
        except (TypeError, ValueError):   # a non-int entry, or one outside 0..255
            pass
        else:
            bound = sum(data.translate(None, b"\0")) * w ** n
            if w > 1:
                bound = min(bound, max(data) * (1 + w) ** n)
            code = next((t for t, limit in _WIDTHS if bound < limit), None)
            if code is not None:
                return _packed_sum(_widen(data, code), code, n, w)
    if isinstance(w, int) and not set(map(type, c)) <= _INTS:
        return _scaled_sum(c, n, w)
    return _list_sum(c, n, w)


def _scaled_sum(c, n: int, w: int):
    """subset_sum of rational entries through ints: L * c is an int vector
    for the lcm L of the denominators, and its transform divided by L is
    the transform of c, since the transform is linear."""
    from fractions import Fraction   # loaded already: some entry is a Fraction
    den = lcm(*map(attrgetter("denominator"), c))
    scaled = [x.numerator * (den // x.denominator) for x in c]
    return [Fraction(v, den) for v in subset_sum(scaled, n, w)]


def _widen(data: bytes, code: str):
    """The 1-byte fields of data widened to the fields of struct code
    `code`: each byte becomes the low byte of its field, and every higher
    byte is 0."""
    size = calcsize("<" + code)
    if size == 1:
        return data
    out = bytearray(len(data) * size)
    out[::size] = data
    return out


def _list_sum(c, n: int, w):
    """subset_sum by a list loop, for entries of any exact type.  Each of
    the n passes handles the lowest index bit and rotates the bits right
    by one, so after n passes the index order is restored.  Entry 0 is
    never added to, so it gets + 0 to turn a bool into an int."""
    c = list(c)
    c[0] += 0
    for _ in range(n):
        even = c[0::2]
        c = even + list(map(add, c[1::2], even if w == 1 else map(mul, repeat(w), even)))
    return c


def _packed_sum(data, code: str, n: int, w):
    """subset_sum of the 2^n little-endian fields of struct code `code` in
    data, whose bound fits a field.  Pass k adds w times each field whose
    index has bit k clear to the field 2^k above it; no field ever carries
    into the next.  The struct formats name the byte order, so the layout
    is the same on every host.  Returns a list of ints, except for code
    "B": then the result's bytes themselves (see subset_sum).

    The entries are ints in 0..255 and w >= 1.  One int x holds the fields
    as its exact base-2^bits expansion, and each pass is
    x += w * (x & low) << (bits << k).  Every value a field takes is a
    partial sum of the nonnegative terms w^(|x|-|y|) * c[y] of its final
    value, so it is at most that value, which is at most both sum(c) * w^n
    and max(c) * (1+w)^n: the bound subset_sum sized the field by.
    """
    size = calcsize("<" + code)
    bits = 8 * size
    x = int.from_bytes(data, "little")
    for k, low in enumerate(_pass_masks(n, size)):
        d = x & low
        x += (d if w == 1 else w * d) << (bits << k)
    out = x.to_bytes(len(data), "little")
    return out if size == 1 else list(unpack_from(f"<{1 << n}{code}", out))


@lru_cache(maxsize=1)
def _pass_masks(n: int, size: int):
    """For each pass k < n, the int whose size-byte fields (2^n of them)
    are all ones where the field index has bit k clear, and zero elsewhere.

    Only the last (n, size) set is kept: n * 2^n * size bytes, 2 MiB at
    n = 16 with 2-byte fields and 80 MiB at n = 20 with 4-byte fields.
    Transforms in a row mostly share one size, and building the set takes
    a fifth to half as long as one transform."""
    count = 1 << n
    masks = []
    for k in range(n):
        run = size << k                  # bytes in 2^k consecutive fields
        masks.append(int.from_bytes((b"\xff" * run + bytes(run)) * (count >> k + 1), "little"))
    return tuple(masks)


def downward_counts(blocks, n: int):
    """(table, code) for disjoint mask lists: table[c] packs, in field j,
    the count of members of blocks[j] inside mask c.  Fields are the least
    of 1, 2, 4 bytes (code "BHI") that hold the largest block's size."""
    largest = max(map(len, blocks), default=0)
    code = next(c for c in "BHI" if largest < 1 << 8 * calcsize(c))
    vec = [0] * (1 << n)
    for j, block in enumerate(blocks):
        bit = 1 << 8 * calcsize(code) * j   # shared: vec holds s big ints, not 2^n
        for m in block:
            vec[m] = bit
    return _list_sum(vec, n, 1), code


def unpack(word: int, code: str, s: int):
    """The s fields of a downward_counts word, as a read-only memoryview
    of ints: field j is (word >> bits*j) & (2^bits - 1)."""
    fields = memoryview(word.to_bytes(s * calcsize(code), sys.byteorder)).cast(code)
    # big-endian bytes hold each field in native order but the last field first
    return fields if sys.byteorder == "little" else fields[::-1]


def parse_subset(text: str, g: GroundSet) -> int:
    """Parse the subset syntax: increasing 1-based ASCII-digit integers, or
    '-' for the empty set.  A blank member is an error, not the empty set."""
    text = text.strip()
    if not text:
        raise InputError("empty subset (the empty set is written '-')")
    if text == "-":
        return 0
    parts = text.split()
    elems = []
    for p in parts:
        if not re.fullmatch("[0-9]+", p):     # int() also reads '1_2', '+1', '١'
            raise InputError(f"bad subset token {p!r}")
        e = int(p)
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


def parse_header(text: str, kind: str):
    """(GroundSet, body) of an input file whose first line that is neither
    blank nor a '#' comment is 'n <int>'; body lists (line number, stripped
    line) for each later such line.  kind names the file in errors."""
    g = None
    body = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if g is not None:
            body.append((lineno, line))
            continue
        m = re.fullmatch(r"n\s+([0-9]+)", line)
        if not m:
            raise InputError(f"line {lineno}: expected 'n <int>' header, got {line!r}")
        try:
            g = GroundSet(int(m.group(1)))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if g is None:
        raise InputError(f"{kind} file has no 'n <int>' header")
    return g, body
