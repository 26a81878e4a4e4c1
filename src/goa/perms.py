"""Permutation groups on the ground set: cycle-notation parsing, closure
from generators, the lifted action on subset masks, orbit partitions of
the powerset, and setwise stabilizers of powerset partitions.

The setwise stabilizer is found one coset at a time along the base
1..n: for each base point, a backtrack over point images looks for one
representative of each coset of the next point's stabilizer, and skips
every image the strong generators found so far already reach.  The
orbits with their transversals (a Schreier tree per base point) then
give every element once, as a product of one transversal member per
point.
"""

import re
from itertools import pairwise

from goa.errors import BudgetExceeded, InputError, VerificationFailure
from goa.partition import Partition
from goa.subsets import GroundSet, parse_header

DEFAULT_CLOSURE_CAP = 10 ** 6

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_POINT_RE = re.compile(r"\s*([0-9]+)\s*")


def identity_perm(n):
    return tuple(range(1, n + 1))


def compose(a, b):
    """a after b: (a.b)(x) = a(b(x))."""
    return tuple([a[x - 1] for x in b])


def parse_permutation(text: str, g: GroundSet):
    """Disjoint cycle notation, e.g. '(1,2)(3,4)'; '()' is the identity;
    fixed points may be omitted.  Whitespace may surround parentheses and
    commas, but not split a point: '(1 2)' is an error, not '(12)'."""
    stripped = text.strip()
    if not stripped:
        raise InputError("empty permutation")
    if _CYCLE_RE.sub("", stripped).strip():
        raise InputError(f"malformed cycle notation: {text!r}")
    images = list(identity_perm(g.n))
    seen = set()
    for cycle_text in _CYCLE_RE.findall(stripped):
        if not cycle_text.strip():
            continue
        points = [_POINT_RE.fullmatch(tok) for tok in cycle_text.split(",")]
        if not all(points):
            raise InputError(f"bad cycle {cycle_text!r} in {text!r}")
        pts = [int(m[1]) for m in points]
        for p in pts:
            if not 1 <= p <= g.n:
                raise InputError(f"point {p} out of range 1..{g.n}")
            if p in seen:
                raise InputError(f"repeated point {p} in {text!r}")
            seen.add(p)
        for i, p in enumerate(pts):
            images[p - 1] = pts[(i + 1) % len(pts)]
    return tuple(images)


def format_permutation(sigma):
    n = len(sigma)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start] or sigma[start - 1] == start:
            continue
        cyc = [start]
        seen[start] = True
        nxt = sigma[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = sigma[nxt - 1]
        cycles.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "()"


def act_on_subset(sigma, mask: int) -> int:
    out = 0
    m = mask
    while m:
        bit = m & -m
        out |= 1 << (sigma[bit.bit_length() - 1] - 1)
        m ^= bit
    return out


def action_table(sigma, g: GroundSet):
    """sigma acting on every mask, as a list indexed by mask."""
    table = [0]
    for i in range(g.n):   # mask m + 2^i, m < 2^i, maps to the image of m plus sigma(i+1)
        table += [t | 1 << (sigma[i] - 1) for t in table]
    return table


class PermGroup:
    """A permutation group on the points of g, given by its generators.

    `elements` (sorted) and `order` are computed on first read, by
    close_generators with DEFAULT_CLOSURE_CAP, so they raise BudgetExceeded
    for a group larger than the cap; orbit_partition reads only the
    generators and never closes the group.  close_generators and
    partition_stabilizer, which hold every element already, pass them in.
    Immutable; two groups are equal when g and the generators are.
    """

    __slots__ = ("g", "generators", "_elements")

    def __init__(self, g: GroundSet, generators: tuple, _elements: tuple = None):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_elements", _elements)

    def __setattr__(self, *a):
        raise AttributeError("PermGroup is immutable")

    def __eq__(self, other):
        return (isinstance(other, PermGroup) and self.g == other.g
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.g, self.generators))

    @property
    def elements(self):
        if self._elements is None:
            closed = close_generators(self.g, self.generators, DEFAULT_CLOSURE_CAP)
            object.__setattr__(self, "_elements", closed.elements)
        return self._elements

    @property
    def order(self):
        return len(self.elements)


def close_generators(g: GroundSet, gens, cap=DEFAULT_CLOSURE_CAP) -> PermGroup:
    """Breadth-first closure under composition; raises BudgetExceeded past cap."""
    if cap < 1:
        raise InputError("closure cap must be positive")
    gens = tuple(tuple(s) for s in gens)
    for s in gens:
        if sorted(s) != list(range(1, g.n + 1)):
            raise InputError(f"not a permutation of 1..{g.n}: {s}")
    els = {identity_perm(g.n)}
    frontier = [identity_perm(g.n)]
    while frontier:
        new = []
        for a in frontier:
            for s in gens:
                c = compose(s, a)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > cap:
                        raise BudgetExceeded(
                            f"group closure exceeded cap {cap} (partial size {len(els)})")
        frontier = new
    return PermGroup(g, gens, tuple(sorted(els)))


def _sims_filter(gens):
    """A generating set of the group <gens>, of at most min(len(gens),
    n(n-1)/2) members (Sims' filter; Seress, Permutation Group Algorithms,
    2003).  Each permutation sigma is sifted through a table keyed by
    (i, sigma(i)), i its first moved point: an empty slot keeps sigma; a
    filled one, holding t, replaces sigma by t^-1 . sigma, which fixes
    1..i, and the sift goes on.  A permutation that sifts to the identity
    is dropped.  Each kept member is a product of the kept ones before it
    and the input, and each input one of the kept members, so both sets
    generate the same group.

    The sift runs on bytes (points 1..n < 256): sigma's first moved point
    is the lowest nonzero byte of sigma XOR the identity, read as ints,
    and t^-1 . sigma is sigma.translate(table of t^-1).  Kept members are
    returned as tuples."""
    inverses = {}   # 256 * i + t(i) -> the bytes.translate table of t^-1
    kept = []
    # gens all act on one ground set 1..n; the identity as a little-endian int
    one = int.from_bytes(bytes(range(1, len(gens[0]) + 1)), "little") if gens else 0
    from_bytes, get = int.from_bytes, inverses.get   # bound once: 40 320 sifts at n = 8
    for sigma in gens:
        s = bytes(sigma)
        while moved := from_bytes(s, "little") ^ one:
            i = ((moved & -moved).bit_length() - 1) >> 3
            slot = i << 8 | s[i]
            table = get(slot)
            if table is None:
                inv = bytearray(range(256))
                for x, y in enumerate(s, 1):
                    inv[y] = x
                inverses[slot] = bytes(inv)
                kept.append(tuple(s))
                break
            s = s.translate(table)
    return kept


def orbit_partition(group: PermGroup) -> Partition:
    """The partition of all 2^n masks into group orbits: union-find over
    the edges m -> sigma(m) of each generator that _sims_filter keeps, so
    linear in 2^n per kept generator, of which there are at most
    n(n-1)/2 however many the group was given by."""
    g = group.g
    if g.n > 16:
        raise InputError("orbit partition on the powerset requires n <= 16")
    parent = list(range(g.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sigma in _sims_filter(group.generators):
        table = action_table(sigma, g)
        for m in range(g.size):
            a, b = find(m), find(table[m])
            if a != b:
                parent[a] = b
    orbits = {}
    for m in range(g.size):
        orbits.setdefault(find(m), []).append(m)
    return Partition.from_blocks(g, list(orbits.values()))


def partition_stabilizer(p: Partition) -> PermGroup:
    """Every permutation that maps each block of p into itself setwise,
    sorted, as both the generators and the elements of the group.

    The search runs over the base 1..n, from the deepest point up.  For
    base point b, G_b is the subgroup of the stabilizer that fixes
    1..b-1.  For each image c of b not yet in the orbit of b under the
    strong generators found so far (those of points b..n), one element
    that fixes 1..b-1 and sends b to c is sought by backtracking over the
    images of b+1..n; a partial assignment is kept only if every
    subset of the assigned points lands in its own block.  The first
    leaf found, if any, is a new strong generator, and the orbit grows
    by Schreier's rule.  An image already in the orbit is skipped
    unsearched: its coset of G_(b+1) has a representative.  The subtrees
    searched are disjoint parts of the tree of all leaves, so the search
    never visits more of it than listing every leaf would.  Each orbit
    comes with a transversal (u_c maps b to c), G_b is the disjoint
    union of the cosets u_c G_(b+1), and so every element is one product
    u_1 u_2 ... u_n.  See Leon, J. Symbolic Comput. 12 (1991), and
    Seress, Permutation Group Algorithms (2003).
    """
    g = p.g
    if g.n > 8:
        raise InputError("partition stabilizer search requires n <= 8")
    n = g.n
    block_of = p.block_of
    identity = identity_perm(n)
    images = list(identity)
    # image of each submask of the assigned points; the points before the
    # base point in hand are fixed, so their submasks keep the identity entries
    image_mask = list(range(g.size))
    used = [False] * (n + 1)

    def place(t, img):
        """Send point t+1 to img, if every subset of 1..t+1 that holds
        t+1 then lands in its own block."""
        new_bit, img_bit = 1 << t, 1 << (img - 1)
        for sub in range(new_bit):
            im = image_mask[sub] | img_bit
            if block_of[sub | new_bit] != block_of[im]:
                return False
            image_mask[sub | new_bit] = im
        images[t] = img
        return True

    def extend(t):
        """Whether the images of points 1..t extend to a stabilizer element."""
        if t == n:
            return True
        for img in range(1, n + 1):
            if not used[img] and place(t, img):
                used[img] = True
                found = extend(t + 1)
                used[img] = False
                if found:
                    return True
        return False

    # on reaching a base point, strong generates G_(point+1) and elements lists it
    strong = []
    elements = [identity]
    order = 1
    for t in reversed(range(n)):
        point = t + 1
        for x in range(1, n + 1):
            used[x] = x < point
        transversal = {point: identity}
        for c in range(point + 1, n + 1):
            if c in transversal or not place(t, c):
                continue
            used[c] = True
            found = extend(t + 1)
            used[c] = False
            if not found:
                continue
            strong.append(tuple(images))
            frontier = list(transversal.items())
            while frontier:
                x, u = frontier.pop()
                for s in strong:
                    y = s[x - 1]
                    if y not in transversal:
                        transversal[y] = compose(s, u)
                        frontier.append((y, transversal[y]))
        order *= len(transversal)
        elements = [compose(u, h) for u in transversal.values() for h in elements]
    elements.sort()
    if len(elements) != order or any(a == b for a, b in pairwise(elements)):
        raise VerificationFailure(
            f"stabilizer search gave {len(elements)} elements, not {order} distinct ones")
    elements = tuple(elements)
    return PermGroup(g, elements, elements)


def parse_group_text(text: str) -> PermGroup:
    """Group file: line 1 'n <int>', then one generator per nonempty line
    in cycle notation; '#' starts a comment line.  Every generator is
    checked here; the group's elements are computed only when read."""
    g, body = parse_header(text, "group")
    gens = []
    for lineno, line in body:
        try:
            gens.append(parse_permutation(line, g))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return PermGroup(g, tuple(gens))


def format_group(group: PermGroup) -> str:
    lines = [f"n {group.g.n}"]
    lines.extend(format_permutation(s) for s in group.generators)
    return "\n".join(lines)
