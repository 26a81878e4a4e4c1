"""Permutation groups on the ground set: cycle-notation parsing, closure
from generators, the lifted action on subset masks, orbit partitions of
the powerset, and setwise stabilizers of powerset partitions.
"""

import re
from dataclasses import dataclass

from goa.errors import BudgetExceeded, InputError
from goa.partition import Partition
from goa.subsets import GroundSet

DEFAULT_CLOSURE_CAP = 10 ** 6

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def identity_perm(n):
    return tuple(range(1, n + 1))


def compose(a, b):
    """a after b: (a.b)(x) = a(b(x))."""
    return tuple(a[x - 1] for x in b)


def invert(a):
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img - 1] = i + 1
    return tuple(out)


def parse_permutation(text: str, g: GroundSet):
    """Disjoint cycle notation, e.g. '(1,2)(3,4)'; '()' is the identity;
    fixed points may be omitted."""
    stripped = text.strip()
    if not stripped:
        raise InputError("empty permutation")
    body = stripped.replace(" ", "")
    if _CYCLE_RE.sub("", body) != "":
        raise InputError(f"malformed cycle notation: {text!r}")
    images = list(identity_perm(g.n))
    seen = set()
    for cycle_text in _CYCLE_RE.findall(body):
        if not cycle_text:
            continue
        try:
            pts = [int(tok) for tok in cycle_text.split(",")]
        except ValueError:
            raise InputError(f"bad cycle {cycle_text!r} in {text!r}") from None
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
    bit_image = [1 << (sigma[i] - 1) for i in range(g.n)]
    table = [0] * g.size
    for m in range(1, g.size):
        low = m & -m
        table[m] = table[m ^ low] | bit_image[low.bit_length() - 1]
    return table


@dataclass(frozen=True)
class PermGroup:
    g: GroundSet
    generators: tuple
    elements: tuple

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


def orbit_partition(group: PermGroup) -> Partition:
    """The partition of all 2^n masks into group orbits (union-find over
    generator edges; linear in 2^n per generator)."""
    g = group.g
    if g.n > 16:
        raise InputError("orbit partition on the powerset requires n <= 16")
    parent = list(range(g.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sigma in (group.generators or group.elements):
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
    """All permutations mapping every block of p into itself setwise.

    Backtracking over point images; a partial assignment of 1..t is kept
    only if every subset of the assigned points lands in its own block.
    """
    g = p.g
    if g.n > 8:
        raise InputError("partition stabilizer search requires n <= 8")
    n = g.n
    block_of = p.block_of
    images = [0] * n
    image_mask = [0] * g.size  # image of each submask of the assigned prefix
    used = [False] * (n + 1)
    found = []

    def extend(t):
        if t == n:
            found.append(tuple(images))
            return
        new_bit = 1 << t
        for img in range(1, n + 1):
            if used[img]:
                continue
            img_bit = 1 << (img - 1)
            ok = True
            for sub in range(new_bit):
                im = image_mask[sub] | img_bit
                if block_of[sub | new_bit] != block_of[im]:
                    ok = False
                    break
                image_mask[sub | new_bit] = im
            if ok:
                images[t] = img
                used[img] = True
                extend(t + 1)
                used[img] = False
        return

    extend(0)
    elements = tuple(sorted(found))
    return PermGroup(g, elements, elements)


def parse_group_text(text: str) -> PermGroup:
    """Group file: line 1 'n <int>', then one generator per nonempty line
    in cycle notation; '#' starts a comment line."""
    lines = text.splitlines()
    header = None
    gens = []
    g = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            m = re.fullmatch(r"n\s+(\d+)", line)
            if not m:
                raise InputError(f"line {lineno}: expected 'n <int>' header, got {line!r}")
            header = int(m.group(1))
            try:
                g = GroundSet(header)
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
            continue
        try:
            gens.append(parse_permutation(line, g))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if g is None:
        raise InputError("group file has no 'n <int>' header")
    return close_generators(g, gens)


def format_group(group: PermGroup) -> str:
    lines = [f"n {group.g.n}"]
    lines.extend(format_permutation(s) for s in group.generators)
    return "\n".join(lines)
