"""Vertex-deletion decks of all small graphs and digraphs.

The ground set is the edge set (unordered pairs for graphs, ordered
pairs for digraphs) of a complete (di)graph on f vertices; a (di)graph
is an edge-subset mask.  The isomorphism classes are the orbits of
S_f, lifted to edge indices, on the edge masks (perms.orbit_partition);
hypomorphy classes group equal multisets of vertex-deleted decks.
"""

from goa.errors import InputError, VerificationFailure
from goa.perms import PermGroup, orbit_partition
from goa.subsets import GroundSet, downward_counts, unpack


def edge_table(f: int, directed: bool):
    if directed:
        return [(i, j) for i in range(1, f + 1) for j in range(1, f + 1) if i != j]
    return [(i, j) for i in range(1, f + 1) for j in range(i + 1, f + 1)]


class EdgeWorld:
    """Precomputed action of the vertex group on edge masks: the
    isomorphism classes, and their downward_counts table, which gives the
    number of subgraphs of each class inside every edge mask."""

    def __init__(self, f: int, directed: bool):
        if directed and f not in (3, 4):
            raise InputError("digraph decks are supported for f in {3, 4}")
        if not directed and not 3 <= f <= 5:
            raise InputError("graph decks are supported for f in {3, 4, 5}")
        self.f = f
        self.directed = directed
        self.edges = edge_table(f, directed)
        self.n = len(self.edges)
        self.incident = [0] * (f + 1)
        for idx, (i, j) in enumerate(self.edges):
            self.incident[i] |= 1 << idx
            self.incident[j] |= 1 << idx
        # S_f is generated by (1,2) and (1,...,f); lift each to a
        # permutation of the 1-based edge indices.
        index = {e: k for k, e in enumerate(self.edges, 1)}

        def lift(sigma):
            pairs = ((sigma[i - 1], sigma[j - 1]) for i, j in self.edges)
            return tuple(index[(a, b) if directed or a < b else (b, a)] for a, b in pairs)

        swap = (2, 1) + tuple(range(3, f + 1))
        rotate = tuple(range(2, f + 1)) + (1,)
        classes = orbit_partition(PermGroup(GroundSet(self.n), (lift(swap), lift(rotate))))
        self.reps = [block[0] for block in classes.blocks]
        # canon[m]: the least edge mask isomorphic to m
        self.canon = [self.reps[b] for b in classes.block_of]
        self.table, self.code = downward_counts(classes.blocks, self.n)

    def delete_vertex(self, mask, v):
        return mask & ~self.incident[v]

    def deck(self, mask):
        """Multiset (sorted tuple) of iso classes of the vertex-deleted subgraphs."""
        return tuple(sorted(self.canon[self.delete_vertex(mask, v)]
                            for v in range(1, self.f + 1)))

    def isolated_vertices(self, mask):
        return sum(1 for v in range(1, self.f + 1) if not mask & self.incident[v])

    def subtype_counts(self, mask):
        """Counts of contained edge-subsets by iso class (its least member)."""
        counts = unpack(self.table[mask], self.code, len(self.reps))
        return {rep: c for rep, c in zip(self.reps, counts) if c}

    def format_mask(self, mask):
        arrow = "->" if self.directed else "-"
        parts = [f"{i}{arrow}{j}" for idx, (i, j) in enumerate(self.edges)
                 if mask & (1 << idx)]
        return "{" + ", ".join(parts) + "}" if parts else "{}"


class HypomorphyReport:
    """The search on f vertices.  nontrivial lists, per deck with more
    than one class, its canonical forms; witness is (G, H, subtype,
    count_G, count_H)."""

    __slots__ = ("f", "directed", "n_edges", "total", "iso_classes", "nontrivial",
                 "witness", "world")

    def __init__(self, f: int, directed: bool, n_edges: int, total: int, iso_classes: int,
                 nontrivial: list = None, witness: tuple = None, world: EdgeWorld = None):
        self.f = f
        self.directed = directed
        self.n_edges = n_edges
        self.total = total
        self.iso_classes = iso_classes
        self.nontrivial = [] if nontrivial is None else nontrivial
        self.witness = witness
        self.world = world

    @property
    def has_nontrivial(self):
        return bool(self.nontrivial)

    def lines(self):
        kind = "digraphs" if self.directed else "graphs"
        w = self.world
        out = [
            f"vertices: {self.f}",
            f"edge-ground-set: {', '.join(f'{i}:{e}' for i, e in enumerate(w.edges, 1))}",
            f"{kind}: {self.total}",
            f"isomorphism-classes: {self.iso_classes}",
            f"hypomorphic-nonisomorphic-families: {len(self.nontrivial)}",
        ]
        for reps in self.nontrivial[:4]:
            out.append("family: " + " | ".join(w.format_mask(r) for r in reps))
        if self.witness:
            g_rep, h_rep, sub, cg, ch = self.witness
            out.append(f"witness pair: {w.format_mask(g_rep)} vs {w.format_mask(h_rep)}")
            out.append(f"witness subtype: {w.format_mask(sub)} "
                       f"counts {cg} vs {ch}")
        return out


def hypomorphy_search(f: int, directed: bool) -> HypomorphyReport:
    """Group all (di)graphs on f vertices into hypomorphy classes and list
    the classes that contain more than one isomorphism class.  For
    directed f=4 a subtype-count witness is attached: a digraph type
    whose containment count differs inside a hypomorphic pair."""
    world = EdgeWorld(f, directed)
    decks = {}
    for mask in range(1 << world.n):
        decks.setdefault(world.deck(mask), set()).add(world.canon[mask])
    nontrivial = [sorted(classes) for classes in decks.values() if len(classes) > 1]
    nontrivial.sort()
    witness = None
    if nontrivial:
        g_rep, h_rep = nontrivial[0][0], nontrivial[0][1]
        cg, ch = world.subtype_counts(g_rep), world.subtype_counts(h_rep)
        for sub in sorted(set(cg) | set(ch), key=lambda s: (bin(s).count("1"), s)):
            if cg.get(sub, 0) != ch.get(sub, 0):
                witness = (g_rep, h_rep, sub, cg.get(sub, 0), ch.get(sub, 0))
                break
    return HypomorphyReport(
        f=f, directed=directed, n_edges=world.n, total=1 << world.n,
        iso_classes=len(set(world.canon)), nontrivial=nontrivial,
        witness=witness, world=world,
    )


def graph_kelly_check(f: int) -> bool:
    """Exhaustive single-vertex-deletion counting identity on graphs:
    for every type F with an isolated vertex and every graph G,
    iv(F) * copies(F, G) = sum over v of copies(F, G - v)."""
    world = EdgeWorld(f, directed=False)
    counts = [world.subtype_counts(mask) for mask in range(1 << world.n)]
    types = sorted(set(world.canon))
    for t in types:
        iv = world.isolated_vertices(t)
        if iv == 0:
            continue
        for mask in range(1 << world.n):
            lhs = iv * counts[mask].get(t, 0)
            rhs = sum(counts[world.delete_vertex(mask, v)].get(t, 0)
                      for v in range(1, f + 1))
            if lhs != rhs:
                raise VerificationFailure(
                    f"deletion identity fails for type {world.format_mask(t)} "
                    f"on graph {world.format_mask(mask)}: {lhs} != {rhs}")
    return True
