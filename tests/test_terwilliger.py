import sys
from math import comb, factorial

import pytest

import goa.operators as operators
import goa.terwilliger as terwilliger
from goa.errors import InputError
from goa.linalg import identity_matrix, mat_mul, rank
from goa.operators import LinearOperator, admissible_triples, derivation, e_klr
from goa.poly import P, Poly
from goa.subsets import GroundSet, enumerate_by_size
from goa.terwilliger import GenerationReport, verify_terwilliger_generation


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generation_reconstructs_everything(n):
    rep = verify_terwilliger_generation(GroundSet(n))
    assert rep.ok, rep.first_failure
    assert rep.dim_reconstructed == comb(n + 3, 3)


def test_dimension_formula_matches_triple_count():
    for n in range(1, 9):
        assert len(admissible_triples(GroundSet(n))) == comb(n + 3, 3)


def test_small_case_has_ten_operators():
    rep = verify_terwilliger_generation(GroundSet(2))
    assert rep.dim_reconstructed == 10 == comb(5, 3)


def test_zero_operator_confirmed_at_n5():
    rep = verify_terwilliger_generation(GroundSet(5))
    names = [name for name, ok, _ in rep.checks if ok]
    assert "E[3,3,0] = 0 (k > n/2)" in names


def test_scalar_note_present():
    rep = verify_terwilliger_generation(GroundSet(3))
    assert any("scalar factors" in note for note in rep.notes)


def test_rejects_large_ground_set():
    with pytest.raises(InputError):
        verify_terwilliger_generation(GroundSet(9))


def test_generation_check_catches_one_wrong_derivation_entry(monkeypatch):
    def perturbed(p):
        out = list(derivation(p).coeffs)
        out[0b0001] += p.coeffs[0b0011]   # one extra entry: p_{1 2} -> p_{1}
        return Poly(p.g, P, out)

    monkeypatch.setattr(terwilliger, "derivation", perturbed)
    assert not verify_terwilliger_generation(GroundSet(4)).ok


# -- the level-block generation check, kept as the oracle of the per-orbit one

def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_is_zero(a):
    return all(x == 0 for row in a for x in row)


def level_block(op, g, levels, k, l):
    """Matrix of op from level k to level l: column j is the image of the
    j-th level-k basis vector, read at the level-l masks."""
    cols = [op(Poly.term(g, a)).coeffs for a in levels[k]]
    return [[col[b] for col in cols] for b in levels[l]]


def div_exact(m, d):
    """Entrywise integer division; None if any entry is not divisible."""
    out = []
    for row in m:
        r = []
        for x in row:
            q, rem = divmod(x, d)
            if rem:
                return None
            r.append(q)
        out.append(r)
    return out


class Chains:
    """Cached level-restricted blocks of derivation powers and complementation."""

    def __init__(self, g):
        self.g = g
        self.n = g.n
        self.levels = [enumerate_by_size(g, k) for k in range(g.n + 1)]
        self._dpow = {}
        self._comp = {}

    def dpow(self, j, k):
        """Block of derivation^j at input level k, or None when it underflows."""
        if j > k:
            return None
        key = (j, k)
        if key not in self._dpow:
            if j == 0:
                self._dpow[key] = identity_matrix(len(self.levels[k]))
            elif j == 1:
                self._dpow[key] = level_block(derivation, self.g, self.levels, k, k - 1)
            else:
                self._dpow[key] = mat_mul(self.dpow(j - 1, k - 1), self.dpow(1, k))
        return self._dpow[key]

    def comp_rows(self, k, m):
        """Left-compose with complementation: permute rows from level k to level n-k."""
        if k not in self._comp:
            full = (1 << self.n) - 1
            idx = {m: i for i, m in enumerate(self.levels[self.n - k])}
            self._comp[k] = [idx[a ^ full] for a in self.levels[k]]
        perm = self._comp[k]
        out = [None] * len(m)
        for i, row in enumerate(m):
            out[perm[i]] = row
        return out

    def bascom_block(self, u, v, r):
        """Level-u block of  comp . d^(v-r) . comp . d^(u-r)."""
        m = self.dpow(u - r, u)              # level u -> r
        m = self.comp_rows(r, m)             # -> n-r
        m = mat_mul(self.dpow(v - r, self.n - r), m)  # -> n-v
        return self.comp_rows(self.n - v, m)  # -> v


def level_block_generation(g):
    """verify_terwilliger_generation as it ran before the per-orbit
    reduction: every E[k,l,r] rebuilt as a level-block matrix from
    derivation blocks, divided by its scalars and compared entry by entry
    with the level block of e_klr.  It reads derivation and e_klr through
    this module's names, so a fault patched here and in goa.terwilliger
    reaches both routes."""
    n = g.n
    ch = Chains(g)
    levels = ch.levels
    rep = GenerationReport(n=n)
    built = {}
    ref_cache = {}

    def ref(k, l, r):
        if (k, l, r) not in ref_cache:
            ref_cache[(k, l, r)] = level_block(e_klr(g, k, l, r), g, levels, k, l)
        return ref_cache[(k, l, r)]

    def record(k, l, r, matrix, via):
        ok = matrix == ref(k, l, r)
        rep.add(f"E[{k},{l},{r}] via {via}", ok,
                "" if ok else f"first failing triple ({k},{l},{r})")
        built[(k, l, r)] = matrix
        return ok

    # Level-0 seeds: d^(n-l) . comp . d^n . comp  =  n!(n-l)! E[0,l,0]
    for l in range(n + 1):
        m = ch.comp_rows(0, ch.dpow(0, 0))          # level 0 -> n
        m = mat_mul(ch.dpow(n, n), m)               # -> 0
        m = ch.comp_rows(0, m)                      # -> n
        m = mat_mul(ch.dpow(n - l, n), m)           # -> l
        scaled = div_exact(m, factorial(n) * factorial(n - l))
        if scaled is None:
            rep.add(f"E[0,{l},0] via seed chain", False, "scalar n!(n-l)! not exact")
            return rep
        record(0, l, 0, scaled, "seed chain / n!(n-l)!")

    # E[l,0,0] = (E[0,0,0] . d^l) / l!
    for l in range(n + 1):
        m = mat_mul(built[(0, 0, 0)], ch.dpow(l, l))
        scaled = div_exact(m, factorial(l))
        if scaled is None:
            rep.add(f"E[{l},0,0] via projected d^{l}", False, "scalar l! not exact")
            return rep
        record(l, 0, 0, scaled, "projected derivation power / l!")

    derivcomp_scalars_seen = set()
    for k in range(1, n + 1):
        # E[k,k,0]: extracted from d^(n-2k) . comp when 2k <= n, zero above
        if 2 * k <= n:
            blk = mat_mul(ch.dpow(n - 2 * k, n - k), ch.comp_rows(k, ch.dpow(0, k)))
            scaled = div_exact(blk, factorial(n - 2 * k))
            if scaled is None:
                rep.add(f"E[{k},{k},0] via disjointness chain", False, "(n-2k)! not exact")
                return rep
            record(k, k, 0, scaled, "disjointness chain / (n-2k)!")
            # the same chain at other input levels must match operators already built
            for u in range(0, 2 * k + 1):
                if u == k or (u, 2 * k - u, 0) not in built:
                    continue
                other = mat_mul(ch.dpow(n - 2 * k, n - u), ch.comp_rows(u, ch.dpow(0, u)))
                ok = other == mat_scale(built[(u, 2 * k - u, 0)], factorial(n - 2 * k))
                rep.add(f"disjointness chain level {u} matches E[{u},{2 * k - u},0]", ok)
        else:
            zero = [[0] * len(levels[k]) for _ in levels[k]]
            ok = mat_is_zero(ref(k, k, 0))
            rep.add(f"E[{k},{k},0] = 0 (k > n/2)", ok)
            built[(k, k, 0)] = zero

        # derivation recursion: E[k-1,k,t] . d = (k-t) E[k,k,t] + (t+1) E[k,k,t+1]
        d_k = ch.dpow(1, k)
        for t in range(k):
            lhs = mat_mul(built[(k - 1, k, t)], d_k)
            nxt = div_exact(mat_sub(lhs, mat_scale(built[(k, k, t)], k - t)), t + 1)
            if nxt is None:
                rep.add(f"E[{k},{k},{t + 1}] via derivation recursion", False,
                        f"first failing triple ({k},{k},{t + 1}): scalars (k-t),(t+1) not exact")
                return rep
            derivcomp_scalars_seen.add((k - t, t + 1))
            record(k, k, t + 1, nxt, "derivation recursion")

        # alternating identity for id_k when k > n/2 (factorially weighted),
        # times k!: sum_t k! w_t E[k-1,k,t] . d = k! id_k
        if 2 * k > n:
            s = len(levels[k])
            acc = [[0] * s for _ in range(s)]
            for t in range(k):
                w = (-1) ** (k - 1 - t) * factorial(k - 1 - t) * factorial(t)
                term = mat_mul(built[(k - 1, k, t)], d_k)
                acc = [[a + w * x for a, x in zip(ra, rt)] for ra, rt in zip(acc, term)]
            ok = acc == mat_scale(ref(k, k, k), factorial(k))
            rep.add(f"weighted alternating sum = id_{k} (k > n/2)", ok)

        # triangular systems for every pair (u,v) with min(u,v) = k
        pairs = [(k, v) for v in range(k, n + 1)] + [(u, k) for u in range(k + 1, n + 1)]
        for u, v in pairs:
            solved = {}
            for r in range(min(u, v), -1, -1):
                t_r = ch.bascom_block(u, v, r)
                t_hat = div_exact(t_r, factorial(u - r) * factorial(v - r))
                if t_hat is None:
                    rep.add(f"E[{u},{v},{r}] via triangular system", False,
                            f"first failing triple ({u},{v},{r}): (u-r)!(v-r)! not exact")
                    return rep
                acc = t_hat
                for w in range(r + 1, min(u, v) + 1):
                    acc = mat_sub(acc, mat_scale(solved[w], comb(w, r)))
                solved[r] = acc
                if u + v - r <= n:
                    record(u, v, r, acc, "triangular system")
                else:
                    ok = mat_is_zero(acc)
                    rep.add(f"E[{u},{v},{r}] inadmissible, comes out zero", ok,
                            "" if ok else f"first failing triple ({u},{v},{r})")
                    built[(u, v, r)] = acc

    rep.notes.append("derivation recursion holds with scalar factors "
                     + ", ".join(f"(k-t)={a},(t+1)={b}" for a, b in sorted(derivcomp_scalars_seen)[:3])
                     + ", ... ; the unscaled form fails the exact check")

    # dimension of the span: admissible triples reconstructed
    admissible = [(k, l, r) for (k, l, r) in built
                  if r <= k and r <= l and k + l - r <= n]
    rep.dim_reconstructed = len(set(admissible))

    # injectivity / surjectivity
    for r in range((n + 1) // 2):   # r < n/2
        rep.add(f"E[{r},{r + 1},{r}] injective", rank(ref(r, r + 1, r)) == comb(n, r))
        rep.add(f"E[{r + 1},{r},{r}] surjective", rank(ref(r + 1, r, r)) == comb(n, r))
    return rep


def report(rep):
    return rep.checks, rep.notes, rep.dim_reconstructed


@pytest.mark.parametrize("n", range(1, 8))
def test_per_orbit_generation_matches_the_level_block_oracle(n):
    g = GroundSet(n)
    assert report(verify_terwilliger_generation(g)) == report(level_block_generation(g))


def doubled_e221(g, k, l, r):
    """E[2,2,1] times two: still S_n-equivariant, but not the operator."""
    op = operators.e_klr(g, k, l, r)
    if (k, l, r) != (2, 2, 1):
        return op
    return LinearOperator(g, lambda p: op(p).scale(2))


def test_both_routes_catch_a_doubled_operator(monkeypatch):
    for module in (terwilliger, sys.modules[__name__]):
        monkeypatch.setattr(module, "e_klr", doubled_e221)
    g = GroundSet(4)
    assert not verify_terwilliger_generation(g).ok
    assert not level_block_generation(g).ok
