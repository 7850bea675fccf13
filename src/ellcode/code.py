"""Linear codes over GF(q): duals, hulls, distances, scalings, MDS certifier.

Generator matrices are kept in reduced row-echelon form, so code equality
is literal matrix equality and certificates are canonical.  A code
C_L(D, G) is MDS exactly when no k-subset of the evaluation points has
group sum sum(G).  The MDS certifier asks only whether sum(G) is
reachable, by dynamic programming over (prefix, subset size) with every
size's reachable group elements packed in one int, and answers 0 or 1; it
first asks in the 2-primary quotient, where the paper's parity settles it.
It reads the points as (x, y) encodings, keys of the group's dlog table.

Scaled hulls dim(u.C n (u.C)-perp) = dim(u^2.C n C-perp) are ranks against
the dual.  An iso-dual code carries its dual as the scaling v with
C-perp = C.v (`_carry_dual`), and the hull routes read A' and the dual's
displacement factors from v: the matrix of C.v is built only when `dual`
is read.  Where v is carried and G = [I | A] with n = 2k, as for MDS
[2k, k] codes, `stacked_hull_dim` ranks the k x k M = A' - W1^-1 A W2 (on
bytes in characteristic 2).  A code made from `funcspace.systematic_rows`
also carries its nodes (the x's of the evaluation points) and the
closed-form factors of its rank-2 R = D_alpha A - A D_x; in odd
characteristic from k = `_DISPLACEMENT_MIN_K` on it ranks M from
displacement generators: A and A' are Cauchy-like in the nodes, so
`linalg.cauchy_like_rank` takes O(k^2).  A code without v ranks
G diag(w) stacked on its dual from the kernel.  `scale` writes the RREF of
G diag(w) directly, with no elimination, and carries v as v w^-2, R's
factors as (W1^-1 P, Q W2) and a dual from a kernel as w^-1.C-perp.

The second, independent distance check (`min_distance`, the certificates'
"exhaustive" method) enumerates one codeword per scalar class: lambda.c has
the weight of c, so the (q^k - 1)/(q - 1) messages whose highest nonzero
digit is 1 give every nonzero weight.  It runs only while q^k is within
`BRUTE_FORCE_BUDGET`.
"""

from __future__ import annotations

from operator import xor
from typing import Iterable, Optional, Sequence

from . import linalg
from .gf import FieldElement, FieldSpec
from .curve import CurveError, GroupStructure


BRUTE_FORCE_BUDGET = 2 ** 24
"""Largest q^k that `min_distance`, `weight_distribution` and `codewords`
enumerate."""


_DISPLACEMENT_MIN_K = 22
"""Smallest k that ranks scaled hulls from displacement generators.  On
[2k, k] curve codes over GF(289), per scaling, the generator route took
0.97-0.99 of the dense k x k rank's time at k = 22, 1.03-1.07 at k = 20,
1.12-1.13 at k = 18, 0.92-0.94 at k = 24 and 0.61-0.62 at k = 40
(`stacked_hull_dim`, min and median of 200 calls)."""


class CodeError(ValueError):
    """Invalid code data or an out-of-budget exact computation."""


class ScalingVector:
    """A coordinatewise multiplier with every entry invertible."""

    __slots__ = ("spec", "entries")

    def __init__(self, spec: FieldSpec, entries: Iterable[int | FieldElement]):
        encs = tuple(entries)
        # nonzero int encodings pass in one C-level pass; any other entry
        # goes through `spec.element`, which raises `FieldError`
        if not (set(map(type, encs)) <= {int}
                and 0 < min(encs, default=1) and max(encs, default=0) < spec.q):
            encs = tuple(spec.element(e).enc for e in encs)
            if 0 in encs:
                raise CodeError("scaling vector entries must be nonzero")
        self.spec = spec
        self.entries = encs

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"ScalingVector({list(self.entries)})"


def _rescale(spec: FieldSpec, rows: Sequence[Sequence[int]],
             row_w: Sequence[int], col_w: Sequence[int]):
    """D_r X D_c for the matrix X of `rows`, r = row_w and c = col_w nonzero:
    rows of encodings, or in characteristic 2 one bytes, row by row."""
    if spec.p == 2:
        # column j of X is the strided slice x[j::n]; the joined scaled
        # columns hold row i at [i::k]
        mulb, n, k = spec._mulb, len(col_w), len(row_w)
        x = b"".join(map(bytes, rows))
        cols = b"".join(x[j::n].translate(mulb[e]) for j, e in enumerate(col_w))
        return b"".join(cols[i::k].translate(mulb[e]) for i, e in enumerate(row_w))
    zexp, log = spec._zexp, spec._log
    return [[zexp[log[x] + lc] for x in row]
            for row, lc in zip(linalg.scale_columns(rows, col_w, spec),
                               map(log.__getitem__, row_w))]


def _scaled_factors(spec: FieldSpec, factors: tuple, row_w: Sequence[int],
                    col_w: Sequence[int]) -> tuple:
    """(D_r P, Q D_c) for R = P Q, r = row_w and c = col_w nonzero: the
    factors of D_r R D_c, with P given by its columns and Q by its rows."""
    p_cols, q_rows = factors
    return (linalg.scale_columns(p_cols, row_w, spec),
            linalg.scale_columns(q_rows, col_w, spec))


class LinearCode:
    """[n, k] code over GF(q), stored as an RREF generator matrix.

    k = 0 (zero code) and k = n (full space) are representable so `dual`
    is total.  Rows may be given as encodings or FieldElements; any
    spanning set is accepted and reduced; [I | A] is kept as given.
    """

    __slots__ = ("spec", "n", "k", "matrix", "nodes", "_dual", "_dual_v",
                 "_r_factors", "_factors", "_halves")

    def __init__(self, spec: FieldSpec,
                 rows: Sequence[Sequence[int | FieldElement]],
                 n: Optional[int] = None):
        # a row of in-range int encodings passes in one C-level pass
        q, element = spec.q, spec.element
        enc_rows = [row if set(map(type, row)) <= {int}
                    and 0 <= min(row, default=0) and max(row, default=0) < q
                    else [element(v).enc for v in row] for row in map(list, rows)]
        widths = {len(r) for r in enc_rows}
        if len(widths) > 1:
            raise CodeError("ragged generator matrix")
        if enc_rows:
            width = widths.pop()
            if n is not None and n != width:
                raise CodeError(f"stated length {n} != row width {width}")
            n = width
        elif n is None:
            raise CodeError("empty code needs an explicit length")
        k = len(enc_rows)
        if not (k <= n and all(r[i] == 1 and not any(r[:i]) and not any(r[i + 1:k])
                               for i, r in enumerate(enc_rows))):
            enc_rows, _ = linalg.rref(enc_rows, spec)
        self._set(spec, n, tuple(map(tuple, enc_rows)))

    @classmethod
    def _made(cls, spec: FieldSpec, n: int, matrix: tuple,
              nodes: Optional[tuple] = None,
              r_factors: Optional[tuple] = None) -> "LinearCode":
        """A code on an RREF the library itself produced, with none of
        `__init__`'s entry checks: `matrix` is a tuple of n-long tuples of
        encodings.  The closed form (`funcspace.systematic_rows`) gives
        G = [I | A] with n = 2k, its `nodes`, a tuple of n encodings, and
        `r_factors`, (P, Q) with P given by its two columns and Q by its
        two rows, R = D_alpha A - A D_x = P Q for the nodes alpha =
        nodes[:k] and x = nodes[k:]; `_displacement_factors` reads them."""
        out = cls.__new__(cls)
        out._set(spec, n, matrix, nodes, r_factors)
        return out

    def _set(self, spec: FieldSpec, n: int, matrix: tuple,
             nodes: Optional[tuple] = None, r_factors: Optional[tuple] = None) -> None:
        self.spec, self.n, self.k = spec, n, len(matrix)
        self.matrix, self.nodes, self._r_factors = matrix, nodes, r_factors
        self._dual = self._dual_v = self._factors = self._halves = None

    def _carry_dual(self, v: Sequence[int]) -> None:
        """Keep v, for a v the caller proved gives C.v = C-perp: `dual`
        builds C.v only when read, `_systematic_halves` reads A' from A and
        v, and `_displacement_factors` P' and Q' from P, Q and v."""
        self._dual_v = tuple(v)

    def dual(self) -> "LinearCode":
        """The [n, n-k] orthogonal code: C.v where v is carried, else via
        the kernel of the generator.  Built on first read and cached."""
        if self._dual is None:
            if self._dual_v is not None:
                self._dual = self.scale(self._dual_v)
            else:
                basis = linalg.nullspace(self.matrix, self.spec, self.n)
                self._dual = LinearCode(self.spec, basis, n=self.n)
        return self._dual

    def scale(self, v: ScalingVector | Sequence[int]) -> "LinearCode":
        """w.C for w = v, with no elimination: row i of G diag(w) over w at
        row i's pivot is its RREF, as each pivot column keeps one nonzero.
        A carried v goes over as v w^-2, since (w.C)-perp = w^-1.C-perp =
        w^-1 v.C = v w^-2.(w.C); a dual from a kernel is scaled to
        w^-1.C-perp.  R's factors go over as (W1^-1 P, Q W2), those of
        w.C = [I | W1^-1 A W2]."""
        w, spec, n, k = self._weights(v), self.spec, self.n, self.k
        inv = [spec.inv_enc(e) for e in w]
        rows = _rescale(spec, self.matrix, [inv[row.index(1)] for row in self.matrix], w)
        if spec.p == 2:
            rows = [rows[i * n:(i + 1) * n] for i in range(k)]
        factors = self._r_factors and _scaled_factors(spec, self._r_factors,
                                                      inv[:k], w[k:])
        out = LinearCode._made(spec, n, tuple(map(tuple, rows)), self.nodes, factors)
        if self._dual_v is not None:
            mul = spec.mul_enc
            out._dual_v = tuple([mul(e, mul(c, c)) for e, c in zip(self._dual_v, inv)])
        elif self._dual is not None:
            out._dual = self._dual.scale(inv)
        return out

    def _weights(self, w: ScalingVector | Sequence[int]) -> Sequence[int]:
        """The entries of a scaling or of hull weights, checked: n nonzero
        encodings of the code's field, a `ScalingVector` only over it.  It is
        the one check on the u and u^2 the library makes itself."""
        if isinstance(w, ScalingVector):
            if w.spec != self.spec:
                raise CodeError(f"scaling vector over {w.spec!r}, not {self.spec!r}")
            w = w.entries
        if len(w) != self.n:
            raise CodeError("scaling vector length mismatch")
        q = self.spec.q
        if not all(type(e) is int and 0 < e < q for e in w):
            raise CodeError(f"weights must be nonzero encodings of GF({q})")
        return w

    def hull_dim(self, gram_rank: Optional[int] = None) -> int:
        """dim(C n C-perp) = k - rank(B B^T) for the rows B of any basis of
        C, cross-checked against `stacked_hull_dim` at w = 1.  `gram_rank`
        is that rank, G G^T's when None, as for the scaled codes that
        `isodual._accept` checks; `isodual`'s construct and verify always
        pass one, from the Hankel blocks of their point moments, a route
        independent of G, and form no G G^T."""
        if gram_rank is None:
            gram_rank = linalg.rank(linalg.gram(self.matrix, self.spec), self.spec)
        h = self.k - gram_rank
        h2 = self.stacked_hull_dim()
        if h != h2:
            raise CodeError(f"hull computations disagree: {h} vs {h2}")
        return h

    def stacked_hull_dim(self, w: Optional[Sequence[int]] = None) -> int:
        """dim(w.C n C-perp) for nonzero weights w (all 1 when None); at
        w = u^2 it is the hull of u.C: x is in u.C n (u.C)-perp iff u.x is
        in w.C n C-perp.  It is n - rank of G diag(w) stacked on the dual's
        generator H, computed one of three ways; the first two read a
        carried v (`_carry_dual`) in place of H.

        Where v is carried, n = 2k and G = [I | A], H = [I | A'] too
        (`_systematic_halves`), and eliminating H's identity against
        G diag(w) leaves k - rank(M) with M = A' - W1^-1 A W2, W = diag(w)
        split at k.  With the nodes, the row nodes alpha = nodes[:k] and
        column nodes x = nodes[k:], D_alpha M - M D_x = R' - W1^-1 R W2,
        where R = D_alpha A - A D_x and R' likewise from A'.  For the
        elliptic codes R and R' have rank 2 (R = P Q in closed form,
        `funcspace.systematic_rows`), so M has displacement rank at most 4
        and `linalg.cauchy_like_rank` ranks it from generators in O(k^2):
        see `_displacement_factors` for when this route applies.  Otherwise
        `linalg.rank` ranks the k x k matrix W1 A' - A W2, of M's rank; in
        characteristic 2 it is formed on bytes, A W2 by strided column
        slices.  A code without v ranks the 2k x 2k stack.
        """
        spec, k = self.spec, self.k
        w = [1] * self.n if w is None else self._weights(w)
        factors = self._displacement_factors()
        if factors is not None:
            alpha, x, p_cols, q_rows, dual_p_cols, dual_q_rows = factors
            # generators of M: G = [P' | -W1^-1 P], H = [Q'; Q W2]; -1/e
            # has log (q - 1)/2 - log e
            q1, zexp, log = spec.q - 1, spec._zexp, spec._log
            neg_inv = [zexp[q1 + q1 // 2 - log[e]] for e in w[:k]]
            g = [*dual_p_cols, *linalg.scale_columns(p_cols, neg_inv, spec)]
            h = [*dual_q_rows, *linalg.scale_columns(q_rows, w[k:], spec)]
            return k - linalg.cauchy_like_rank(alpha, x, g, h, spec)
        halves = self._systematic_halves()
        if halves is None:
            rows = [*linalg.scale_columns(self.matrix, w, spec), *self.dual().matrix]
            return self.n - linalg.rank(rows, spec)
        a, dual_a = halves
        if spec.p == 2:
            mulb = spec._mulb
            aw = b"".join(a[j::k].translate(mulb[e]) for j, e in enumerate(w[k:]))
            rows = [(int.from_bytes(aw[i::k], "big") ^ int.from_bytes(
                dual_a[i * k:(i + 1) * k].translate(mulb[e]), "big")).to_bytes(k, "big")
                for i, e in enumerate(w[:k])]
        else:
            zexp, log, add = spec._zexp, spec._log, spec.add_enc
            aw = linalg.scale_columns(a, [spec.neg_enc(e) for e in w[k:]], spec)
            rows = [list(map(add, [zexp[log[x] + le] for x in row], r))
                    for row, r, le in zip(dual_a, aw, map(log.__getitem__, w))]
        return k - linalg.rank(rows, spec)

    def _systematic_halves(self) -> Optional[tuple]:
        """(A, A') where the code carries v, n = 2k > 0 and G = [I | A], so
        the dual C.v's H = [D_v1 | A D_v2] reduces to [I | A'] too; None for
        any other code.  Cached, like the dual.  A k-row RREF leads with I_k
        iff its last row's pivot is column k-1.  The carried v gives
        A' = D_v1^-1 A D_v2 directly, with no C.v.  In characteristic 2 each
        half is one bytes, row by row: column j of A is a[j::k]."""
        if self._halves is None:
            spec, k, v, self._halves = self.spec, self.k, self._dual_v, ()
            if v is not None and self.n == 2 * k > 0 and any(self.matrix[-1][:k]):
                a = [r[k:] for r in self.matrix]
                # bytes in characteristic 2
                dual_a = _rescale(spec, a, [spec.inv_enc(e) for e in v[:k]], v[k:])
                if spec.p == 2:
                    a = b"".join(map(bytes, a))
                self._halves = (a, dual_a)
        return self._halves or None

    def _displacement_factors(self) -> Optional[tuple]:
        """(alpha, x, P, Q, P', Q') with R = P Q and R' = P' Q' as in
        `stacked_hull_dim`, P and P' given by columns; None where the
        generator route does not apply.  Computed once and cached, like the
        dual.

        It applies in odd characteristic up to the add-table cap, with k at
        least `_DISPLACEMENT_MIN_K`, to a code that carries v and the closed
        form's nodes and factors (`_made`; `scale` carries them too), whose
        G = [I | A] has n = 2k.  The dual C.v has A' = D_v1^-1 A D_v2, so
        P' = D_v1^-1 P and Q' = Q D_v2.  The closed form's row nodes are
        disjoint from its column nodes, as `linalg.cauchy_like_rank`
        needs."""
        if self._factors is None:
            spec, k, v, self._factors = self.spec, self.k, self._dual_v, ()
            if (spec.p == 2 or spec._addt is None or self._r_factors is None
                    or v is None or k < _DISPLACEMENT_MIN_K):
                return None
            self._factors = (self.nodes[:k], self.nodes[k:], *self._r_factors,
                             *_scaled_factors(spec, self._r_factors,
                                              [spec.inv_enc(e) for e in v[:k]], v[k:]))
        return self._factors or None

    def codewords(self):
        """Every codeword once, as a tuple, by odometer enumeration of
        messages."""
        return map(tuple, self._words())

    def _words(self):
        """The words of `codewords`, as bytes in characteristic 2 and as
        lists otherwise; both count their zeros with ``.count(0)``."""
        steps, zero, add, out = self._enumeration()
        return map(out, _odometer(steps, self.spec.q, zero, add))

    def _class_words(self):
        """One word per scalar class of nonzero codewords, in the form of
        `_words`: for each t, the messages whose digit t is the field's 1
        and whose higher digits are 0."""
        steps, _, add, out = self._enumeration()
        q = self.spec.q
        # steps[t][0], moving digit t from 0 to the field's 1, is row t
        for t, row_steps in enumerate(steps):
            yield from map(out, _odometer(steps[:t], q, row_steps[0], add))

    def _enumeration(self):
        """Step tables, zero word and word addition for `_odometer`, and
        the map from its words to the form of `_words`.

        `BRUTE_FORCE_BUDGET` bounds q^k, the size of the full enumeration."""
        spec, n, q = self.spec, self.n, self.spec.q
        qk = q ** self.k
        if qk > BRUTE_FORCE_BUDGET:
            raise CodeError(
                f"q^k = {qk} exceeds the brute-force budget {BRUTE_FORCE_BUDGET}; "
                "certify MDS via mds_subset_check instead")
        # stepping message digit i from encoding a to a+1 adds
        # (elem(a+1) - elem(a)) * row_i; deltas depend on a in GF(p^m)
        delta = [spec.sub_enc((a + 1) % q, a) for a in range(q)]
        if spec.p == 2:
            # words and steps packed one byte per entry, added by XOR
            mulb = spec._mulb
            steps = [[int.from_bytes(bytes(row).translate(mulb[d]), "big")
                      for d in delta] for row in self.matrix]
            return steps, 0, xor, lambda word: word.to_bytes(n, "big")
        add, mul = spec.add_enc, spec.mul_enc
        steps = [[[mul(d, x) for x in row] for d in delta] for row in self.matrix]
        return (steps, [0] * n, lambda u, v: list(map(add, u, v)),
                lambda word: word)

    def min_distance(self) -> int:
        """Exact minimum Hamming weight, over one codeword per scalar class
        (lambda.c has the weight of c); `BRUTE_FORCE_BUDGET` bounds q^k."""
        if self.k == 0:
            raise CodeError("zero code has no nonzero codeword")
        return self.n - max(word.count(0) for word in self._class_words())

    def weight_distribution(self) -> list[int]:
        """A_0..A_n, q - 1 times the weights of one codeword per scalar
        class; same budget as min_distance."""
        n, q = self.n, self.spec.q
        dist = [0] * (n + 1)
        for word in self._class_words():
            dist[n - word.count(0)] += 1
        return [1] + [(q - 1) * count for count in dist[1:]]

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k}] over {self.spec!r}"


def _odometer(steps, q: int, word, add):
    """Every sum of one multiple of each row, message digit 0 fastest.

    ``steps[i][a]`` is what moving digit i from encoding a to a + 1 adds to
    the word, so each message after the first costs one `add` per digit
    that turns over.
    """
    yield word
    digits = [0] * len(steps)
    for _ in range(q ** len(steps) - 1):
        i = 0
        while True:
            a = digits[i]
            word = add(word, steps[i][a])
            if a + 1 < q:
                digits[i] = a + 1
                break
            digits[i] = 0
            i += 1
        yield word


# ---------------------------------------------------------------------------
# subset-sum dynamic programming over Z/d1 x Z/d2
# ---------------------------------------------------------------------------

def subset_sum_reachable(coords: Sequence[tuple[int, int]], k: int,
                         d1: int, d2: int) -> int:
    """The group elements some k-subset sums to, as an int bitset.

    Bit i*d2 + j is set exactly where some k-subset's coordinates sum to
    (i, j) mod (d1, d2).  The DP runs over (prefix, subset size) states,
    size s in the s-th block of d1*d2 bits of one int.  Adding a point
    rotates every block at once by the point's coordinates (`_rotate`),
    shifts the result up one block and ORs it in.  Sizes above k, or too
    small to reach k with the points left, are cut off.
    """
    n = len(coords)
    if not 0 <= k <= n:
        return 0
    size = d1 * d2
    total, masks = (k + 1) * size, {}
    # block b of dp is size base + b; sizes below base can no longer reach k
    dp, base, top = 1, 0, (1 << total) - 1
    for idx, (gi, gj) in enumerate(coords):
        # columns rotate inside each d2-bit row, rows inside each block
        cols = _rotate(_rotate(dp, gj % d2, d2, total, masks),
                       gi % d1 * d2, size, total, masks)
        dp = (dp | cols << size) & top
        low = k - (n - idx - 1)
        if low > base:
            dp >>= (low - base) * size
            base, top = low, top >> (low - base) * size
    return dp >> (k - base) * size


def _rotate(x: int, by: int, width: int, total: int, masks: dict) -> int:
    """x < 2^total with every width-bit slot rotated up by `by` bits; the
    masks of the bits that do and do not wrap are built once per (by,
    width) by doubling, and kept in `masks`."""
    if not by:
        return x
    if (by, width) not in masks:
        stay, span = (1 << (width - by)) - 1, width
        while span < total:
            stay |= stay << span
            span *= 2
        ones = (1 << total) - 1
        masks[by, width] = stay & ones, ones ^ (stay & ones)
    stay, wrap = masks[by, width]
    return ((x & stay) << by) | ((x & wrap) >> (width - by))


def mds_subset_check(points: Sequence[tuple[int, int]], structure: GroupStructure,
                     k: int, target: Optional[tuple[int, int]]) -> int:
    """1 if some k-subset of `points` has group sum `target`, else 0; both
    are encoded, None for O, and one off ``structure.dlog`` is a `CurveError`.

    C_L(D, G) with sum(G) = target is MDS iff this is 0.  The witness
    (`subset_sum_reachable`) first runs on the 2-primary quotient Z/e1 x
    Z/e2, e_i the 2-part of d_i: reduction is a homomorphism, so a target
    unreachable there is unreachable; only a reachable one pays for the full
    group.  The paper's parity argument settles all nine goldens there; odd
    k, hostile files and random point sets can pay.  No subset is counted.
    """
    if len(set(points)) != len(points):
        raise CodeError("evaluation points must be pairwise distinct")
    try:
        coords = [structure.dlog[p] for p in points]
        ti, tj = structure.dlog[target]
    except KeyError as exc:
        raise CurveError(f"point {exc.args[0]} not in the discrete-log table") from None
    d1, d2 = structure.d1, structure.d2
    e1, e2 = d1 & -d1, d2 & -d2
    if not subset_sum_reachable([(i % e1, j % e2) for i, j in coords],
                                k, e1, e2) >> (ti % e1 * e2 + tj % e2) & 1:
        return 0
    return subset_sum_reachable(coords, k, d1, d2) >> (ti * d2 + tj) & 1
