"""Exact dense linear algebra over GF(q) on integer-encoded matrices.

Matrices are lists of equal-length rows of canonical encodings.  Everything
here is deterministic: pivoting scans left to right, top to bottom, so a
given row space always produces the same reduced row-echelon form.

In characteristic 2 (q <= 256) the kernels pack each row into one int, one
byte per entry with column 0 most significant.  A row is scaled by
``bytes.translate`` with the field's ``_mulb`` table and rows are added by
XOR; results are unpacked to the same lists of encodings.

Two structured kernels rank a matrix with none formed.  `cauchy_like_rank`
ranks a Cauchy-like matrix, D_a M - M D_b = G H, by elimination on the r
columns of G and rows of H (Gohberg-Kailath-Olshevsky), O(m n r); it runs
in odd characteristic, with the field's log, exp and add tables, on G's
rows and H's columns held as tuples of 4 generators.
`hankel_rank` ranks an m x m Hankel matrix from the linear complexity of
its 2m - 1 entries (Berlekamp-Massey), O(m^2), in any field.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .gf import FieldSpec


def rref(rows: list[list[int]], spec: FieldSpec, *,
         reduced: bool = True) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form.  Returns (nonzero rows, pivot columns).
    With reduced=False each pivot clears only the rows below it: a row-echelon
    form with the same pivots, in a third less work, for `rank`."""
    if spec.p == 2:
        return _rref_packed(rows, spec, reduced)
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    zexp, log = spec._zexp, spec._log
    addt, add = spec._addt, spec.add_enc
    q1 = spec.q - 1
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        row_r = a[r]
        lp = log[row_r[c]]
        clear = [i for i in range(0 if reduced else r + 1, nrows) if a[i][c] and i != r]
        # a leading 1 with nothing to clear, as in every row of a systematic
        # [I | A], costs no pass over the row
        if lp:      # scale the pivot row to a leading 1
            row_r[c:] = [zexp[log[v] - lp + q1] for v in row_r[c:]]
        if clear:
            # -1 has log (q-1)/2, so row_i -= f * row_r adds -f * x =
            # zexp[lf + lx] with the shift folded into lx, over the pivot
            # row's nonzeros only, listed once as (column, shifted log)
            nz = [(j, (log[v] + q1 // 2) % q1) for j, v in enumerate(row_r[c:], c) if v]
            for i in clear:
                row_i = a[i]
                lf = log[row_i[c]]
                if addt is not None:
                    for j, lv in nz:
                        row_i[j] = addt[row_i[j]][zexp[lf + lv]]
                else:
                    # beyond the add-table size cap: the field's own add
                    for j, lv in nz:
                        row_i[j] = add(row_i[j], zexp[lf + lv])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [a[i] for i in range(r)], pivots


def _rref_packed(rows: list[list[int]], spec: FieldSpec,
                 reduced: bool) -> tuple[list[list[int]], list[int]]:
    """`rref` in characteristic 2, on rows packed one byte per entry."""
    mulb = spec._mulb
    a = [int.from_bytes(bytes(r), "big") for r in rows]
    nrows = len(a)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # rows r.. are zero left of column c, so the shift alone reads it
        shift = 8 * (ncols - 1 - c)
        pr = None
        for i in range(r, nrows):
            if a[i] >> shift:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        row_b = a[r].to_bytes(ncols, "big")
        pv = row_b[c]
        if pv != 1:
            row_b = row_b.translate(mulb[spec.inv_enc(pv)])
            a[r] = int.from_bytes(row_b, "big")
        for i in range(0 if reduced else r + 1, nrows):
            f = a[i] >> shift & 255
            if f and i != r:
                a[i] ^= int.from_bytes(row_b.translate(mulb[f]), "big")
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [list(a[i].to_bytes(ncols, "big")) for i in range(r)], pivots


def rank(rows: list[list[int]], spec: FieldSpec) -> int:
    return len(rref(rows, spec, reduced=False)[0])


def cauchy_like_rank(a: Sequence[int], b: Sequence[int],
                     g: Sequence[Sequence[int]], h: Sequence[Sequence[int]],
                     spec: FieldSpec) -> int:
    """Rank of the m x n matrix M with D_a M - M D_b = G H, from G and H.

    a holds the m row nodes and b the n column nodes, with a_i != b_j, so
    M_ij = (row i of G . column j of H) / (a_i - b_j): M is Cauchy-like.
    G is given as its r columns, each m long, and H as its r rows, each n
    long.  Gaussian elimination runs on the generators (Gohberg-Kailath-
    Olshevsky), in O(m n r) instead of O(m n min(m, n)): each step forms
    the first active column of the Schur complement, drops it when it is
    zero, and otherwise pivots on its first nonzero entry, forms the pivot
    row and folds both into G and H, which then generate the next Schur
    complement.  Odd characteristic, on a field whose add table an op has
    asked for (`FieldSpec.add_table`); it builds none.

    G and H are padded with zeros to a multiple of 4 (at least 4) and cut
    into 4-wide chunks, lists of G's row tuples and H's column tuples; per
    chunk, a step makes one pass for each of column j, row p and the update
    of each side.  The library's r = 4 is one chunk.
    """
    if spec._addt is None:
        raise ValueError("cauchy_like_rank needs odd q with an add table")
    if not set(a).isdisjoint(b):
        raise ValueError("row and column nodes must be disjoint")
    log, zexp, addt, negt = spec._log, spec._zexp, spec._addt, spec._negt
    q1 = spec.q - 1
    pad = -len(g) % 4 if g else 4
    g = [*g, *[[0] * len(a)] * pad]
    h = [*h, *[[0] * len(b)] * pad]
    gs = [list(zip(*g[c:c + 4])) for c in range(0, len(g), 4)]
    hs = [list(zip(*h[c:c + 4])) for c in range(0, len(h), 4)]

    def dots(chunks, vecs):
        """Each tuple's product with its chunk's vec, summed over chunks."""
        acc = None
        for tuples, vec in zip(chunks, vecs):
            l0, l1, l2, l3 = [log[x] for x in vec]
            part = [addt[addt[zexp[log[x0] + l0]][zexp[log[x1] + l1]]][
                        addt[zexp[log[x2] + l2]][zexp[log[x3] + l3]]]
                    for x0, x1, x2, x3 in tuples]
            acc = part if acc is None else [addt[x][y] for x, y in zip(acc, part)]
        return acc

    def fold(chunks, vecs, s, nodes, diff, lc):
        """Tuple i plus its chunk's vec times s_i c / diff[node_i]."""
        return [[(addt[x0][zexp[y + l0]], addt[x1][zexp[y + l1]],
                  addt[x2][zexp[y + l2]], addt[x3][zexp[y + l3]])
                 for (x0, x1, x2, x3), v, u in zip(tuples, s, nodes)
                 for y in (log[v] + lc - log[diff[u]],)]
                for tuples, vec in zip(chunks, vecs)
                for l0, l1, l2, l3 in ([log[x] for x in vec],)]

    rows = list(a)
    nb = [negt[x] for x in b]
    rank = base = 0         # hs' lists start at column base
    for j, nbj in enumerate(nb):
        if not rows:
            break
        hj = [hc[j - base] for hc in hs]
        # column j of the Schur complement times (a_i - b_j)
        s = dots(gs, hj)
        p = next(filter(s.__getitem__, range(len(s))), None)
        if p is None:
            continue
        rank += 1
        ap = rows.pop(p)
        # c = -(a_p - b_j) / s_p, its log lc shifted into [q - 1, 2(q - 1)):
        # the exponents below are >= 0, and < 4(q - 1) for nonzero factors
        lc = (log[addt[ap][nbj]] - log[s.pop(p)] + q1 // 2) % q1 + q1
        gp = [gc.pop(p) for gc in gs]
        tails = [hc[j - base + 1:] for hc in hs]
        base = j + 1
        # row p of the Schur complement past column j, times (a_p - b_c)
        t = dots(tails, gp)
        # row i of G gains row p times -M_ij / M_pj = s_i c / (a_i - b_j),
        # column c of H column j times -M_pc / M_pj = t_c c / (a_p - b_c):
        # the next Schur complement's generators
        gs = fold(gs, gp, s, rows, addt[nbj], lc)
        hs = fold(tails, hj, t, nb[base:], addt[ap], lc)
    return rank


def hankel_rank(s: Sequence[int], spec: FieldSpec) -> int:
    """Rank of the m x m Hankel matrix [s_(i+j)] of s_0 ... s_(2m-2):
    min(L, 2m - L), L the sequence's linear complexity (Heinig-Rost), from
    Berlekamp-Massey (Massey 1969) in O(m^2).  c is the connection
    polynomial, lc the logs of c[1:], lb those of the polynomial before the
    last length change, ld the log of that step's discrepancy and gap the
    steps since; a zero's log reads 0 in the field's `_zexp`."""
    if len(s) % 2 == 0:
        raise ValueError("a Hankel matrix has 2m - 1 distinct entries")
    log, zexp, addt, add, q1 = spec._log, spec._zexp, spec._addt, spec.add_enc, spec.q - 1
    neg = q1 // 2 if spec.p != 2 else 0     # the log of -1
    ls = list(map(log.__getitem__, s))
    c, lc, lb, length, gap, ld = [1], [], [0], 0, 1, 0
    for t, d in enumerate(s):
        # the discrepancy s_t + sum_i c_i s_(t-i), by the add table where
        # there is one; len(lc) <= length <= t
        for v in [zexp[u + v] for u, v in zip(lc, ls[t - 1::-1])]:
            d = addt[d][v] if addt is not None else add(d, v)
        if d:       # c - (d / d_b) x^gap b, term by term
            lf = (log[d] - ld + neg) % q1
            new = c + [0] * (len(lb) + gap - len(c))
            for i, y in enumerate(lb, gap):
                v = zexp[lf + y]
                new[i] = addt[new[i]][v] if addt is not None else add(new[i], v)
            if 2 * length <= t:
                length, lb, ld, gap = t + 1 - length, [0] + lc, log[d], 0
            c, lc = new, list(map(log.__getitem__, new[1:]))
        gap += 1
    return min(length, len(s) + 1 - length)


def nullspace(rows: list[list[int]], spec: FieldSpec, ncols: int) -> list[list[int]]:
    """A basis of {v : A v^T = 0}, one vector per free column of A's RREF,
    with 1 there and 0 at the other free columns; not itself reduced."""
    red, pivots = rref(rows, spec)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = spec.neg_enc(red[i][fc])
        basis.append(v)
    return basis


def scale_columns(a: Sequence[Sequence[int]], w: Sequence[int],
                  spec: FieldSpec) -> list[list[int]]:
    """A diag(w), for nonzero weights w, by table lookup.  A zero weight is
    a `ValueError`: a scaling's diag(w) must be invertible."""
    if 0 in w:
        raise ValueError("column weights must be nonzero")
    if spec.p == 2:
        tables = [spec._mulb[wj] for wj in w]
        return [[t[x] for t, x in zip(tables, row)] for row in a]
    zexp, log = spec._zexp, spec._log
    lw = [log[wj] for wj in w]
    return [[zexp[log[x] + lj] for x, lj in zip(row, lw)] for row in a]


def gram(a: list[list[int]], spec: FieldSpec,
         w: Optional[Sequence[int]] = None) -> list[list[int]]:
    """A diag(w) A^T, the Gram matrix of the rows under the bilinear form
    with weights w; plain A A^T when w is None.  Entries of w are nonzero,
    as in `scale_columns`."""
    if w is not None and 0 in w:
        raise ValueError("Gram weights must be nonzero")
    if spec.p == 2:
        cols = [bytes(col) for col in zip(*a)]
        if w is not None:
            cols = [col.translate(spec._mulb[wj]) for col, wj in zip(cols, w)]
        # row i is the XOR over t of a[i][t] times column t of A diag(w)
        mulb, k = spec._mulb, len(a)
        out = []
        for row in a:
            acc = 0
            for f, col in zip(row, cols):
                if f:
                    acc ^= int.from_bytes(col.translate(mulb[f]), "big")
            out.append(list(acc.to_bytes(k, "big")))
        return out
    log, zexp, addt, add = spec._log, spec._zexp, spec._addt, spec.add_enc
    q1 = spec.q - 1
    if w is None:
        w = [1] * (len(a[0]) if a else 0)
    # row i's nonzeros once, as (column, log of entry times weight), read
    # against the logs of the rows it meets, where a zero reads 0 in `_zexp`
    terms = [[(j, (log[x] + log[wj]) % q1) for j, (x, wj) in enumerate(zip(row, w))
              if x] for row in a]
    logs = [list(map(log.__getitem__, row)) for row in a]
    k = len(a)
    out = [[0] * k for _ in range(k)]
    for i, ti in enumerate(terms):
        for j in range(i, k):      # symmetric: the upper triangle, mirrored
            lj, acc = logs[j], 0
            if addt is not None:
                for c, lx in ti:
                    acc = addt[acc][zexp[lx + lj[c]]]
            else:
                for c, lx in ti:
                    acc = add(acc, zexp[lx + lj[c]])
            out[i][j] = out[j][i] = acc
    return out

