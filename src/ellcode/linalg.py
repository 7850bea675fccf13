"""Exact dense linear algebra over GF(q) on integer-encoded matrices.

Matrices are lists of equal-length rows of canonical encodings.  Everything
here is deterministic: pivoting scans left to right, top to bottom, so a
given row space always produces the same reduced row-echelon form.

In characteristic 2 (q <= 256) the kernels pack each row into one int, one
byte per entry with column 0 most significant.  A row is scaled by
``bytes.translate`` with the field's ``_mulb`` table and rows are added by
XOR; results are unpacked to the same lists of encodings.
"""

from __future__ import annotations

from .gf import FieldSpec


def rref(rows: list[list[int]], spec: FieldSpec) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form.  Returns (nonzero rows, pivot columns)."""
    if spec.p == 2:
        return _rref_packed(rows, spec)
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    exp2, log = spec._exp2, spec._log
    addt, negt, sub = spec._addt, spec._negt, spec.sub_enc
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
        pv = row_r[c]
        if pv != 1:
            linv = (spec.q - 1) - log[pv]
            for j in range(c, ncols):
                v = row_r[j]
                if v:
                    row_r[j] = exp2[log[v] + linv]
        for i in range(nrows):
            f = a[i][c]
            if i == r or not f:
                continue
            row_i = a[i]
            lf = log[f]
            if addt is not None:
                for j in range(c, ncols):
                    v = row_r[j]
                    if v:
                        row_i[j] = addt[row_i[j]][negt[exp2[lf + log[v]]]]
            else:
                # beyond the add-table size cap: the field's own subtract
                for j in range(c, ncols):
                    v = row_r[j]
                    if v:
                        row_i[j] = sub(row_i[j], exp2[lf + log[v]])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [a[i] for i in range(r)], pivots


def _rref_packed(rows: list[list[int]],
                 spec: FieldSpec) -> tuple[list[list[int]], list[int]]:
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
        for i in range(nrows):
            f = a[i] >> shift & 255
            if f and i != r:
                a[i] ^= int.from_bytes(row_b.translate(mulb[f]), "big")
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [list(a[i].to_bytes(ncols, "big")) for i in range(r)], pivots


def rank(rows: list[list[int]], spec: FieldSpec) -> int:
    return len(rref(rows, spec)[0])


def nullspace(rows: list[list[int]], spec: FieldSpec, ncols: int) -> list[list[int]]:
    """RREF basis of {v : A v^T = 0} for the row space of A."""
    red, pivots = rref(rows, spec)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = spec.neg_enc(red[i][fc])
        basis.append(v)
    out, _ = rref(basis, spec)
    return out


def mat_mul(a: list[list[int]], b: list[list[int]], spec: FieldSpec) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    if spec.p == 2:
        return _mul_packed(a, [bytes(r) for r in b], len(b[0]) if b else 0, spec)
    bt = [list(col) for col in zip(*b)] if b else []
    return [[_dot(row, col, spec) for col in bt] for row in a]


def gram(a: list[list[int]], spec: FieldSpec) -> list[list[int]]:
    """A A^T, the Gram matrix of the rows under the standard bilinear form."""
    if spec.p == 2:
        return _mul_packed(a, [bytes(col) for col in zip(*a)], len(a), spec)
    return [[_dot(r1, r2, spec) for r2 in a] for r1 in a]


def _mul_packed(a: list[list[int]], b_rows: list[bytes], width: int,
                spec: FieldSpec) -> list[list[int]]:
    """A B in characteristic 2, B given as its rows of bytes, each `width`
    long: row i of the product is the XOR over t of a[i][t] * B[t]."""
    mulb = spec._mulb
    out = []
    for row in a:
        acc = 0
        for s, b_row in zip(row, b_rows):
            if s:
                acc ^= int.from_bytes(b_row.translate(mulb[s]), "big")
        out.append(list(acc.to_bytes(width, "big")))
    return out


def _dot(u: list[int], v: list[int], spec: FieldSpec) -> int:
    exp2, log = spec._exp2, spec._log
    addt = spec._addt
    acc = 0
    if addt is not None:
        for x, y in zip(u, v):
            if x and y:
                acc = addt[acc][exp2[log[x] + log[y]]]
        return acc
    add = spec.add_enc
    for x, y in zip(u, v):
        if x and y:
            acc = add(acc, exp2[log[x] + log[y]])
    return acc
