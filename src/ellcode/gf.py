"""Exact arithmetic in GF(p) and GF(p^m) with an explicit polynomial basis.

Every element carries the field it lives in and is addressed by its
canonical integer encoding ``enc(a) = sum(coeffs[i] * p**i)``, which is a
bijection onto ``[0, q)``.  The encoding is the interchange format used in
files, certificates and the command line, so results are bit-reproducible.

Fields are desk-scale: q is at most `_MAX_Q`, checked before any other
work.  Multiplication runs on exp/log tables built from a fixed primitive
element, and the field alone says how zero reads in log space (`FieldSpec`:
log 0 and ``_zexp``), so no kernel tests a factor for zero.  The bootstrap
works on plain mod-p coefficient lists with one product (`_pp_mulmod`),
one square-and-multiply (`_pp_powmod`) and one irreducibility test
(`_is_irreducible`).  Multiplication by the generator
is GF(p)-linear, so the exp/log walk splits an encoding as lo + P * hi
with P = p^(m//2) and steps through two tables of about sqrt(q) products.
Odd extension fields add the halves of the same split in their own tables
(`_split_add`), prime fields mod p.  Up to `_ADD_TABLE_MAX_Q`, an op that
pays for it asks for the q x q table (`FieldSpec.add_table`): row
lo + P * hi is row lo of the low-digit table shifted by multiples of P, in
the order of row hi of the high-digit table; every entry is one of q shared
int objects.  Characteristic-2 fields have q <= 256, so an encoding fits in
one byte: their ``_mulb[s]`` is the 256-byte ``bytes.translate`` table of
x -> s * x, with which `linalg` and `code` scale rows packed one byte each.
"""

from __future__ import annotations

from itertools import repeat
from operator import xor
from typing import Optional, Sequence


class FieldError(ValueError):
    """Invalid field construction or a cross-field operand mix."""


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division.  Inputs are desk-scale."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# polynomials over GF(p) with plain-int coefficients (field bootstrap only)
# ---------------------------------------------------------------------------

def _pp_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pp_mulmod(f: list[int], g: list[int], mod: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _pp_mod(out, mod, p)


def _pp_mod(f: list[int], g: Sequence[int], p: int) -> list[int]:
    f = _pp_trim(list(f))
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        factor = (f[-1] * inv_lead) % p
        for i, gi in enumerate(g):
            f[i + shift] = (f[i + shift] - factor * gi) % p
        _pp_trim(f)
    return f


def _pp_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    f, g = _pp_trim(list(f)), _pp_trim(list(g))
    while g:
        f, g = g, _pp_mod(f, g, p)
    return f


def _pp_powmod(f: list[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    """f^e mod `mod` by square-and-multiply."""
    acc = [1]
    while e:
        if e & 1:
            acc = _pp_mulmod(acc, f, mod, p)
        f = _pp_mulmod(f, f, mod, p)
        e >>= 1
    return acc


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Rabin's criterion: monic f of degree m is irreducible over GF(p) iff
    gcd(f, x^(p^i) - x) = 1 for i = 1..m//2, since a reducible f has an
    irreducible factor of degree i <= m/2, and that factor divides
    x^(p^i) - x.  Degree 1 runs no round."""
    f = [c % p for c in modulus]
    xp = [0, 1]
    for _ in range((len(f) - 1) // 2):
        xp = _pp_powmod(xp, p, f, p)          # x^(p^i) mod f
        diff = xp + [0] * (2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(_pp_gcd(f, diff, p)) > 1:
            return False
    return True


_ADD_TABLE_MAX_Q = 1024
_MAX_Q = 2 ** 16


def _addition_table(p: int, m: int) -> list[list[int]]:
    """The q x q table of a + b on encodings of GF(q), q = p^m, from one split.

    With P = p^(m//2), a = lo + P * hi adds as two smaller tables: the low
    digits by the P x P table, the high digits by the (q/P) x (q/P) one.
    ``blocks[lo][s]`` is row lo of the low table shifted by P * s, so row
    a is the blocks of lo listed in the order of row hi of the high table,
    each copied by one slice assignment.  Entries are slices of one
    ``range(q)`` list, so the table holds q int objects.
    """
    q = p ** m
    vals = list(range(q))
    if m == 1:
        return [vals[a:] + vals[:a] for a in range(q)]
    P = p ** (m // 2)
    blocks = [[list(map(vals[s:s + P].__getitem__, low)) for s in range(0, q, P)]
              for low in _addition_table(p, m // 2)]
    spans = [slice(s, s + P) for s in range(0, q, P)]
    rows = []
    for high in _addition_table(p, m - m // 2):
        for blk in blocks:
            row = [0] * q       # full length at once: no regrowth, no slack
            for span, s in zip(spans, high):
                row[span] = blk[s]
            rows.append(row)
    return rows


def _split_add(p: int, m: int):
    """a + b on encodings of GF(p^m), m >= 2, by the split of
    `_addition_table`: the low digits add in the table of GF(p^(m//2)), the
    high digits in theirs, or split again while still above the cap."""
    P, high_m = p ** (m // 2), m - m // 2
    low = _addition_table(p, m // 2)
    if p ** high_m > _ADD_TABLE_MAX_Q:      # only GF(37^3), through 37^2
        high = _split_add(p, high_m)
        return lambda a, b: low[a % P][b % P] + P * high(a // P, b // P)
    high = _addition_table(p, high_m)
    return lambda a, b: low[a % P][b % P] + P * high[a // P][b // P]


class FieldSpec:
    """GF(p^m) defined by a monic irreducible modulus c0 + c1 x + ... + cm x^m.

    The spec owns the arithmetic tables; raw ``*_enc`` methods operate on
    integer encodings and back every `FieldElement` operator.  The additive
    ones, ``add_enc``, ``sub_enc`` and ``neg_enc``, are plain callables bound
    by `_bind_addition`, and ``add_table`` rebinds the first two to the
    q x q table it builds on request.  Values never change after
    construction, so specs compare by their modulus and are safe to share.

    ``_log`` inverts ``_exp[i] = gen^i`` and sends 0 to 4(q - 1), which is
    0 mod q - 1.  ``_zexp`` is ``_exp`` four times over, then 6(q - 1) zeros:
    a sum of logs and nonnegative shifts indexes the product there, with no
    zero test, while it stays below 4(q - 1) for nonzero factors.

    In characteristic 2, ``_mulb[s]`` is the translate table of
    multiplication by s: ``_mulb[s][x] == mul_enc(s, x)`` for x < q, and
    encodings q..255 map to 0.  The kernels of `linalg` and `code` pack a
    row one byte per entry and scale it with ``row.translate(_mulb[s])``.
    Other fields have ``_mulb = None``.
    """

    __slots__ = ("p", "m", "modulus", "q", "_exp", "_zexp", "_log", "_addt",
                 "_negt", "_mulb", "_gen_enc", "_artin", "add_enc", "sub_enc",
                 "neg_enc")

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        if not 1 <= m <= 8:
            raise FieldError(f"extension degree m={m} out of supported range 1..8")
        if p ** m > _MAX_Q:
            raise FieldError(f"field size {p}^{m} exceeds the supported {_MAX_Q}")
        if not is_prime(p):
            raise FieldError(f"p={p} is not prime")
        mod = [c % p for c in modulus]
        if len(mod) != m + 1:
            raise FieldError(f"modulus needs {m + 1} coefficients, got {len(mod)}")
        if mod[-1] != 1:
            raise FieldError("modulus must be monic")
        if not _is_irreducible(mod, p):
            raise FieldError(f"modulus {mod} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.modulus = tuple(mod)
        self.q = p ** m
        self._build_tables()
        self._artin: Optional[dict[int, int]] = None

    # -- construction helpers -------------------------------------------------

    def _coeffs_of(self, enc: int) -> list[int]:
        return [enc // self.p ** i % self.p for i in range(self.m)]

    def _enc_of(self, coeffs: Sequence[int]) -> int:
        return sum(c % self.p * self.p ** i for i, c in enumerate(coeffs))

    def _raw_mul(self, a: int, b: int) -> int:
        return self._enc_of(_pp_mulmod(self._coeffs_of(a), self._coeffs_of(b),
                                       self.modulus, self.p))

    def _is_primitive(self, enc: int, q1_factors: dict[int, int]) -> bool:
        a, mod, p = self._coeffs_of(enc), self.modulus, self.p
        return all(_pp_powmod(a, (self.q - 1) // ell, mod, p) != [1]
                   for ell in q1_factors)

    def _build_tables(self) -> None:
        q, p, m = self.q, self.p, self.m
        self._addt = self._negt = self._mulb = None
        if p != 2:
            negt, size = [0], 1
            while size < q:     # -(lo + size * h) = -lo + size * (-h % p)
                negt = [n + size * (-h % p) for h in range(p) for n in negt]
                size *= p
            self._negt = negt
        self._bind_addition()
        q1_factors = factorize(q - 1)
        # the smallest primitive encoding: below p lies GF(p), so for m >= 2
        # it is theta (enc p) whenever theta is primitive; 1 is primitive
        # only in GF(2), and gen = 0 fails the cycle check below
        gen = next((c for c in range(1, q) if self._is_primitive(c, q1_factors)), 0)
        self._gen_enc = gen
        if m > 1:
            # x -> gen * x is GF(p)-linear on the digits, so with x = lo + P * hi
            # it is gen * lo + gen * (P * hi): two tables of about sqrt(q) products
            P, add = p ** (m // 2), self.add_enc
            by_lo = [self._raw_mul(lo, gen) for lo in range(P)]
            by_hi = [self._raw_mul(hi, gen) for hi in range(0, q, P)]
        exp, log, x = [0] * (q - 1), [4 * (q - 1)] * q, 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = x * gen % p if m == 1 else add(by_lo[x % P], by_hi[x // P])
        if x != 1:
            raise FieldError("generator search failed to close the cycle")
        zexp = exp * 4      # grown in place to exactly its size: the build peaks at that
        zexp += repeat(0, 6 * (q - 1))
        self._exp, self._zexp, self._log = exp, zexp, log
        if p == 2:
            # _mulb[gen^(i+1)] is _mulb[gen^i] translated by x -> gen * x
            pad = bytes(256 - q)
            by_gen = bytes(zexp[log[x] + 1] for x in range(q)) + pad
            mulb = [bytes(256)] * q
            table = bytes(range(q)) + pad
            for e in exp:
                mulb[e] = table
                table = table.translate(by_gen)
            self._mulb = mulb

    def _bind_addition(self) -> None:
        """Bind the table-free integer add, subtract and negate, for every q,
        before the exp/log walk, which steps by ``add_enc``: XOR in
        characteristic 2, mod p in prime fields, and the split of
        `_split_add` in the other extension fields, which subtract through
        the negation table; `add_table` rebinds add and subtract."""
        p, negt = self.p, self._negt
        if p == 2:
            self.add_enc = self.sub_enc = xor
            self.neg_enc = lambda a: a
            return
        self.neg_enc = negt.__getitem__
        if self.m == 1:
            self.add_enc = lambda a, b: (a + b) % p
            self.sub_enc = lambda a, b: (a - b) % p
        else:
            add = self.add_enc = _split_add(p, self.m)
            self.sub_enc = lambda a, b: add(a, negt[b])

    def add_table(self) -> Optional[list[list[int]]]:
        """The q x q table of `_addition_table`, built on the first call and
        kept, with ``add_enc`` and ``sub_enc`` rebound to it; None in
        characteristic 2 and above `_ADD_TABLE_MAX_Q`.  Kernels read it where
        the field has it, and call ``add_enc`` otherwise."""
        if self._addt is None and self.p != 2 and self.q <= _ADD_TABLE_MAX_Q:
            addt, negt = _addition_table(self.p, self.m), self._negt
            self._addt = addt
            self.add_enc = lambda a, b: addt[a][b]
            self.sub_enc = lambda a, b: addt[a][negt[b]]
        return self._addt

    # -- raw encoded arithmetic ----------------------------------------------

    def mul_enc(self, a: int, b: int) -> int:
        return self._zexp[self._log[a] + self._log[b]]

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + repr(self))
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow_enc(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def sqrt_enc(self, a: int) -> Optional[int]:
        """Square root by table: always exists in char 2, parity test else.

        Odd characteristic ties break toward the smaller encoding.
        """
        if a == 0:
            return 0
        la = self._log[a]
        if self.p == 2:
            return self._exp[(la * (self.q // 2)) % (self.q - 1)]
        if la % 2:
            return None
        r = self._exp[la // 2]
        return min(r, self.neg_enc(r))

    def artin_solve(self, c: int) -> Optional[int]:
        """Smallest z with z^2 + z = c, or None.  Characteristic 2 only."""
        if self.p != 2:
            raise FieldError("artin_solve applies to characteristic 2 only")
        if self._artin is None:
            table: dict[int, int] = {}
            for z in range(self.q):
                key = self.add_enc(self.mul_enc(z, z), z)
                if key not in table:
                    table[key] = z
            self._artin = table
        return self._artin.get(c)

    # -- element access ---------------------------------------------------

    def element(self, value: "int | FieldElement") -> "FieldElement":
        """A FieldElement of this field, or an int (not a bool) encoding."""
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise FieldError("element belongs to a different field")
            return value
        if type(value) is not int:
            raise FieldError(f"not an int encoding or a FieldElement: {value!r}")
        if not 0 <= value < self.q:
            raise FieldError(f"encoding {value} out of range for {self!r}")
        return FieldElement(self, value)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def generator(self) -> "FieldElement":
        """The smallest primitive encoding, which is the basis element theta
        when theta is primitive.  Its multiplicative order is q - 1 by
        construction."""
        return FieldElement(self, self._gen_enc)

    # -- text format --------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "FieldSpec":
        return cls(*cls.parse(text))

    @staticmethod
    def parse(text: str) -> tuple[int, int, list[int]]:
        """(p, m, modulus) of ``p=<int>,m=<int>,mod=<c0,...,cm>``, building
        no table.  A repeated key, or one after ``mod=``, is an error."""
        keys: dict[str, int] = {}
        rest: list[int] = []
        try:
            for tok in (t.strip() for t in text.split(",") if t.strip()):
                key, _, value = tok.partition("=")
                if "mod" in keys:
                    rest.append(int(tok))
                elif key in keys or key not in ("p", "m", "mod"):
                    raise ValueError(f"unexpected or repeated {tok!r}")
                else:
                    keys[key] = int(value)
        except ValueError as exc:
            raise FieldError(f"cannot parse field spec {text!r}: {exc}") from None
        if len(keys) != 3:
            raise FieldError(f"field spec {text!r} must define p, m and mod")
        return keys["p"], keys["m"], [keys["mod"], *rest]

    def to_string(self) -> str:
        return f"p={self.p},m={self.m},mod=" + ",".join(str(c) for c in self.modulus)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (isinstance(other, FieldSpec) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


class FieldElement:
    """An element of a `FieldSpec`, addressed by its canonical encoding."""

    __slots__ = ("spec", "enc")

    def __init__(self, spec: FieldSpec, enc: int):
        self.spec = spec
        self.enc = enc

    def _check(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldError(f"operands live in different fields: "
                             f"{self.spec!r} vs {other.spec!r}")
        return other

    def __add__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        return FieldElement(self.spec, self.spec.add_enc(self.enc, other.enc))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        return FieldElement(self.spec, self.spec.sub_enc(self.enc, other.enc))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.neg_enc(self.enc))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        return FieldElement(self.spec, self.spec.mul_enc(self.enc, other.enc))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        return FieldElement(self.spec,
                            self.spec.mul_enc(self.enc, self.spec.inv_enc(other.enc)))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.spec, self.spec.pow_enc(self.enc, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_enc(self.enc))

    def sqrt(self) -> Optional["FieldElement"]:
        r = self.spec.sqrt_enc(self.enc)
        return None if r is None else FieldElement(self.spec, r)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FieldElement) and other.enc == self.enc
                and (other.spec is self.spec or other.spec == self.spec))

    def __hash__(self) -> int:
        return hash((self.enc, self.spec.q))

    def __bool__(self) -> bool:
        return self.enc != 0

    def __int__(self) -> int:
        return self.enc

    def __repr__(self) -> str:
        return f"{self.spec!r}:{self.enc}"


# ---------------------------------------------------------------------------
# polynomials over GF(q): tuples of FieldElement, index i = coefficient of x^i,
# for `funcspace.evaluate` and `funcspace.interpolation_poly`
# ---------------------------------------------------------------------------

Poly = tuple[FieldElement, ...]


def poly_trim(f: Sequence[FieldElement]) -> Poly:
    coeffs = list(f)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(f: Sequence[FieldElement], g: Sequence[FieldElement]) -> Poly:
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        return ()
    spec = f[0].spec
    out_enc = [0] * (len(f) + len(g) - 1)
    mul, add = spec.mul_enc, spec.add_enc
    for i, fi in enumerate(f):
        ei = fi.enc
        if ei:
            for j, gj in enumerate(g):
                if gj.enc:
                    out_enc[i + j] = add(out_enc[i + j], mul(ei, gj.enc))
    return poly_trim([FieldElement(spec, e) for e in out_enc])


def poly_eval(f: Sequence[FieldElement], a: FieldElement) -> FieldElement:
    """Horner evaluation of f at a."""
    spec = a.spec
    acc = 0
    mul, add = spec.mul_enc, spec.add_enc
    ea = a.enc
    for c in reversed(list(f)):
        acc = add(mul(acc, ea), c.enc)
    return FieldElement(spec, acc)


def poly_derivative(f: Sequence[FieldElement]) -> Poly:
    """Formal derivative: coefficient i*c_i with i reduced mod p, so
    even-exponent terms vanish in characteristic 2."""
    f = poly_trim(f)
    if len(f) <= 1:
        return ()
    spec = f[0].spec
    out = [FieldElement(spec, spec.mul_enc(f[i].enc, (i % spec.p)))
           for i in range(1, len(f))]
    return poly_trim(out)
