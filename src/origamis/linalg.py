"""Exact linear algebra over Q and Z on tuple-of-tuples matrices.

The number rule: every entry an exact kernel returns is an int when it is
integral and a Fraction otherwise.

The exact kernels run on integer numerators over one common denominator d,
scaled by `_over_lcm` and divided once at the end by `_divided`: the
products (mat_mul, mat_vec) and `rref` here, through rref `solve` and
`mat_inv`, and in `homology` and `affine` the canonical forms, the subspace
coordinates and the lift images. All-int operands of a product are
multiplied as ints.

A `Row` is a sparse integer row, its nonzero (col, coeff) pairs: `_row`
sums the lift maps into Rows, `_sparse_over_lcm` makes the relation reducer
and the subspace bases from dense rows, and `dense_view` reads Rows back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import attrgetter, floordiv, mul
from typing import Sequence

Vec = tuple[int | Fraction, ...]
Mat = tuple[Vec, ...]
Row = tuple[tuple[int, int], ...]  # ((col, coeff), ...), columns ascending


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    if Fraction in set(map(type, chain(*a, *bt))):
        return _scaled_products(a, bt)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a: Mat, v: Vec) -> Vec:
    if Fraction in set(map(type, chain(v, *a))):
        return tuple([row[0] for row in _scaled_products(a, (v,))])
    return tuple([sum(map(mul, row, v)) for row in a])


_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


def _scaled_products(rows: Mat, cols: Mat) -> Mat:
    """The sums of x * y of each row against each col, taken on the integer
    rows and cols over their lcms."""
    d_rows, int_rows = _over_lcm(rows)
    d_cols, int_cols = _over_lcm(cols)
    d = d_rows * d_cols
    return tuple([_divided([sum(map(mul, row, col)) for col in int_cols], d)
                  for row in int_rows])


def _over_lcm(rows: Mat) -> tuple[int, list[tuple[int, ...]]]:
    """(d, the rows times d as ints), d the lcm of the entries'
    denominators: 1 and the rows themselves when no entry is a Fraction."""
    if Fraction not in set(map(type, chain.from_iterable(rows))):
        return 1, list(map(tuple, rows))
    d = lcm(*map(_DENOMINATOR, chain.from_iterable(rows)))
    return d, [tuple(map(mul, map(_NUMERATOR, row),
                         map(floordiv, repeat(d), map(_DENOMINATOR, row))))
               for row in rows]


def _divided(ints: Sequence[int], d: int) -> Vec:
    """The entries x / d, each an int when d divides x, else a Fraction."""
    if d == 1:
        return tuple(ints)
    return tuple([x // d if x % d == 0 else Fraction(x, d) for x in ints])


def _sparse_over_lcm(basis: Sequence[Vec]) -> tuple[int, tuple[Row, ...]]:
    """`_over_lcm` of a basis, as Rows."""
    d, rows = _over_lcm(basis)
    return d, tuple(tuple((j, y) for j, y in enumerate(row) if y) for row in rows)


def _row(acc: dict) -> Row:
    """The Row of a sum held as {col: coeff}."""
    return tuple(sorted([(j, x) for j, x in acc.items() if x]))


def _add_to(acc: dict, row, c: int = 1) -> dict:
    """acc += c * row, for row pairs (col, coeff)."""
    get = acc.get
    for j, x in row:
        acc[j] = get(j, 0) + c * x
    return acc


def dense_view(rows: Sequence[Row], width: int | None = None) -> Mat:
    """The dense matrix of Rows, `width` (or as many) columns wide."""
    columns = range(len(rows) if width is None else width)
    return tuple(tuple(map(dict(row).get, columns, repeat(0))) for row in rows)


def _product(a: Sequence[Row], b: Sequence[Row]) -> tuple[Row, ...]:
    """The Rows of a * b."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row:
            _add_to(acc, b[k], x)
        out.append(_row(acc))
    return tuple(out)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def exact(x):
    """x as an int when its denominator is 1."""
    return x.numerator if x.denominator == 1 else x


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form over Q; returns (rref, pivot column list).

    Gauss-Jordan on the integer rows of `_over_lcm`, at the pivot row's
    nonzeros only: a row r with f in pivot p's column becomes r - (f / p) *
    (pivot row) in place when p divides f (as a unit pivot does), else
    p * r - f * (pivot row) over the gcd of its entries. The pivots are
    divided out at the end; the RREF is unique, so it is the one of a."""
    _, rows = _over_lcm(a)
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        found = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        p = rows[rank][col]
        nonzeros = [(j, y) for j, y in enumerate(rows[rank]) if y]
        for i, row in enumerate(rows):
            if i == rank or not (f := row[col]):
                continue
            c, rest = divmod(f, p)
            if rest:
                row = rows[i] = [p * x for x in row]
                c = f
            for j, y in nonzeros:
                row[j] -= c * y
            if rest and (g := gcd(*row)) > 1:
                rows[i] = [x // g for x in row]
        pivots.append(col)
    return tuple([_divided(row, row[col]) for row, col in zip(rows, pivots)]), pivots


def solve(a: Mat, b: Vec) -> Vec | None:
    """One solution x of a x = b over Q, or None if inconsistent."""
    if not a:
        return () if all(x == 0 for x in b) else None
    ncols = len(a[0])
    augmented = tuple(row + (bv,) for row, bv in zip(a, b))
    reduced, pivots = rref(augmented)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for row, pc in zip(reduced, pivots):
        x[pc] = row[-1]
    return tuple(x)


def det(a: Mat):
    rows = [list(row) for row in a]
    n = len(rows)
    result = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            result = -result
        p = rows[col][col]
        result *= p
        inv = p if p in (1, -1) else Fraction(1) / p
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return exact(result)


def mat_inv(a: Mat) -> Mat:
    n = len(a)
    augmented = tuple(row + e for row, e in zip(a, identity(n)))
    reduced, pivots = rref(augmented)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x a + y b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    sign = -1 if a < 0 else 1
    return sign * a, sign * x0, sign * y0


def hermite_row_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form basis of the lattice spanned by integer rows:
    echelon rows with positive pivots, each entry above a pivot in
    [0, pivot). Each column comes down to one row by 2 x 2 unimodular steps:
    rows p, r with entries a, b there become x p + y r and (a r - b p) / g,
    for (g, x, y) = xgcd(a, b), a step of determinant (x a + y b) / g = 1."""
    work = [list(map(int, row)) for row in rows if any(row)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        live = [row for row in work if row[col]]
        if not live:
            continue
        work = [row for row in work if not row[col]]
        pivot = live[0]
        for row in live[1:]:
            g, x, y = xgcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            pivot, row = ([x * p + y * r for p, r in zip(pivot, row)],
                          [a * r - b * p for p, r in zip(pivot, row)])
            if any(row):
                work.append(row)
        basis.append(pivot if pivot[col] > 0 else [-x for x in pivot])
        pivots.append(col)
    # reduce above-pivot entries, first pivot first: a later pivot row is
    # zero in every earlier pivot column, so it leaves them reduced
    for i, pcol in enumerate(pivots):
        for k in range(i):
            q = basis[k][pcol] // basis[i][pcol]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return basis


def integer_kernel(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Z-basis of {x integer: a x = 0}: the rows of the Hermite basis of
    [a^T | I] whose a^T part is zero. The rows of [a^T | I] span the lattice
    {(a x, x)}; in an echelon basis of it, the rows with a zero a^T part
    span every vector with a zero a^T part."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rows = [[a[i][j] for i in range(nrows)] + [int(k == j) for k in range(ncols)]
            for j in range(ncols)]
    return [row[nrows:] for row in hermite_row_basis(rows) if not any(row[:nrows])]
