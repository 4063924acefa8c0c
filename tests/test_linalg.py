"""sympy as an independent oracle for the exact eliminations in `linalg`,
and the entrywise sums as the reference for its product kernel.

Seeded random integer matrices up to 8x10 with entries in -3..3, among them
rank-deficient ones (products through a thin middle), matrices with zero
rows, and pivots other than +-1. No result may hold a float.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from origamis import linalg

sympy = pytest.importorskip("sympy")

SEEDS = range(12)


def _random_matrix(rng: random.Random, rows: int, cols: int):
    kind = rng.choice(("full", "thin", "zero-rows"))
    if kind == "thin":
        # rank at most k through a k-wide middle
        k = rng.randrange(1, min(rows, cols) + 1)
        left = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(k)]
        m = [[max(-3, min(3, sum(a * b for a, b in zip(row, col))))
              for col in zip(*right)] for row in left]
        # the clamp may raise the rank; repeat a row to keep it deficient
        if rows > 1:
            m[-1] = list(m[0])
    else:
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero-rows":
        for i in rng.sample(range(rows), rng.randrange(1, rows + 1)):
            m[i] = [0] * cols
    return tuple(tuple(row) for row in m)


def _matrices(seed: int, square: bool = False):
    rng = random.Random(seed)
    out = []
    for _ in range(6):
        rows = rng.randrange(1, 9)
        cols = rows if square else rng.randrange(1, 11)
        out.append(_random_matrix(rng, rows, cols))
    return out


def _exact(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def _from_sympy(m) -> tuple:
    return tuple(tuple(_exact(x) for x in m.row(i)) for i in range(m.rows))


def _no_float(obj) -> bool:
    if isinstance(obj, (tuple, list)):
        return all(_no_float(x) for x in obj)
    return obj is None or type(obj) in (int, Fraction)


def test_matrices_cover_deficient_zero_rows_and_non_unit_pivots():
    mats = [m for seed in SEEDS for m in _matrices(seed)]
    ranks = [sympy.Matrix(m).rank() for m in mats]
    assert any(r < min(len(m), len(m[0])) for m, r in zip(mats, ranks))
    assert any(not any(row) for m in mats for row in m)
    assert any(abs(x) > 1 for m in mats for row in m for x in row)
    assert max(len(m) for m in mats) == 8 and max(len(m[0]) for m in mats) == 10


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_matches_sympy(seed):
    for a in _matrices(seed):
        reduced, pivots = linalg.rref(a)
        expected, expected_pivots = sympy.Matrix(a).rref()
        assert pivots == list(expected_pivots)
        rank = len(pivots)
        assert reduced == _from_sympy(expected)[:rank]
        assert all(x == 0 for row in _from_sympy(expected)[rank:] for x in row)
        assert _no_float(reduced)


def _relation_matrix(seed: int):
    """The relation rows of a seeded random transitive origami (n <= 12):
    wide (2n columns), sparse (at most four nonzeros a row) and with unit
    pivots, one row scaled by 2 or 3, so that a non-unit pivot mostly
    follows unit ones, and a zero row put in."""
    from origamis import chain_space, make_origami
    from origamis.permutations import random_transitive_pair
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    origami = make_origami(n, *random_transitive_pair(n, rng))
    rows = [list(row) for row in chain_space(origami).relation_rows]
    k = rng.randrange(n)
    rows[k] = [rng.choice((2, 3)) * x for x in rows[k]]
    rows.insert(rng.randrange(n + 1), [0] * (2 * n))
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_matches_sympy_on_wide_sparse_relation_rows(seed):
    a = _relation_matrix(seed)
    reduced, pivots = linalg.rref(a)
    expected, expected_pivots = sympy.Matrix(a).rref()
    assert pivots == list(expected_pivots)
    assert reduced == _from_sympy(expected)[:len(pivots)]
    assert _no_float(reduced)


def nullspace(a):
    """Basis of the right kernel of a over Q, read off `linalg.rref`: a
    reference for the tests, which the library's integer kernels replaced."""
    if not a:
        return []
    reduced, pivots = linalg.rref(a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_spans_sympy_kernel(seed):
    for a in _matrices(seed):
        basis = nullspace(a)
        expected = [tuple(_exact(x) for x in v) for v in sympy.Matrix(a).nullspace()]
        assert len(basis) == len(expected)
        assert _no_float(basis)
        for v in basis:
            assert all(x == 0 for x in linalg.mat_vec(a, v))
        if basis:
            # equal spans: the same reduced row echelon form
            assert linalg.rref(tuple(basis)) == linalg.rref(tuple(expected))


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_agrees_with_sympy_consistency(seed):
    rng = random.Random(1000 + seed)
    for a in _matrices(seed):
        x0 = tuple(rng.randint(-3, 3) for _ in range(len(a[0])))
        for b in (linalg.mat_vec(a, x0),
                  tuple(rng.randint(-3, 3) for _ in range(len(a)))):
            x = linalg.solve(a, b)
            augmented = sympy.Matrix(a).row_join(sympy.Matrix(b))
            consistent = augmented.rank() == sympy.Matrix(a).rank()
            assert (x is not None) == consistent
            assert _no_float(x)
            if x is not None:
                assert linalg.mat_vec(a, x) == tuple(b)


@pytest.mark.parametrize("seed", SEEDS)
def test_det_and_inverse_match_sympy(seed):
    for a in _matrices(seed, square=True):
        m = sympy.Matrix(a)
        d = linalg.det(a)
        assert d == _exact(m.det())
        assert _no_float(d)
        if d == 0:
            with pytest.raises(ValueError):
                linalg.mat_inv(a)
        else:
            inv = linalg.mat_inv(a)
            assert inv == _from_sympy(m.inv())
            assert _no_float(inv)


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_kernel_has_sympy_nullity(seed):
    for a in _matrices(seed):
        kernel = linalg.integer_kernel(a)
        assert len(kernel) == len(a[0]) - sympy.Matrix(a).rank()
        for x in kernel:
            assert all(type(c) is int for c in x)
            assert all(v == 0 for v in linalg.mat_vec(a, x))


@pytest.mark.parametrize("seed", SEEDS)
def test_hermite_row_basis_is_reduced(seed):
    for a in _matrices(seed):
        basis = linalg.hermite_row_basis(a)
        assert len(basis) == sympy.Matrix(a).rank()
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        # echelon: zeros below each pivot and left of it
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert basis[i][p] > 0
            assert all(0 <= basis[k][p] < basis[i][p] for k in range(i))


def test_xgcd_on_a_grid_with_zeros_and_negatives():
    for a in range(-13, 14):
        for b in range(-13, 14):
            g, x, y = linalg.xgcd(a, b)
            assert g == math.gcd(a, b) >= 0 and x * a + y * b == g


def _unimodular(rng: random.Random, k: int):
    """A random k x k integer matrix of determinant +-1: row additions and
    swaps applied to the identity."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        if rng.random() < 0.2:
            u[i], u[j] = u[j], u[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return tuple(map(tuple, u))


@pytest.mark.parametrize("seed", SEEDS)
def test_hermite_row_basis_is_unique_under_unimodular_rows(seed):
    # the row Hermite form depends on the lattice only, not on its basis
    rng = random.Random(1000 + seed)
    for a in _matrices(seed):
        u = _unimodular(rng, len(a))
        assert abs(sympy.Matrix(u).det()) == 1
        assert linalg.hermite_row_basis(linalg.mat_mul(u, a)) == \
            linalg.hermite_row_basis(a)


def _max_minor_gcd(rows) -> int:
    k = len(rows)
    m = sympy.Matrix(rows)
    return math.gcd(*(int(m.extract(list(range(k)), list(cols)).det())
                      for cols in itertools.combinations(range(m.cols), k)))


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_kernel_is_saturated(seed):
    for a in _matrices(seed):
        kernel = linalg.integer_kernel(a)
        if kernel:
            assert _max_minor_gcd(kernel) == 1


def test_unit_pivot_eliminations_stay_int():
    # unimodular, every pivot rref meets is 1 or -1
    a = ((1, 2, 0), (-1, -1, 3), (0, 1, 4))
    reduced, _ = linalg.rref(a + ((2, 3, -3),))
    assert all(type(x) is int for row in reduced for x in row)
    assert all(type(x) is int for row in linalg.mat_inv(a) for x in row)
    assert type(linalg.det(a)) is int and linalg.det(a) == 1
    assert all(type(x) is int for row in linalg.identity(3) for x in row)


def entrywise_mat_mul(a, b):
    """The product as one sum of x * y per entry: the reference for the
    kernel's values."""
    bt = linalg.transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def entrywise_mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _entry(rng: random.Random, kind: str):
    n = rng.randint(-3, 3)
    if kind == "int":
        return n
    if kind == "big":
        return rng.choice((1, -1)) * rng.randint(10 ** 30, 10 ** 32)
    if kind == "unit-fraction":
        return Fraction(n)
    if kind == "fraction":
        return Fraction(n, rng.choice((1, 2, 3, 4, 6)))
    if kind == "big-fraction":
        return Fraction(rng.randint(-10 ** 31, 10 ** 31),
                        rng.choice((1, 2, 7, 10 ** 30 + 1)))
    return _entry(rng, rng.choice(("int", "fraction", "unit-fraction")))


KINDS = ("int", "big", "unit-fraction", "fraction", "big-fraction", "mixed")


def _operand(rng: random.Random, rows: int, cols: int, kind: str):
    if kind == "zero":
        return tuple(tuple(rng.choice((0, Fraction(0))) for _ in range(cols))
                     for _ in range(rows))
    return tuple(tuple(_entry(rng, kind) for _ in range(cols)) for _ in range(rows))


def _operands(seed: int):
    """(a, b, v) over every pair of entry kinds, v of b's kind with a
    column's length: zero, empty (0 x k, k x 0 and an empty inner dimension)
    and non-square shapes, entries up to 10^32."""
    rng = random.Random(seed)
    for ka, kb in itertools.product(KINDS + ("zero",), repeat=2):
        n, k, m = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 5)
        yield (_operand(rng, n, k, ka), _operand(rng, k, m, kb),
               _operand(rng, 1, k, kb)[0])


def _typed(entries):
    return [(type(x), x) for x in entries]


def _canonical(entries):
    """The entries typed by the number rule: int exactly when the
    denominator is 1."""
    return [(int if x.denominator == 1 else Fraction, x) for x in entries]


def test_product_operands_cover_the_cases():
    cases = [c for seed in SEEDS for c in _operands(seed)]
    shapes = {(len(a), len(v), len(b[0]) if b else 0) for a, b, v in cases}
    assert any(n == 0 for n, _, _ in shapes) and any(m == 0 for _, _, m in shapes)
    assert any(k == 0 for _, k, _ in shapes)
    assert any(n != m for n, _, m in shapes)
    entries = [x for a, b, v in cases for x in itertools.chain(v, *a, *b)]
    assert any(type(x) is Fraction and x.denominator == 1 for x in entries)
    assert any(abs(x) > 10 ** 30 for x in entries)
    # products whose entries are partly int and partly Fraction
    assert any(len(set(map(type, itertools.chain(*linalg.mat_mul(a, b))))) == 2
               for a, b, _ in cases)
    # entries whose entrywise sum is an integral Fraction come out as ints
    made_int = [type(x) for a, b, _ in cases
                for row, expected_row in zip(linalg.mat_mul(a, b),
                                             entrywise_mat_mul(a, b))
                for x, y in zip(row, expected_row)
                if type(y) is Fraction and y.denominator == 1]
    assert made_int and set(made_int) == {int}


@pytest.mark.parametrize("seed", SEEDS)
def test_mat_mul_matches_entrywise_values_and_types(seed):
    for a, b, _ in _operands(seed):
        expected = entrywise_mat_mul(a, b)
        product = linalg.mat_mul(a, b)
        assert len(product) == len(expected)
        for row, expected_row in zip(product, expected):
            assert _typed(row) == _canonical(expected_row)


@pytest.mark.parametrize("seed", SEEDS)
def test_mat_vec_matches_entrywise_values_and_types(seed):
    for a, b, v in _operands(seed):
        assert _typed(linalg.mat_vec(a, v)) == _canonical(entrywise_mat_vec(a, v))
        for col in linalg.transpose(b):
            assert _typed(linalg.mat_vec(a, col)) == \
                _canonical(entrywise_mat_vec(a, col))
