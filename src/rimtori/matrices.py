"""Exact integer matrices and their normal forms.

Everything here is computed over plain Python integers, which are
arbitrary precision; no floating point is used anywhere.  Matrices are
immutable values, so they can be shared freely and used as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols matrix of integers, stored row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        """Build from a list of rows; ``cols`` disambiguates the empty case."""
        rows = [tuple(int(x) for x in r) for r in rows]
        if rows:
            width = len(rows[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        return IntMatrix(len(rows), width, tuple(rows))

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: int | None = None) -> IntMatrix:
        """Build from a list of column vectors; ``rows`` disambiguates the empty case."""
        columns = [tuple(int(x) for x in c) for c in columns]
        if columns:
            height = len(columns[0])
        elif rows is not None:
            height = rows
        else:
            height = 0
        for c in columns:
            if len(c) != height:
                raise ValueError("ragged columns")
        data = tuple(tuple(c[i] for c in columns) for i in range(height))
        return IntMatrix(height, len(columns), data)

    @staticmethod
    def identity(n: int) -> IntMatrix:
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> IntMatrix:
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    # -- basic structure ------------------------------------------------

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(self.cols, self.rows,
                         tuple(self.column(j) for j in range(self.cols)))

    def hstack(self, other: IntMatrix) -> IntMatrix:
        if self.rows != other.rows:
            raise ValueError("hstack requires equal row counts")
        data = tuple(a + b for a, b in zip(self.entries, other.entries))
        return IntMatrix(self.rows, self.cols + other.cols, data)

    def vstack(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.cols:
            raise ValueError("vstack requires equal column counts")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.columns()
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, data)

    def __neg__(self) -> IntMatrix:
        return self.scale(-1)

    def scale(self, c: int) -> IntMatrix:
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(c * x for x in row) for row in self.entries))

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        data = tuple(tuple(a + b for a, b in zip(r1, r2))
                     for r1, r2 in zip(self.entries, other.entries))
        return IntMatrix(self.rows, self.cols, data)

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        return self + (-other)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def block_diagonal(blocks: Iterable[IntMatrix]) -> IntMatrix:
    """Direct sum of matrices along the diagonal."""
    blocks = list(blocks)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    data = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            for j, x in enumerate(row):
                data[r0 + i][c0 + j] = x
        r0 += b.rows
        c0 += b.cols
    return IntMatrix.from_rows(data, cols=cols)


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal D with D = U @ A @ V.

    The diagonal entries of D are nonnegative and each divides the next.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()

    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """Solve A @ x = b over the integers, as D y = U b and x = V y; None if unsolvable."""
        c = self.u.apply(b)
        diag = self.diagonal()
        y = [0] * self.v.rows
        for i, ci in enumerate(c):
            di = diag[i] if i < len(diag) else 0
            if di:
                if ci % di:
                    return None
                y[i] = ci // di
            elif ci:
                return None
        return self.v.apply(y)


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers with transform tracking.

    Pivots are chosen as the minimal-absolute-value nonzero entry of the
    remaining block, ties broken by (row, col), so the output is
    deterministic.  Empty matrices are legal and produce identity
    transforms.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(m, n)):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (pivot is None or abs(x) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            i = next((i for i in range(m) if i != t and d[i][t] != 0), None)
            if i is not None:
                q = d[i][t] // d[t][t]
                add_row(i, t, -q)
                if d[i][t]:
                    # remainder is strictly smaller: adopt it as the pivot
                    swap_rows(i, t)
                continue
            j = next((j for j in range(n) if j != t and d[t][j] != 0), None)
            if j is not None:
                q = d[t][j] // d[t][t]
                add_col(j, t, -q)
                if d[t][j]:
                    swap_cols(j, t)
                continue
            bad = next((i for i in range(t + 1, m)
                        if any(d[i][j] % d[t][t] for j in range(t + 1, n))), None)
            if bad is None:
                break
            # pull the offending row up so the pivot shrinks to the gcd
            add_row(t, bad, 1)
        if d[t][t] < 0:
            negate_row(t)

    return SmithDecomposition(
        IntMatrix.from_rows(u, cols=m),
        IntMatrix.from_rows(d, cols=n),
        IntMatrix.from_rows(v, cols=n),
    )


def hermite_form(a: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form with zero columns dropped.

    The result spans the same column lattice as the input and is the
    canonical representative of that lattice: two matrices span the same
    lattice iff their Hermite forms are equal.
    """
    # echelon loop over the columns as vectors: coordinate c is pivoted by vector r
    m = a.cols
    h = [list(col) for col in a.columns()]
    r = 0
    for c in range(a.rows):
        if r == m:
            break
        while True:
            nonzero = [i for i in range(r, m) if h[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(h[i][c]), i))
            h[r], h[i0] = h[i0], h[r]
            p = h[r][c]
            reduced = True
            for i in range(r + 1, m):
                if h[i][c]:
                    q = h[i][c] // p
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    if h[i][c]:
                        reduced = False
            if reduced:
                break
        if r < m and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            p = h[r][c]
            for i in range(r):
                q = h[i][c] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            r += 1
    # vectors r and beyond have been reduced to zero
    return IntMatrix.from_columns(h[:r], rows=a.rows)


def solve_integral(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Solve a @ x = b over the integers; None when no solution exists."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    return smith_normal_form(a).solve(b)


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Columns spanning the lattice of integer solutions of a @ x = 0."""
    dec = smith_normal_form(a)
    rank = dec.rank()
    basis = [dec.v.column(j) for j in range(rank, a.cols)]
    return IntMatrix.from_columns(basis, rows=a.cols)


def lattice_contains(a: IntMatrix, vector: Sequence[int]) -> bool:
    """Whether the column lattice of ``a`` contains ``vector``."""
    return solve_integral(a, vector) is not None
