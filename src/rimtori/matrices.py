"""Exact integer matrices and their normal forms.

Everything here is computed over plain Python integers, which are
arbitrary precision; no floating point is used anywhere.  Matrices are
immutable values, so they can be shared freely and used as dict keys.
Each matrix object reduces itself at most once: its Hermite form and its
Smith elimination are computed when first asked for and kept on it, so
every question about one object shares them.  Equal but distinct
objects do not share a reduction.

A matrix built by ``hstack`` or ``block_diagonal`` starts its Hermite form from
the forms its blocks already have, and their blocks in turn, at any depth, as
HNF([R | G]) = HNF([HNF(R) | G]) and HNF(R + S) = HNF(R) + HNF(S); no block is
reduced just for this, and one echelon run at most reduces the seed.

Values are checked once, where they enter: the ``IntMatrix(...)`` constructor,
``from_rows``, ``from_columns``, ``identity``, ``zeros``, ``scale`` and every function
taking a vector.  What the library builds from matrices it holds skips the entry scan:
``@``, ``+``, ``-``, stacks, Hermite forms, ``kernel_projection``, the Smith ``d`` and U, V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import add, mul, sub
from typing import Iterable, Sequence


def require_ints(rows: Sequence[Sequence], what: str) -> None:
    """Raise TypeError naming the first entry of ``rows`` that is not an int."""
    # one set/map pass over the entries: a bool, float or str is refused, not coerced
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not int)
        raise TypeError(f"{what} must be int, not {type(bad).__name__} {bad!r}")


def _require_dimensions(rows, cols) -> None:
    if type(rows) is not int or type(cols) is not int:
        bad = cols if type(rows) is int else rows
        raise TypeError(f"matrix dimensions must be int, not {type(bad).__name__} {bad!r}")
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")


def _trusted(rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """A matrix of entries already checked or built from checked ones, with no scan; fields
    set in ``__init__``'s order keep the instance dict's keys shared with checked matrices."""
    matrix = object.__new__(IntMatrix)
    object.__setattr__(matrix, "rows", rows)
    object.__setattr__(matrix, "cols", cols)
    object.__setattr__(matrix, "entries", entries)
    return matrix


def _trusted_columns(columns: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    return _trusted(rows, len(columns), tuple(zip(*columns)) if columns else ((),) * rows)


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols matrix of integers, stored row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    # Plain attributes, not fields: a stacking constructor sets the blocks and the
    # first Hermite form sets ``_form``; reading them never builds ``__dict__``.
    _blocks = (False, [])
    _form = None

    @property
    def _hermite(self) -> IntMatrix:
        if self._form is None:
            seed, reduced = self._seed()
            object.__setattr__(self, "_form", seed if reduced else _echelon(seed))
        return self._form

    def _seed(self) -> tuple[IntMatrix, bool]:
        """The same lattice with each nested block's held form in place of the block, and
        whether that is already the Hermite form; built only if some nested block holds one."""
        diagonal, blocks = self._blocks
        seeds = [(b._form, True) if b._form else b._seed() if b._blocks[1] else (b, False)
                 for b in blocks]
        if all(s is b for (s, _), b in zip(seeds, blocks)):
            return self, False
        if diagonal:  # HNF(R + S) = HNF(R) + HNF(S)
            return block_diagonal(s for s, _ in seeds), all(r for _, r in seeds)
        return seeds[0][0].hstack(seeds[1][0]), False

    @cached_property
    def _smith(self) -> SmithDecomposition:
        return _eliminate(self)

    def __post_init__(self):
        _require_dimensions(self.rows, self.cols)
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        if not {self.cols}.issuperset(map(len, self.entries)):
            raise ValueError("ragged rows in matrix")
        require_ints(self.entries, "matrix entries")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        """Build from a list of rows; ``cols`` gives the empty case's width, else must match."""
        rows = tuple(map(tuple, rows))
        width = len(rows[0]) if rows else cols or 0
        if cols is not None and cols != width:
            raise ValueError(f"rows have {width} entries, not cols={cols}")
        return IntMatrix(len(rows), width, rows)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: int | None = None) -> IntMatrix:
        """Build from column vectors; ``rows`` gives the empty case's height, else must match."""
        columns = list(map(tuple, columns))
        height = len(columns[0]) if columns else rows or 0
        if rows is not None and rows != height:
            raise ValueError(f"columns have {height} entries, not rows={rows}")
        if not {height}.issuperset(map(len, columns)):
            raise ValueError("ragged columns")
        return IntMatrix(height, len(columns), tuple(zip(*columns)) if columns else ((),) * height)

    @staticmethod
    def identity(n: int) -> IntMatrix:
        _require_dimensions(n, n)
        return _trusted(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> IntMatrix:
        _require_dimensions(rows, cols)
        return _trusted(rows, cols, tuple((0,) * cols for _ in range(rows)))

    # -- basic structure ------------------------------------------------

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries)) if self.rows else [()] * self.cols

    def hstack(self, other: IntMatrix) -> IntMatrix:
        if self.rows != other.rows:
            raise ValueError("hstack requires equal row counts")
        data = tuple(a + b for a, b in zip(self.entries, other.entries))
        stacked = _trusted(self.rows, self.cols + other.cols, data)
        object.__setattr__(stacked, "_blocks", (False, [self, other]))
        return stacked

    def vstack(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.cols:
            raise ValueError("vstack requires equal column counts")
        return _trusted(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.columns()
        data = tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.entries])
        return _trusted(self.rows, other.cols, data)

    def __neg__(self) -> IntMatrix:
        return self.scale(-1)

    def scale(self, c: int) -> IntMatrix:
        if type(c) is not int:
            raise TypeError(f"scale factor must be int, not {type(c).__name__} {c!r}")
        return _trusted(self.rows, self.cols,
                        tuple(tuple(c * x for x in row) for row in self.entries))

    def __add__(self, other: IntMatrix) -> IntMatrix:
        return self._entrywise(add, other)

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        return self._entrywise(sub, other)

    def _entrywise(self, op, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        data = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        return _trusted(self.rows, self.cols, data)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple([sum(map(mul, row, vector)) for row in self.entries])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def block_diagonal(blocks: Iterable[IntMatrix]) -> IntMatrix:
    """Direct sum of matrices along the diagonal."""
    blocks = list(blocks)
    cols = sum(b.cols for b in blocks)
    data, c0 = [], 0
    for b in blocks:
        data += [(0,) * c0 + row + (0,) * (cols - c0 - b.cols) for row in b.entries]
        c0 += b.cols
    stacked = _trusted(len(data), cols, tuple(data))
    object.__setattr__(stacked, "_blocks", (True, blocks))
    return stacked


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


# An elementary operation (i, j, c) on entries i, j of a vector: add c times
# entry j to entry i when c != 0, swap them when c == 0, and negate i when
# (i, j, c) == (i, i, -1).  Column operations never negate.
Op = tuple[int, int, int]


def _replay_on_vector(ops: Iterable[Op], x: list[int]) -> None:
    for i, j, c in ops:
        if not c:
            x[i], x[j] = x[j], x[i]
        elif i == j:
            x[i] = -x[i]
        else:
            x[i] += c * x[j]


def _replayed_identity(ops: Sequence[Op], n: int, start: int = 0) -> IntMatrix:
    """Columns start, start + 1, ... of the n x n identity with ``ops`` replayed on each."""
    columns = [[0] * j + [1] + [0] * (n - 1 - j) for j in range(start, n)]
    for x in columns:
        _replay_on_vector(ops, x)
    return _trusted_columns(columns, n)


@dataclass(frozen=True)
class SmithDecomposition:
    """Diagonal D = U @ A @ V, kept as D plus the operations that produced it.

    The diagonal entries of D are nonnegative and each divides the next.
    ``row_ops`` are the row operations of the elimination in order, so U
    is them applied to the identity; ``col_ops`` are its column
    operations, so V is them applied to the identity's columns.  Each log
    has one reader, ``_replay_on_vector``: U, U^-1, V and ``kernel()`` are
    its replays on unit vectors when first read, ``solve`` its replay on b.
    """

    d: IntMatrix
    row_ops: tuple[Op, ...]
    col_ops: tuple[Op, ...]

    @cached_property
    def u(self) -> IntMatrix:
        return _replayed_identity(self.row_ops, self.d.rows)

    @cached_property
    def _u_inverse(self) -> IntMatrix:
        # the row log undone last to first: swaps and negations undo themselves, c becomes -c
        undo = tuple((i, j, c if i == j else -c) for i, j, c in reversed(self.row_ops))
        return _replayed_identity(undo, self.d.rows)

    @cached_property
    def v(self) -> IntMatrix:
        return _replayed_identity(self._v_ops, self.d.cols)

    @cached_property
    def _v_ops(self) -> tuple[Op, ...]:
        """Operations whose replay on a vector y gives V @ y."""
        # V = F_1 ... F_k, so V y applies F_k first; F for "column i += c column j"
        # acts on a vector as "entry j += c entry i"
        return tuple((j, i, c) for i, j, c in reversed(self.col_ops))

    @cached_property
    def _diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()

    def diagonal(self) -> tuple[int, ...]:
        return self._diagonal

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """Solve A @ x = b over the integers, as D y = U b and x = V y; None if unsolvable."""
        require_ints([b], "vector entries")
        if len(b) != self.d.rows:
            raise ValueError("right-hand side length does not match row count")
        c = list(b)
        _replay_on_vector(self.row_ops, c)
        diag = self.diagonal()
        y = [0] * self.d.cols
        for i, ci in enumerate(c):
            di = diag[i] if i < len(diag) else 0
            if di:
                if ci % di:
                    return None
                y[i] = ci // di
            elif ci:
                return None
        _replay_on_vector(self._v_ops, y)
        return tuple(y)

    def kernel(self) -> IntMatrix:
        """Columns rank, rank + 1, ... of V: a basis of the integer kernel of A."""
        return _replayed_identity(self._v_ops, self.d.cols, sum(map(bool, self.diagonal())))


def smith_decomposition(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers, with U and V built only when read.

    The elimination runs once per matrix object and is kept on it, so
    ``smith_normal_form``, ``solve_integral``, ``integer_kernel`` and
    ``lattice_contains`` on one object share it.
    """
    return a._smith


def _eliminate(a: IntMatrix) -> SmithDecomposition:
    """The Smith elimination of ``a``, recorded as operation logs.

    Pivots are chosen as the minimal-absolute-value nonzero entry of the
    remaining block, ties broken by (row, col), so the output is
    deterministic.  Empty matrices are legal and produce identity
    transforms.  Step t works on the block of rows and columns t and
    beyond: everything outside it is already zero off the diagonal, so
    the operations on that block are all of the elimination's operations.
    A unit ends the pivot scan, a unit pivot skips the divisibility scan
    and row 0 is cleared in one pass; no recorded operation changes.
    """
    m, n = a.rows, a.cols
    w = list(map(list, a.entries))  # the active block at step t
    row_ops: list[Op] = []
    col_ops: list[Op] = []
    diag = []

    def swap_rows(i, j):
        if i != j:
            w[i], w[j] = w[j], w[i]
            row_ops.append((t + i, t + j, 0))

    def swap_cols(i, j):
        if i != j:
            for row in w:
                row[i], row[j] = row[j], row[i]
            col_ops.append((t + i, t + j, 0))

    def add_row(dst, src, c):
        if c:
            w[dst] = [x + c * y for x, y in zip(w[dst], w[src])]
            row_ops.append((t + dst, t + src, c))

    for t in range(min(m, n)):
        # the first entry of least absolute value, in (row, col) order; no row
        # after the first one holding a unit can hold a smaller entry
        least = []
        for row in w:
            least.append(x := min(map(abs, filter(None, row)), default=0))
            if x == 1:
                break
        size = min(filter(None, least), default=0)
        if not size:
            break
        i = least.index(size)
        swap_rows(0, i)
        swap_cols(0, list(map(abs, w[0])).index(size))
        while True:
            # clear column 0 one row at a time: operations on rows 0 and i leave
            # the rows between them zero in column 0
            for i in range(1, m - t):
                while w[i][0]:
                    add_row(i, 0, -(w[i][0] // w[0][0]))
                    if w[i][0]:
                        # remainder is strictly smaller: adopt it as the pivot
                        swap_rows(i, 0)
            # column 0 is zero below the pivot: only row 0 changes until a remainder pivots
            for j in range(1, n - t):
                if w[0][j]:
                    q = w[0][j] // w[0][0]
                    if q:
                        w[0][j] -= q * w[0][0]
                        col_ops.append((t + j, t, -q))
                    if w[0][j]:
                        swap_cols(j, 0)
                        break
            else:
                if w[0][0] in (1, -1):
                    break  # a unit pivot divides every entry
                bad = next((i for i in range(1, m - t)
                            if any(x % w[0][0] for x in w[i][1:])), None)
                if bad is None:
                    break
                # pull the offending row up so the pivot shrinks to the gcd
                add_row(0, bad, 1)
        if w[0][0] < 0:
            w[0][0] = -w[0][0]
            row_ops.append((t, t, -1))
        diag.append(w[0][0])
        del w[0]  # drop row 0 and column 0 in place: the next step's block
        for row in w:
            del row[0]

    d = tuple((0,) * i + (x,) + (0,) * (n - 1 - i) for i, x in enumerate(diag))
    d += ((0,) * n,) * (m - len(diag))
    return SmithDecomposition(_trusted(m, n, d), tuple(row_ops), tuple(col_ops))


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: ``smith_decomposition`` with U and V built."""
    dec = smith_decomposition(a)
    dec.u, dec.v  # reading the cached transforms builds them now
    return dec


def hermite_form(a: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form with zero columns dropped.

    The result spans the same column lattice as the input and is the
    canonical representative of that lattice: two matrices span the same
    lattice iff their Hermite forms are equal.  It is computed once per
    matrix object and kept on it.
    """
    return a._hermite


def _echelon(a: IntMatrix) -> IntMatrix:
    """The column Hermite form of ``a``: the echelon pass over its columns."""
    h = list(map(list, a.columns()))
    r = _echelon_pass(h, a.rows)
    return _trusted_columns(h[:r], a.rows)


def _echelon_pass(h: list[list[int]], pivots: int) -> int:
    """Bring the vectors ``h`` in place, by unimodular steps, to column Hermite form on
    coordinates 0 ... pivots-1; return the rank r, past which vectors are zero there."""
    # coordinate c is pivoted by vector r; vectors r and beyond are zero before
    # coordinate c, so every update touches coordinates c and beyond only
    m = len(h)
    r = 0
    for c in range(pivots):
        if r == m:
            break
        while True:
            # the first vector of least nonzero absolute value at coordinate c
            i0, least = r, 0
            for i in range(r, m):
                e = h[i][c]
                if e and (not least or abs(e) < least):
                    i0, least = i, abs(e)
                    if least == 1:
                        break  # no later vector can beat a unit
            if not least:
                break
            h[r], h[i0] = h[i0], h[r]
            p, tail = h[r][c], h[r][c:]
            reduced = True
            for i in range(r + 1, m):
                e = h[i][c]
                if e:
                    # nearest-integer quotient: the remainder is at most |p| / 2
                    q = (2 * e + p) // (2 * p)
                    v = h[i]
                    v[c:] = [x - q * y for x, y in zip(v[c:], tail)]
                    if v[c]:
                        reduced = False
            if reduced:
                break
        if r < m and h[r][c] != 0:
            v = h[r]
            if v[c] < 0:
                v[c:] = [-x for x in v[c:]]
            p, tail = v[c], v[c:]
            for i in range(r):
                # floor quotients: the entries above the pivot end in [0, p)
                q = h[i][c] // p
                if q:
                    h[i][c:] = [x - q * y for x, y in zip(h[i][c:], tail)]
            r += 1
    return r


def kernel_projection(a: IntMatrix, k: int) -> IntMatrix:
    """Columns spanning the first ``k`` coordinates of the integer kernel of ``a``.

    The echelon pass runs on the columns of [a; I_k 0], pivoting a's rows; as it is
    unimodular, the lower parts of the vectors past the rank span that projection.
    """
    if not 0 <= k <= a.cols:
        raise ValueError(f"cannot project the kernel of {a.cols} columns onto {k} coordinates")
    lower = IntMatrix.identity(k).entries + ((0,) * k,) * (a.cols - k)
    h = [list(col + e) for col, e in zip(a.columns(), lower)]
    r = _echelon_pass(h, a.rows)
    return _trusted_columns([v[a.rows:] for v in h[r:]], k)


def hermite_contains(h: IntMatrix, b: Sequence[int]) -> bool:
    """Whether the lattice of the column Hermite form ``h`` holds ``b``, with no elimination."""
    if len(b) != h.rows:
        raise ValueError("right-hand side length does not match row count")
    require_ints([b], "vector entries")
    x = []  # coordinates of b on the columns whose pivots are passed
    for bi, row in zip(b, h.entries):
        left = bi - sum(map(mul, x, row))
        # a pivot must divide what is left of its entry; any other row must be left at 0
        if len(x) < h.cols and row[len(x)]:
            q, left = divmod(left, row[len(x)])
            x.append(q)
        if left:
            return False
    return True


def solve_integral(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Solve a @ x = b over the integers; None when no solution exists."""
    return smith_decomposition(a).solve(b)


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Columns spanning the lattice of integer solutions of a @ x = 0."""
    return smith_decomposition(a).kernel()


def lattice_contains(a: IntMatrix, vector: Sequence[int]) -> bool:
    """Whether the column lattice of ``a`` contains ``vector``."""
    return solve_integral(a, vector) is not None
