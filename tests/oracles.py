"""Independent computation routes used to check the library against.

Only one helper here uses the reduction code under test.  The Smith-form
diagonal oracle uses a different pivoting rule (first nonzero entry
instead of minimal absolute value) and returns only the diagonal, the
sympy helpers go through sympy's own normal-form implementation, and the
lattice helpers brute-force small boxes.  The exception is the quadratic
sheet search: it calls the library's ``solve_integral``, because
``deck_action`` promises exactly that solver's witnesses, and what it
checks independently is how sheets are told apart and matched.
``smith_normal_form_tracked`` is a frozen copy of the library's Smith
elimination with eagerly tracked transforms; the library must give
exactly its U, D and V.  ``hermite_form_echelon`` is a frozen copy of
the library's original column Hermite echelon loop; the Hermite form is
canonical, so the library must return exactly its output.
``eliminate_reference`` is a frozen copy of the library's Smith
elimination as operation logs; the library must record exactly its
diagonal and operations.
"""

from __future__ import annotations

import random
from operator import add

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp

from rimtori import (
    DivisorComponent,
    DivisorData,
    FgAbGroup,
    Homomorphism,
    IntMatrix,
    contact_sum_hom,
    rim_tori_module,
    solve_integral,
)
from rimtori.squares import ExactSquare


def snf_diagonal_first_pivot(rows: list[list[int]]) -> list[int]:
    """Smith diagonal with first-nonzero pivoting, no transform tracking."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    d = [list(r) for r in rows]
    diag = []
    t = 0
    while t < min(m, n):
        pivot = next(((i, j) for i in range(t, m) for j in range(t, n) if d[i][j]), None)
        if pivot is None:
            break
        d[t], d[pivot[0]] = d[pivot[0]], d[t]
        for row in d:
            row[t], row[pivot[1]] = row[pivot[1]], row[t]
        while True:
            i = next((i for i in range(m) if i != t and d[i][t]), None)
            if i is not None:
                q = d[i][t] // d[t][t]
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                if d[i][t]:
                    d[t], d[i] = d[i], d[t]
                continue
            j = next((j for j in range(n) if j != t and d[t][j]), None)
            if j is not None:
                q = d[t][j] // d[t][t]
                for row in d:
                    row[j] -= q * row[t]
                if d[t][j]:
                    for row in d:
                        row[t], row[j] = row[j], row[t]
                continue
            bad = next((i for i in range(t + 1, m)
                        if any(d[i][j] % d[t][t] for j in range(t + 1, n))), None)
            if bad is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[bad])]
        diag.append(abs(d[t][t]))
        t += 1
    return diag


def quotient_canonical_oracle(rows: list[list[int]], ambient_rank: int):
    """Canonical form of Z^ambient_rank modulo the columns of ``rows``."""
    diag = snf_diagonal_first_pivot(rows)
    rank = sum(1 for x in diag if x)
    return (ambient_rank - rank, tuple(x for x in diag if x > 1))


def sympy_invariant_factors(rows: list[list[int]]) -> tuple[int, ...]:
    if not rows or not rows[0]:
        return ()
    return tuple(int(x) for x in invariant_factors(Matrix(rows)))


def sympy_cokernel_canonical(rows: list[list[int]], target_rank: int):
    """Canonical form of Z^target_rank modulo the column span of ``rows``."""
    factors = sympy_invariant_factors(rows)
    rank = sum(1 for x in factors if x)
    return (target_rank - rank, tuple(x for x in factors if x > 1))


def lattice_points_in_box(generator_columns: list[tuple[int, ...]], bound: int,
                          coeff_bound: int = 12) -> set[tuple[int, ...]]:
    """All lattice points with coordinates in [-bound, bound], brute force.

    The combinations with coefficients in [-coeff_bound, coeff_bound] are
    built as iterated sums, one column at a time with duplicates dropped,
    and only the final set is cut to the box.
    """
    dim = len(generator_columns[0]) if generator_columns else 0
    points = {(0,) * dim}
    for g in generator_columns:
        multiples = [tuple(c * x for x in g) for c in range(-coeff_bound, coeff_bound + 1)]
        points = {tuple(map(add, p, m)) for p in points for m in multiples}
    return {v for v in points if all(abs(x) <= bound for x in v)}


# -- independent exactness oracle for squares of free groups ----------------
#
# Free nodes make exactness pure lattice algebra, so every verdict can be
# recomputed through sympy's Smith decomposition instead of the library's
# kernels and Hermite forms.

def _sympy_smith(matrix: IntMatrix):
    dm = DomainMatrix.from_Matrix(Matrix([list(r) for r in matrix.entries])).convert_to(ZZ)
    s, u, v = smith_normal_decomp(dm)
    diag = [int(s.to_Matrix()[i, i]) for i in range(min(matrix.rows, matrix.cols))]
    return diag, (s.to_Matrix(), u.to_Matrix(), v.to_Matrix())


def sympy_solve_z(matrix: IntMatrix, b):
    """Integer solution of matrix @ x = b through sympy's decomposition."""
    if matrix.cols == 0:
        return () if all(x == 0 for x in b) else None
    if matrix.rows == 0:
        return (0,) * matrix.cols
    _, (sm, um, vm) = _sympy_smith(matrix)
    c = um * Matrix(len(b), 1, list(b))
    y = [0] * matrix.cols
    for i in range(matrix.rows):
        d = sm[i, i] if i < min(matrix.rows, matrix.cols) else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    x = vm * Matrix(matrix.cols, 1, y)
    return tuple(int(entry) for entry in x)


def sympy_kernel_columns(matrix: IntMatrix):
    if matrix.cols == 0:
        return []
    if matrix.rows == 0:
        return [tuple(int(i == j) for i in range(matrix.cols)) for j in range(matrix.cols)]
    diag, (_, _, vm) = _sympy_smith(matrix)
    rank = sum(1 for d in diag if d)
    return [tuple(int(vm[i, j]) for i in range(matrix.cols))
            for j in range(rank, matrix.cols)]


def independent_free_square_report(square: ExactSquare):
    """Recompute every verdict of a free-node square via sympy."""

    def seq(m1: IntMatrix, m2: IntMatrix, end_rank: int):
        injective = len(sympy_kernel_columns(m1)) == 0
        image_in_kernel = all(
            all(x == 0 for x in m2.apply(m1.column(j))) for j in range(m1.cols))
        kernel_in_image = all(
            sympy_solve_z(m1, k) is not None for k in sympy_kernel_columns(m2))
        surjective = all(
            sympy_solve_z(m2, tuple(int(i == j) for i in range(end_rank))) is not None
            for j in range(end_rank))
        return (injective, image_in_kernel and kernel_in_image, surjective)

    rows = []
    cols = []
    for i in range(3):
        rows.append(seq(square.row_map(i, 0).matrix, square.row_map(i, 1).matrix,
                        square.nodes[i][2].ambient_rank))
        cols.append(seq(square.col_map(i, 0).matrix, square.col_map(i, 1).matrix,
                        square.nodes[2][i].ambient_rank))
    cells = []
    for i in range(2):
        for j in range(2):
            a = square.row_map(i + 1, j).matrix @ square.col_map(j, i).matrix
            b = square.col_map(j + 1, i).matrix @ square.row_map(i, j).matrix
            cells.append(a == b)
    return rows, cols, cells


def report_tuples(report):
    rows = [(r.injective, r.exact_middle, r.surjective) for r in report.rows]
    cols = [(c.injective, c.exact_middle, c.surjective) for c in report.cols]
    return rows, cols, list(report.cells)


def square_perturbations(square: ExactSquare):
    """Every square obtained by changing one matrix entry by +-1."""
    for which in ("row", "col"):
        source_maps = square.row_maps if which == "row" else square.col_maps
        for k, base in enumerate(source_maps):
            m = base.matrix
            for i in range(m.rows):
                for j in range(m.cols):
                    for delta in (1, -1):
                        rows = [list(r) for r in m.entries]
                        rows[i][j] += delta
                        changed = Homomorphism(
                            base.source, base.target,
                            IntMatrix.from_rows(rows, cols=m.cols))
                        maps = list(source_maps)
                        maps[k] = changed
                        if which == "row":
                            yield ExactSquare(square.nodes, tuple(maps), square.col_maps)
                        else:
                            yield ExactSquare(square.nodes, square.row_maps, tuple(maps))


# -- reference sheet action ------------------------------------------------

def deck_action_quadratic(divisor, profile, representatives, eta):
    """The sheet action by pairwise search, one ``solve_integral`` per pair.

    For k sheets this makes about k^2 solves: every pair of representatives
    is tested for lying on one sheet, and each shifted representative is
    tried against the representatives in order until one solve succeeds.
    """
    phi = contact_sum_hom(divisor, profile)
    sheet_lattice = phi.matrix.hstack(divisor.h_xv.span_matrix())
    reps = [tuple(v) for v in representatives]
    rim, _ = rim_tori_module(divisor)
    if rim.index_of(rim.subgroup(phi.matrix)) != len(reps):
        raise ValueError("not a full transversal")
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            diff = tuple(x - y for x, y in zip(reps[a], reps[b]))
            if solve_integral(sheet_lattice, diff) is not None:
                raise ValueError("representatives are not pairwise distinct sheets")
    result = []
    for gamma in reps:
        shifted = tuple(g + e for g, e in zip(gamma, eta))
        for jp, candidate in enumerate(reps):
            diff = tuple(x - y for x, y in zip(shifted, candidate))
            witness = solve_integral(sheet_lattice, diff)
            if witness is not None:
                result.append((jp, witness[: phi.source.ambient_rank]))
                break
    return result


# -- reference Smith decomposition ---------------------------------------

def smith_normal_form_tracked(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with D = U @ A @ V, every operation applied to U and V as it happens.

    This is the library's Smith elimination with eager transforms, kept
    verbatim: the library promises the same U, D and V, and so the same
    solutions and kernel bases.  Pivots are chosen as the
    minimal-absolute-value nonzero entry of the remaining block, ties
    broken by (row, col), so the output is deterministic.  Empty matrices
    are legal and produce identity transforms.
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

    return (
        IntMatrix.from_rows(u, cols=m),
        IntMatrix.from_rows(d, cols=n),
        IntMatrix.from_rows(v, cols=n),
    )


def tracked_solve(a: IntMatrix, b) -> tuple[int, ...] | None:
    """Integer solution of a @ x = b as V (D^-1 U b) from the tracked decomposition."""
    u, d, v = smith_normal_form_tracked(a)
    c = u.apply(b)
    diag = d.diagonal()
    y = [0] * v.rows
    for i, ci in enumerate(c):
        di = diag[i] if i < len(diag) else 0
        if di:
            if ci % di:
                return None
            y[i] = ci // di
        elif ci:
            return None
    return v.apply(y)


def tracked_kernel(a: IntMatrix) -> IntMatrix:
    """The columns of V past the rank, from the tracked decomposition."""
    _, d, v = smith_normal_form_tracked(a)
    rank = sum(1 for x in d.diagonal() if x)
    return IntMatrix.from_columns([v.column(j) for j in range(rank, a.cols)], rows=a.cols)


# -- reference Smith operation log ---------------------------------------

def eliminate_reference(a: IntMatrix) -> tuple[IntMatrix, tuple, tuple]:
    """(D, row operations, column operations) of the library's Smith elimination.

    This is the library's elimination loop as it was before its pivot and
    divisibility scans stopped early at a unit, kept verbatim: the
    library promises the same diagonal and the same operation logs, so
    the same U and V.  Pivots are chosen as the minimal-absolute-value
    nonzero entry of the remaining block, ties broken by (row, col).
    """
    m, n = a.rows, a.cols
    w = [list(row) for row in a.entries]  # the active block at step t
    row_ops = []
    col_ops = []
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
        # the first entry of least absolute value, in (row, col) order
        least = [min(map(abs, filter(None, row)), default=0) for row in w]
        size = min(filter(None, least), default=0)
        if not size:
            break
        i = least.index(size)
        swap_rows(0, i)
        swap_cols(0, [abs(x) for x in w[0]].index(size))
        while True:
            # clear column 0 one row at a time: operations on rows 0 and i leave
            # the rows between them zero in column 0
            for i in range(1, m - t):
                while w[i][0]:
                    add_row(i, 0, -(w[i][0] // w[0][0]))
                    if w[i][0]:
                        # remainder is strictly smaller: adopt it as the pivot
                        swap_rows(i, 0)
            j = next((j for j in range(1, n - t) if w[0][j] != 0), None)
            if j is not None:
                # column 0 is zero below the pivot, so only row 0 changes
                q = w[0][j] // w[0][0]
                if q:
                    w[0][j] -= q * w[0][0]
                    col_ops.append((t + j, t, -q))
                if w[0][j]:
                    swap_cols(j, 0)
                continue
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
        w = [row[1:] for row in w[1:]]

    d = [[0] * n for _ in range(m)]
    for i, x in enumerate(diag):
        d[i][i] = x
    return IntMatrix.from_rows(d, cols=n), tuple(row_ops), tuple(col_ops)


# -- reference Hermite form -----------------------------------------------

def hermite_form_echelon(a: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form with zero columns dropped.

    This is the library's original echelon loop, kept verbatim: the column
    Hermite form of a lattice is unique, so any correct loop returns
    exactly this matrix.
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


# -- random generators ----------------------------------------------------

def random_matrix(rng: random.Random, max_dim: int = 8, bound: int = 50) -> IntMatrix:
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], cols=n)


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> IntMatrix:
    """Product of elementary row operations applied to the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 1:
            break
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows, cols=n)


def random_group(rng: random.Random, max_rank: int = 4) -> FgAbGroup:
    n = rng.randint(0, max_rank)
    k = rng.randint(0, max_rank)
    rel = IntMatrix.from_columns(
        [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)], rows=n)
    return FgAbGroup(n, rel)


def random_divisor(rng: random.Random, max_components: int = 3) -> DivisorData:
    parts = []
    for r in range(rng.randint(1, max_components)):
        rank = rng.randint(0, 3)
        torsion = [rng.choice([2, 2, 3, 4, 6]) for _ in range(rng.randint(0, 2))]
        h1 = FgAbGroup.from_invariants(rank, torsion)
        parts.append(DivisorComponent(name=f"V{r}", h1=h1))
    total = FgAbGroup.trivial()
    for comp in parts:
        total = total.direct_sum(comp.h1)
    n = total.ambient_rank
    gens = IntMatrix.from_columns(
        [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))], rows=n)
    return DivisorData(components=tuple(parts), h_xv=total.subgroup(gens), dim_v=2)
