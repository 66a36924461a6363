"""Independent arithmetic that the benchmark checks rimtori's answers with.

Nothing here imports rimtori.  Matrices are lists of rows of Python ints.
The Smith diagonal below pivots on the first nonzero entry (rimtori pivots
on the smallest one) and tracks no transforms, so it is a second route to
the same invariants, fit for the small matrices the divisor checks use.
Large transforms are checked modulo the Mersenne prime 2^127 - 1 instead
of exactly: a wrong identity survives only if that prime divides a nonzero
integer of at most a few hundred thousand bits, which is negligible.
"""

from __future__ import annotations

PRIME = 2**127 - 1


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a: list[list[int]], x) -> list[int]:
    return [sum(p * q for p, q in zip(row, x)) for row in a]


def mod_matrix(a, p: int) -> list[list[int]]:
    return [[x % p for x in row] for row in a]


def matmul_mod(a, b, p: int) -> list[list[int]]:
    return [[x % p for x in row] for row in matmul(a, b)]


def det_mod(a, p: int) -> int:
    """Determinant of a square matrix modulo the prime p."""
    m = mod_matrix(a, p)
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def smith_diagonal(rows: list[list[int]], ncols: int) -> list[int]:
    """Invariant factors, each dividing the next, with zeros for the rank deficit."""
    d = [list(r) for r in rows]
    m, n = len(d), ncols
    diag = []
    for t in range(min(m, n)):
        pivot = next(((i, j) for i in range(t, m) for j in range(t, n) if d[i][j]), None)
        if pivot is None:
            break
        d[t], d[pivot[0]] = d[pivot[0]], d[t]
        for row in d:
            row[t], row[pivot[1]] = row[pivot[1]], row[t]
        while True:
            i = next((i for i in range(t + 1, m) if d[i][t]), None)
            if i is not None:
                q = d[i][t] // d[t][t]
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                if d[i][t]:
                    d[t], d[i] = d[i], d[t]
                continue
            j = next((j for j in range(t + 1, n) if d[t][j]), None)
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
    return diag + [0] * (min(m, n) - len(diag))


def cokernel(columns: list[list[int]], n: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors > 1) of Z^n modulo the span of ``columns``."""
    rows = [[c[i] for c in columns] for i in range(n)]
    diag = smith_diagonal(rows, len(columns))
    return n - sum(1 for x in diag if x), tuple(x for x in diag if x > 1)


def rank(columns: list[list[int]], n: int) -> int:
    """Rank of the lattice spanned by ``columns`` in Z^n."""
    return n - cokernel(columns, n)[0]
