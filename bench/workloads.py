"""The four benchmark workloads: seeded inputs, the timed call, and its check.

A workload is built from one imported ``rimtori`` package, the checkout
root and a seed.  Building it is the set-up: it loads every shipped
scenario, confirms a few answers known from the paper through the CLI and
generates its first inputs.  ``items()`` then yields an endless seeded
stream of inputs; ``run`` is the timed call into rimtori; ``check`` tests
the output with the benchmark's own arithmetic (``oracle``), or against
answers stored under ``expected/``, and is never timed; ``fingerprint``
reduces an output to a value that compares equal exactly when the
outputs are identical, so a traced and an untraced run can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

EXPECTED = Path(__file__).resolve().parent / "expected"
SCENARIO_DIR = "scenarios"

# Answers from the paper and the acceptance criteria, checked through the
# CLI at every set-up: (command, scenario file or None, names, extra
# arguments, {dotted path in the result: expected value}).
KNOWN_ANSWERS = [
    ("compute", "elliptic_surface", ["elliptic_fiber"], [], {"group": "Z^2"}),
    ("self-glue", "elliptic_surface", ["elliptic_fiber"], [], {"group": "Z^2"}),
    ("glue", "p1_times_t2", ["standard"], [], {"group": "Z^2"}),
    ("glue", "p1_times_t2", ["unipotent_twist"], [], {"group": "Z"}),
    ("glue", "p1_times_t2", ["hyperbolic_twist"], [], {"group": "0"}),
    ("deck", "elliptic_surface", ["elliptic_fiber", "orders_2_4"], [],
     {"finite.group": "Z/2 + Z/2", "free.group": "Z^2"}),
    ("deck", "elliptic_surface", ["elliptic_fiber", "orders_3_6"], [],
     {"finite.group": "Z/3 + Z/3", "free.group": "Z^2"}),
    ("deck", "elliptic_surface", ["elliptic_fiber", "coprime_pair"], [],
     {"finite.group": "0", "free.group": "Z^2"}),
    ("vanishing", "torus_divisors", ["t4", "three_contacts"], [], {"threshold": 8}),
    ("vanishing", "torus_divisors", ["t6", "two_contacts"], [], {"threshold": 6}),
    ("invariance", "invariance_rows", ["rank_one_quotient", "coprime"], [],
     {"lift_independent": True, "equals_standard_gw": True}),
    ("invariance", "invariance_rows", ["rank_two_quotient", "coprime"], [],
     {"lift_independent": True, "equals_standard_gw": False}),
    ("invariance", "invariance_rows", ["rank_two_quotient", "even"], [],
     {"lift_independent": False, "equals_standard_gw": False}),
    ("verify-square", None, ["elliptic_p1xt2"], [], {"overall": True}),
    ("verify-square", "gluing_square", ["elliptic_p1xt2_explicit"], [], {"overall": True}),
    ("torus-cover", "elliptic_surface", ["orders_2_4"], [],
     {"deck_finite.group": "Z/2 + Z/2", "torus_dim": 2}),
    ("base-point", "elliptic_surface", ["orders_2_4"], ["--gamma=2,2"],
     {"z": ["1", "1"], "projects_to_origin": True}),
]


def cli_argv(root: Path, command: str, scenario: str | None, names, extra=()) -> list[str]:
    argv = [command]
    if scenario is not None:
        argv += ["--scenario", str(root / SCENARIO_DIR / f"{scenario}.json")]
    for name in names:
        argv += ["--name", name]
    return argv + list(extra) + ["--format", "machine"]


def cli_query(rt, argv: list[str]) -> tuple[int, str]:
    """Run ``rimtori`` in-process; return the exit status and standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rt.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _lookup(result: dict, path: str):
    for key in path.split("."):
        result = result[key]
    return result


class Workload:
    """Set-up shared by all workloads."""

    name = ""
    tail_percentile = 0.0
    round_items = 0  # the stream repeats its mix of input sizes every round
    trace_rounds = 1  # rounds in a traced run

    def __init__(self, rt, root: Path, seed: int):
        self.rt = rt
        self.root = root
        self.seed = seed
        self.scenarios = {p.stem: rt.load_scenario(p)
                          for p in sorted((root / SCENARIO_DIR).glob("*.json"))}
        self.known_answers_ok = self._check_known_answers()

    def _check_known_answers(self) -> bool:
        ok = True
        for command, scenario, names, extra, expected in KNOWN_ANSWERS:
            code, out = cli_query(self.rt, cli_argv(self.root, command, scenario, names, extra))
            result = json.loads(out)["result"] if code == 0 else {}
            ok &= code == 0 and all(_lookup(result, k) == v for k, v in expected.items())
        # the trivial class acts as the identity on the four sheets of a 2-fold contact
        torus = self.rt.DivisorComponent("T", self.rt.FgAbGroup.free(2), is_torus=True)
        divisor = self.rt.DivisorData((torus,), torus.h1.zero_subgroup(), dim_v=2)
        reps = [(0, 0), (1, 0), (0, 1), (1, 1)]
        action = self.rt.deck_action(divisor, self.rt.ContactProfile.of([2]), reps, (0, 0))
        return ok and [j for j, _ in action] == [0, 1, 2, 3]

    def _start(self) -> None:
        """Generate the first input: the set-up ends when it is ready."""
        self._stream = self._generate()
        self._first = next(self._stream)

    def items(self):
        """The endless seeded stream of inputs, one round after another."""
        return itertools.chain([self._first], self._stream)

    def _generate(self):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> bool:
        raise NotImplementedError

    def fingerprint(self, output):
        return output


# -- query_mix ------------------------------------------------------------

class QueryMix(Workload):
    """Every shipped scenario x applicable command through ``rimtori.cli.main``."""

    name = "query_mix"
    tail_percentile = 0.99

    def __init__(self, rt, root, seed):
        super().__init__(rt, root, seed)
        self.golden = json.loads((EXPECTED / "queries.json").read_text())
        self.queries = self._universe()
        self.round_items = len(self.queries)
        self._start()

    def _universe(self) -> list[tuple[str, str | None, list[str], int]]:
        """(command, scenario, names, expected exit status) for every query."""
        out = [("verify-square", None, ["elliptic_p1xt2"], 0),
               ("verify-square", None, ["no_such_square"], 2)]
        for stem, sc in self.scenarios.items():
            for d in sc.divisors:
                out += [("compute", stem, [d], 0), ("self-glue", stem, [d], 0)]
                for p, profile in sc.profiles.items():
                    fits = len(profile.tuples) == len(sc.divisors[d].components)
                    for command in ("deck", "vanishing", "invariance", "finite-generation"):
                        out.append((command, stem, [d, p], 0 if fits else 3))
            out += [("glue", stem, [g], 0) for g in sc.gluings]
            out += [("verify-square", stem, [s], 0) for s in sc.squares]
            for p, profile in sc.profiles.items():
                single = 0 if len(profile.tuples) == 1 else 2
                out += [("torus-cover", stem, [p], single), ("base-point", stem, [p], single)]
            out += [("compute", stem, ["no_such_divisor"], 2), ("glue", stem, [], 2)]
        return out

    def _generate(self):
        rng = random.Random(self.seed)
        while True:
            order = list(self.queries)
            rng.shuffle(order)
            for command, scenario, names, code in order:
                extra = []
                if command == "base-point":
                    extra = [f"--gamma={rng.randint(-6, 6)},{rng.randint(-6, 6)}"]
                yield (cli_argv(self.root, command, scenario, names, extra),
                       (command, scenario, tuple(names)), code)

    def run(self, item):
        return cli_query(self.rt, item[0])

    def check(self, item, output) -> bool:
        argv, (command, scenario, names), code = item
        got_code, out = output
        if got_code != code:
            return False
        if code != 0:
            return out == ""
        if command == "base-point":
            return out == self._base_point_answer(scenario, names, argv)
        return out == self.golden[" ".join([command, str(scenario), *names])] + "\n"

    def _base_point_answer(self, scenario, names, argv) -> str:
        weights = self.scenarios[scenario].profiles[names[0]].tuples[0]
        gamma = next(arg for arg in argv if arg.startswith("--gamma="))
        a, b = (int(x) for x in gamma.removeprefix("--gamma=").split(","))
        ell = len(weights)

        def point(c, modulus=None):
            return [str(Fraction(x, c) % modulus if modulus else Fraction(x, c)) for x in (a, b)]

        # torus coordinates are stored reduced mod Z + iZ, z is not
        result = {"projects_to_origin": True,
                  "torus": [point(ell * s, 1) for s in weights], "z": point(ell)}
        document = {"command": "base-point", "names": list(names), "result": result}
        return json.dumps(document, sort_keys=True, separators=(", ", ": ")) + "\n"


# -- square_sweep -----------------------------------------------------------

def square_perturbations(square):
    """Keys and (kind, map index, row, col, delta) of every +-1 entry change."""
    specs = [("base", None)]
    for kind, maps in (("row", square.row_maps), ("col", square.col_maps)):
        for k, hom in enumerate(maps):
            for i in range(hom.matrix.rows):
                for j in range(hom.matrix.cols):
                    for delta in (1, -1):
                        specs.append((f"{kind}{k}[{i},{j}]{delta:+d}", (kind, k, i, j, delta)))
    return specs


def verdict_bits(report) -> str:
    seqs = list(report.rows) + list(report.cols)
    bits = [b for s in seqs for b in (s.injective, s.exact_middle, s.surjective)]
    return "".join("1" if b else "0" for b in bits + list(report.cells))


class SquareSweep(Workload):
    """Build and verify the built-in square and each of its +-1 perturbations."""

    name = "square_sweep"
    tail_percentile = 0.99

    def __init__(self, rt, root, seed):
        super().__init__(rt, root, seed)
        stored = json.loads((EXPECTED / "squares.json").read_text())
        self.verdicts = stored["verdicts"]
        payload = json.dumps(self.verdicts, sort_keys=True).encode()
        self.digest_ok = hashlib.sha256(payload).hexdigest() == stored["sha256"]
        self.square = rt.elliptic_p1xt2_square()
        self.specs = square_perturbations(self.square)
        self.round_items = len(self.specs)
        self._start()

    def _generate(self):
        rng = random.Random(self.seed)
        while True:
            order = list(self.specs)
            rng.shuffle(order)
            yield from order

    def run(self, item):
        _, spec = item
        base = self.square
        rt = self.rt
        if spec is None:
            square = rt.ExactSquare(base.nodes, base.row_maps, base.col_maps)
        else:
            kind, k, i, j, delta = spec
            maps = list(base.row_maps if kind == "row" else base.col_maps)
            rows = [list(r) for r in maps[k].matrix.entries]
            rows[i][j] += delta
            maps[k] = rt.Homomorphism(maps[k].source, maps[k].target,
                                      rt.IntMatrix.from_rows(rows, cols=maps[k].matrix.cols))
            if kind == "row":
                square = rt.ExactSquare(base.nodes, tuple(maps), base.col_maps)
            else:
                square = rt.ExactSquare(base.nodes, base.row_maps, tuple(maps))
        return verdict_bits(rt.verify(square))

    def check(self, item, output) -> bool:
        return self.digest_ok and output == self.verdicts[item[0]]


# -- divisor_sweep ----------------------------------------------------------

# A round is the 27 divisor shapes with a deck action on 16, 64 and 144
# sheets after every ninth: the 144-sheet actions are the slowest 3.3% of
# items, so p95 falls in the middle of the 64-sheet ones.  The contact
# orders are fixed at 2g and 3g because they alone move the cost of an
# action by a third; the seed draws the order of the sheets and eta.
DECK_GCDS = (4, 8, 12)


def _divisor_shapes(count: int = 27):
    """The structure of each divisor case: everything but its entries.

    A shape is (components, swept generator count, dim V), with one
    (free rank, torsion count, contact count, torus, flux generator count)
    per component, and 1 to 3 components.  The shapes are the same for
    every seed, so that a seed changes the entries of the inputs but not
    the mix of sizes that sets their cost.
    """
    rng = random.Random(0)
    shapes = []
    for k in range(count):
        comps = []
        for _ in range(1 + k % 3):
            rank, torsion = rng.randint(0, 3), rng.randint(0, 2)
            rank = rank or int(not torsion)
            torus = rank == 2 and not torsion and rng.random() < 0.5
            comps.append((rank, torsion, rng.randint(0, 3), torus, rng.randint(0, rank + torsion)))
        if not any(c[2] for c in comps):
            comps[0] = comps[0][:2] + (1,) + comps[0][3:]
        n = sum(c[0] + c[1] for c in comps)
        shapes.append((tuple(comps), rng.randint(0, n), 2 * rng.randint(1, 3)))
    return shapes


DIVISOR_SHAPES = _divisor_shapes()


class DivisorSweep(Workload):
    """Seeded random divisors through the paper's constructions, plus deck actions."""

    name = "divisor_sweep"
    tail_percentile = 0.95
    round_items = len(DIVISOR_SHAPES) + len(DECK_GCDS)

    def __init__(self, rt, root, seed):
        super().__init__(rt, root, seed)
        self._start()

    def _generate(self):
        rng = random.Random(self.seed)
        per_deck = len(DIVISOR_SHAPES) // len(DECK_GCDS)
        decks = itertools.count()
        while True:
            for k, shape in enumerate(DIVISOR_SHAPES):
                yield self._divisor_case(rng, shape)
                if k % per_deck == per_deck - 1:
                    d = next(decks)
                    yield self._deck_case(rng, DECK_GCDS[d % len(DECK_GCDS)], zero_eta=d % 4 == 0)

    def _divisor_case(self, rng, shape):
        rt = self.rt
        comps, swept_count, dim = shape
        parts, contacts = [], []
        for r, (rank, torsion_count, contact_count, torus, flux_count) in enumerate(comps):
            torsion = [rng.choice([2, 2, 3, 4, 6]) for _ in range(torsion_count)]
            h1 = rt.FgAbGroup.from_invariants(rank, torsion)
            n = h1.ambient_rank
            if torus:
                parts.append(rt.DivisorComponent(f"V{r}", h1, is_torus=True))
            else:
                flux = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(flux_count)]
                parts.append(rt.DivisorComponent(
                    f"V{r}", h1, flux=rt.IntMatrix.from_columns(flux, rows=n)))
            contacts.append([rng.choice([-6, -4, -3, -2, 1, 2, 3, 4, 6])
                             for _ in range(contact_count)])
        total = rt.FgAbGroup.trivial()
        for comp in parts:
            total = total.direct_sum(comp.h1)
        n = total.ambient_rank
        swept = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(swept_count)]
        divisor = rt.DivisorData(tuple(parts), total.subgroup(swept), dim_v=dim)
        return ("divisor", divisor, rt.ContactProfile.of(*contacts), swept)

    def _deck_case(self, rng, g, zero_eta):
        rt = self.rt
        torus = rt.DivisorComponent("T", rt.FgAbGroup.free(2), is_torus=True)
        divisor = rt.DivisorData((torus,), torus.h1.zero_subgroup(), dim_v=2)
        profile = rt.ContactProfile.of([2 * g, 3 * g])
        reps = [(a, b) for a in range(g) for b in range(g)]
        rng.shuffle(reps)
        eta = (0, 0) if zero_eta else (rng.randint(-2 * g, 2 * g), rng.randint(-2 * g, 2 * g))
        return ("deck", divisor, profile, (g, reps, eta))

    def run(self, item):
        kind, divisor, profile, extra = item
        rt = self.rt
        if kind == "deck":
            _, reps, eta = extra
            return rt.deck_action(divisor, profile, reps, eta)
        report = rt.deck_group(divisor, profile)
        verdict = rt.invariance_verdict(divisor, profile)
        return (rt.self_glue(divisor).canonical_form(),
                rt.rim_tori_module(divisor)[0].canonical_form(),
                report.finite_part, report.free_part, report.total,
                rt.vanishing_threshold(divisor, profile),
                verdict.lift_independent, verdict.equals_standard_gw, verdict.reasons)

    def check(self, item, output) -> bool:
        kind, divisor, profile, extra = item
        if kind == "deck":
            return self._check_deck(profile, extra, output)
        return self._check_divisor(divisor, profile, extra, output)

    @staticmethod
    def _check_deck(profile, extra, output) -> bool:
        """The action is translation by eta on (Z/g)^2, with witnesses summing right."""
        g, reps, eta = extra
        weights = profile.tuples[0]
        index = {v: j for j, v in enumerate(reps)}
        if len(output) != len(reps):
            return False
        for (a, b), (target, witness) in zip(reps, output):
            if target != index[((a + eta[0]) % g, (b + eta[1]) % g)]:
                return False
            if len(witness) != 2 * len(weights):
                return False
            shift = [sum(s * witness[2 * i + c] for i, s in enumerate(weights)) for c in (0, 1)]
            landed = reps[target]
            if shift != [a + eta[0] - landed[0], b + eta[1] - landed[1]]:
                return False
        return True

    @staticmethod
    def _check_divisor(divisor, profile, swept, output) -> bool:
        (glued, rim, finite, free, total, threshold, lift, equals, reasons) = output
        offsets = [0]
        for comp in divisor.components:
            offsets.append(offsets[-1] + comp.h1.ambient_rank)
        n = offsets[-1]

        def embed(r, col):
            full = [0] * n
            full[offsets[r]:offsets[r + 1]] = col
            return full

        def basis(r):
            m = divisor.components[r].h1.ambient_rank
            return [embed(r, [int(i == k) for i in range(m)]) for k in range(m)]

        def flux(indices):
            return [c for r in indices for c in (
                basis(r) if divisor.components[r].is_torus
                else [embed(r, list(c)) for c in divisor.components[r].flux.columns()])]

        everyone = range(len(divisor.components))
        active = [r for r in everyone if profile.tuples[r]]
        relations = [embed(r, list(col)) for r in everyone
                     for col in divisor.components[r].h1.relations.columns()]
        lattice = relations + [list(c) for c in swept]
        contacts = [[w * x for x in e] for r in everyone for w in profile.tuples[r]
                    for e in basis(r)]
        span = [e for r in active for e in basis(r)]
        rim_oracle = oracle.cokernel(lattice, n)
        sheets = oracle.cokernel(lattice + contacts, n)
        base_rank = oracle.rank(lattice, n)
        ell = profile.total_contacts()

        # the direct sum of the two factors, presented by a diagonal matrix
        combined = []
        parts = [finite, free]
        dim = sum(p[0] + len(p[1]) for p in parts)
        pos = 0
        for rank_, factors in parts:
            pos += rank_
            for d in factors:
                combined.append([d * int(i == pos) for i in range(dim)])
                pos += 1

        if len(everyone) <= 1:
            flux_ok = oracle.cokernel(lattice + flux(everyone), n) == (0, ())
        else:
            flux_ok = (oracle.cokernel(lattice + flux(active), n)
                       == oracle.cokernel(lattice + flux(everyone), n))
        coprime = sheets == (0, ())
        rank_small = rim_oracle[0] <= 1
        all_torus = all(c.is_torus for c in divisor.components)
        return (glued == rim == rim_oracle
                and finite == sheets
                and free[0] == oracle.rank(lattice + contacts, n) - base_rank
                and total == oracle.cokernel(combined, dim)
                and threshold == divisor.dim_v * ell - (oracle.rank(lattice + span, n) - base_rank)
                and dict(reasons) == {"flux_condition": flux_ok,
                                      "contacts_relatively_prime": coprime,
                                      "rank_at_most_one": rank_small,
                                      "torus_divisor": all_torus}
                and lift == (flux_ok and coprime)
                and equals == (lift and (rank_small or all_torus)))

    def fingerprint(self, output):
        return repr(output)


# -- lattice_large ----------------------------------------------------------

LATTICE_SIZES = (12, 14, 16, 18)


class LatticeLarge(Workload):
    """Seeded random n x n matrices through every normal-form entry point."""

    name = "lattice_large"
    tail_percentile = 0.90
    round_items = len(LATTICE_SIZES)
    trace_rounds = 10

    def __init__(self, rt, root, seed):
        super().__init__(rt, root, seed)
        self._start()

    def _generate(self):
        rng = random.Random(self.seed)
        for k in itertools.count():
            n = LATTICE_SIZES[k % len(LATTICE_SIZES)]
            rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            if (k // len(LATTICE_SIZES)) % 2:
                # every other round, one column is a combination of two others:
                # rank n - 1, so the kernel has rank 1
                i, j, k2 = rng.sample(range(n), 3)
                c1, c2 = rng.choice([-1, 1]), rng.choice([-1, 1])
                for row in rows:
                    row[k2] = c1 * row[i] + c2 * row[j]
            x0 = [rng.randint(-5, 5) for _ in range(n)]
            yield (self.rt.IntMatrix.from_rows(rows, cols=n), rows, oracle.mat_vec(rows, x0))

    def run(self, item):
        a, _, b = item
        rt = self.rt
        dec = rt.smith_normal_form(a)
        canonical = rt.FgAbGroup(a.rows, a).canonical_form()
        hermite = rt.hermite_form(a)
        x = rt.solve_integral(a, b)
        kernel = rt.integer_kernel(a)
        return dec, canonical, hermite, x, kernel

    def check(self, item, output) -> bool:
        _, a, b = item
        dec, canonical, hermite, x, kernel = output
        n = len(a)
        u, d, v = (list(map(list, m.entries)) for m in (dec.u, dec.d, dec.v))
        diag = [d[i][i] for i in range(n)]
        if any(d[i][j] for i in range(n) for j in range(n) if i != j) or min(diag) < 0:
            return False
        if any(y % x if x else y for x, y in zip(diag, diag[1:])):
            return False
        p = oracle.PRIME
        up, vp = oracle.mod_matrix(u, p), oracle.mod_matrix(v, p)
        if oracle.matmul_mod(oracle.matmul_mod(up, a, p), vp, p) != oracle.mod_matrix(d, p):
            return False
        if {oracle.det_mod(up, p), oracle.det_mod(vp, p)} - {1, p - 1}:
            return False
        rank = sum(1 for t in diag if t)
        if canonical != (n - rank, tuple(t for t in diag if t > 1)):
            return False
        if x is None or oracle.mat_vec(a, x) != b:
            return False
        kernel_cols = [list(c) for c in kernel.columns()]
        if len(kernel_cols) != n - rank or any(oracle.mat_vec(a, c) != [0] * n for c in kernel_cols):
            return False
        return self._check_hermite(a, u, diag, rank, [list(c) for c in hermite.columns()])

    @staticmethod
    def _check_hermite(a, u, diag, rank, cols) -> bool:
        """Echelon shape with reduced entries, spanning exactly the columns of a."""
        if len(cols) != rank:
            return False
        pivots = []
        for c in cols:
            lead = next((i for i, t in enumerate(c) if t), None)
            if lead is None or c[lead] <= 0 or (pivots and lead <= pivots[-1]):
                return False
            pivots.append(lead)
        for k, p in enumerate(pivots):
            if any(not 0 <= cols[m][p] < cols[k][p] for m in range(k)):
                return False
        # every column of a is an integer combination of the Hermite columns
        for col in zip(*a):
            rest = list(col)
            for c, p in zip(cols, pivots):
                q, r = divmod(rest[p], c[p])
                if r:
                    return False
                rest = [x - q * y for x, y in zip(rest, c)]
            if any(rest):
                return False
        # and every Hermite column lies in the column lattice of a = U^-1 D V^-1
        for c in cols:
            w = oracle.mat_vec(u, c)
            if any(t % s if s else t for t, s in zip(w, diag)):
                return False
        return True

    def fingerprint(self, output):
        dec, canonical, hermite, x, kernel = output
        return hash((dec.u.entries, dec.d.entries, dec.v.entries, canonical,
                     hermite.entries, x, kernel.entries))


WORKLOADS = {w.name: w for w in (QueryMix, SquareSweep, DivisorSweep, LatticeLarge)}
