"""Workloads of the benchmark: seeded job generators, the calls they time,
and the checks their outputs must pass.

A job is built from ``(workload, seed, index)`` alone, so the same seed
gives the same inputs.  Each workload cycles through a fixed list of job
templates; the seed draws the exponents, coefficients and points, while
the template fixes the shape (fan, degree, box, number of points), so the
cost of a job depends on its template and hardly on the seed.

``Job.call`` is the timed part.  ``Job.canon`` turns its result into the
canonical text compared against the reference file and between traced and
untraced runs; ``Job.check`` returns the invariant violations (empty when
the output is correct).  Neither is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent


@dataclass
class Job:
    template: str
    call: Callable[[], object]
    canon: Callable[[object], str]
    check: Callable[[object], list]
    data: dict | None = None    # inputs the self-test reads back


def job_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def nonzero(rng, lo, hi):
    while True:
        x = rng.randint(lo, hi)
        if x:
            return x


def point_sum(mons, points, coeffs):
    """Terms of sum(coeff * L_P): L_P is sum over the basis of P^m y^m."""
    terms = {}
    for lam, coords in zip(coeffs, points):
        for m in mons:
            v = Fraction(lam)
            for c, e in zip(coords, m):
                if e:
                    v *= Fraction(c) ** e
            if v:
                terms[m] = terms.get(m, 0) + v
    return {m: c for m, c in terms.items() if c}


def degree_text(degree):
    """Degree in the CLI syntax, e.g. ``3;0`` or ``1,1``."""
    text = ",".join(str(x) for x in degree.free)
    if degree.torsion:
        text += ";" + ",".join(str(x) for x in degree.torsion)
    return text


def format_terms(terms, names):
    """Polynomial text in the package's term syntax, graded-lex order."""
    pieces = []
    for m, c in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]),
                       reverse=True):
        mono = "*".join(n if e == 1 else f"{n}^{e}"
                        for n, e in zip(names, m) if e)
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces).lstrip("+ ")


def load_fans(pkg, root: Path):
    return {
        "f1": pkg.load_fan(root / "fixtures" / "f1.fan"),
        "p114": pkg.load_fan(root / "fixtures" / "p114.fan"),
        "fake_plane": pkg.load_fan(root / "fixtures" / "fake_plane.fan"),
        "p1p1p1": pkg.load_fan(HERE / "fans" / "p1p1p1.fan"),
    }


# --- length_scan ------------------------------------------------------------

FAKE_AMPLE = ((3,), (0,))

# (template, command, fixture, ideal kind, ample (free, torsion), max_k).  The re-anchor
# entry is the roadmap's job `length fake_plane --ideal "a1^2, a2^2"
# --ample "3;0"`, scaled from max_k 20 (about 5 s, a sixth of a run) to 12.
# It is the costliest job and appears three times per cycle, so that the
# tail order statistic falls inside its class whatever the number of cycles
# a run completes.
LENGTH_CYCLE = (
    ("fake_reanchor_k12", "length", "fake_plane", "reanchor", FAKE_AMPLE, 12),
    ("fake_monomial_k8", "length", "fake_plane", "monomial", FAKE_AMPLE, 8),
    ("p114_monomial_k9", "length", "p114", "monomial", ((4,), ()), 9),
    ("f1_points_k8", "length", "f1", "binomial", ((1, 1), ()), 8),
    ("fake_reanchor_k12", "length", "fake_plane", "reanchor", FAKE_AMPLE, 12),
    ("fake_cactus_k8", "cactus-cert", "fake_plane", "monomial", FAKE_AMPLE, 8),
    ("p114_cactus_k9", "cactus-cert", "p114", "monomial", ((4,), ()), 9),
    ("f1_monomial_k8", "length", "f1", "monomial", ((1, 1), ()), 8),
    ("fake_reanchor_k12", "length", "fake_plane", "reanchor", FAKE_AMPLE, 12),
    ("f1_points_cactus_k8", "cactus-cert", "f1", "binomial", ((1, 1), ()), 8),
    ("fake_monomial_k9", "length", "fake_plane", "monomial", FAKE_AMPLE, 9),
    ("f1_points_k8", "length", "f1", "binomial", ((1, 1), ()), 8),
)

# Pairs of rays spanning a maximal cone: the monomial ideal (v_i^p, v_j^q)
# is supported at that cone's fixed point, so it is zero-dimensional.
def cone_pairs(fan):
    return [c for c in fan.max_cones if len(c) == 2]


class LengthScan:
    """CLI-shaped `length` and `cactus-cert` jobs, each loading its fan
    fresh as one command-line invocation does."""

    name = "length_scan"
    cycle = LENGTH_CYCLE
    trace_prefix = 2 * len(LENGTH_CYCLE)
    rss_at = 40

    def __init__(self, root: Path):
        self.root = root

    def setup(self, pkg):
        from toric_apolarity import cli
        self.pkg = pkg
        self.cli = cli
        # The checker's own fans, kept for the whole run: exact standard-
        # monomial counts of monomial ideals come from their bases.
        self.fans = load_fans(pkg, self.root)

    def fixture(self, name):
        return str(self.root / "fixtures" / f"{name}.fan")

    def make_job(self, seed: int, index: int) -> Job:
        template, command, fixture, kind, ample, max_k = \
            LENGTH_CYCLE[index % len(LENGTH_CYCLE)]
        rng = job_rng(self.name, seed, index)
        fan = self.fans[fixture]
        ample = fan.degree(*ample)
        names = fan.var_names
        nvars = len(names)
        if kind == "reanchor":
            gens = [{(0, 2, 0): 1}, {(0, 0, 2): 1}]
        elif kind == "monomial":
            i, j = rng.choice(cone_pairs(fan))
            p, q = rng.randint(2, 4), rng.randint(2, 4)
            gens = [{tuple(p if k == i else 0 for k in range(nvars)): 1},
                    {tuple(q if k == j else 0 for k in range(nvars)): 1}]
        else:
            # a0^p - c*a1^p, b0^q - d*(a1*b1)^q: p*q reduced torus points.
            # For cactus-cert, p = q = 2 and c, d are squares, so the points
            # (+-s, 1, +-t, 1) are rational and the form is built on them.
            cactus = command == "cactus-cert"
            p, q = (2, 2) if cactus else (rng.randint(2, 3), rng.randint(2, 3))
            s, t = rng.randint(1, 5), rng.randint(1, 5)
            c, d = (s * s, t * t) if cactus \
                else (nonzero(rng, -9, 9), nonzero(rng, -9, 9))
            gens = [{(p, 0, 0, 0): 1, (0, p, 0, 0): -c},
                    {(0, 0, q, 0): 1, (0, q, 0, q): -d}]
        ideal_text = ", ".join(format_terms(g, names) for g in gens)
        argv = ["--format", "records", command, self.fixture(fixture),
                "--ideal", ideal_text, "--ample", degree_text(ample),
                "--max-k", str(max_k)]
        expected_length = p * q if kind == "binomial" else None
        if command == "cactus-cert":
            form_terms = self.cactus_form(fan, kind, gens, rng,
                                          (s, t) if kind == "binomial" else None)
            argv += ["--form", format_terms(form_terms, fan.dual_var_names)]
            if kind == "binomial":
                argv.append("--assert-reduced")
        monomial_gens = [next(iter(g)) for g in gens] \
            if kind in ("monomial", "reanchor") else None

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(argv))
            return code, out.getvalue()

        def canon(result):
            code, out = result
            return f"{code}\n{out}"

        def check(result):
            return self.check_record(result, command, fan, ample, max_k,
                                     monomial_gens, expected_length)

        return Job(template, call, canon, check)

    def cactus_form(self, fan, kind, gens, rng, roots):
        basis = self.pkg.basis
        if kind == "binomial":
            # The four rational points (+-s, 1, +-t, 1) of the ideal.
            s, t = roots
            alpha = fan.degree((rng.randint(3, 5), rng.randint(1, 3)))
            points = [(a * s, 1, b * t, 1) for a in (1, -1) for b in (1, -1)]
            coeffs = [nonzero(rng, -5, 5) for _ in points]
            terms = point_sum(basis(fan, alpha), points, coeffs)
            if terms:
                return terms
            return point_sum(basis(fan, alpha), points[:1], [1])
        # Dual monomials below both generators are annihilated by them.
        (gi,), (gj,) = gens
        i = next(k for k, e in enumerate(gi) if e)
        j = next(k for k, e in enumerate(gj) if e)
        seed_mono = [rng.randint(0, 3) for _ in fan.rays]
        seed_mono[i] = rng.randint(0, gi[i] - 1)
        seed_mono[j] = rng.randint(0, gj[j] - 1)
        alpha = fan.monomial_degree(seed_mono)
        mons = [m for m in basis(fan, alpha) if m[i] < gi[i] and m[j] < gj[j]]
        return {m: nonzero(rng, -7, 7) for m in mons}

    def check_record(self, result, command, fan, ample, max_k, monomial_gens,
                     expected_length):
        code, out = result
        if code != 0:
            return [f"exit code {code}"]
        rec = json.loads(out)
        problems = []
        samples = rec["samples"]
        if [k for k, _ in samples] != list(range(1, max_k + 1)):
            problems.append("samples do not run over k = 1..max_k")
        tail = [d for _, d in samples[-3:]]
        if rec["stabilized"] != (len(set(tail)) == 1):
            problems.append("stabilized flag disagrees with the samples")
        value = rec["value"] if command == "length" else rec["cactus_bound"]
        if value != samples[-1][1]:
            problems.append("value is not the last sample")
        if monomial_gens is not None:
            for k, dim in samples:
                expected = sum(
                    1 for m in self.pkg.basis(fan, ample.scale(k))
                    if not any(all(a >= g for a, g in zip(m, gen))
                               for gen in monomial_gens))
                if dim != expected:
                    problems.append(f"dim(S/I) at k={k} is {dim}, "
                                    f"standard monomials give {expected}")
        if expected_length is not None:
            if not rec["stabilized"] or value != expected_length:
                problems.append(f"length {value} (stabilized "
                                f"{rec['stabilized']}), expected "
                                f"{expected_length} reduced points")
        if command == "cactus-cert":
            if rec["contained"] is not True:
                problems.append("containment not reported")
            reduced = expected_length is not None
            if rec["rank_bound"] != (value if reduced else None):
                problems.append("rank bound inconsistent with --assert-reduced")
        return problems


# --- bounds_session -----------------------------------------------------------

# (template, fan, form degree, box, points r or 0 for a dense form).  The
# roadmap's re-anchor jobs are the dense f1 form at (14,5) and the P1^3 form
# at (3,3,3), unscaled, and 20 points on f1 at (20,6), scaled to 10 points at
# (12,4) because the unscaled job takes about 6 s with warm bases.  The
# costliest template fills three of the eleven slots, so the tail quantile
# stays inside its class.  Point forms, whose cost varies with the points,
# sit at both ends of the cost order, and dense forms in the middle, where
# the median falls (p1cubed_dense_333).
BOUNDS_CYCLE = (
    ("f1_dense_14x5", "f1", (14, 5), ((0, 14), (0, 5)), 0),
    ("f1_points6_8x4", "f1", (8, 4), ((0, 8), (0, 4)), 6),
    ("p1cubed_dense_333", "p1p1p1", (3, 3, 3), ((0, 3),) * 3, 0),
    ("p114_dense_20", "p114", (20,), ((0, 20),), 0),
    ("f1_points10_12x4", "f1", (12, 4), ((0, 12), (0, 4)), 10),
    ("p1cubed_points4_222", "p1p1p1", (2, 2, 2), ((0, 2),) * 3, 4),
    ("f1_dense_14x5", "f1", (14, 5), ((0, 14), (0, 5)), 0),
    ("p114_points5_16", "p114", (16,), ((0, 16),), 5),
    ("f1_dense_10x4", "f1", (10, 4), ((0, 10), (0, 4)), 0),
    ("p1cubed_points6_333", "p1p1p1", (3, 3, 3), ((0, 3),) * 3, 6),
    ("f1_dense_14x5", "f1", (14, 5), ((0, 14), (0, 5)), 0),
)


def degree_json(degree):
    return [list(degree.free), list(degree.torsion)]


class BoundsSession:
    """Library session: fans loaded once, bases warm; each job mirrors the
    `hilbert` and `bounds` commands on one seeded form."""

    name = "bounds_session"
    cycle = BOUNDS_CYCLE
    trace_prefix = 2 * len(BOUNDS_CYCLE)
    rss_at = 40

    def __init__(self, root: Path):
        self.root = root

    def setup(self, pkg):
        self.pkg = pkg
        self.fans = load_fans(pkg, self.root)
        for _, fan_name, alpha, box, _ in BOUNDS_CYCLE:
            fan = self.fans[fan_name]
            alpha = fan.degree(alpha)
            for beta in pkg.DegreeBox(fan.class_group, box):
                pkg.basis(fan, beta)
                pkg.basis(fan, alpha - beta)
            pkg.basis(fan, alpha)

    def make_job(self, seed: int, index: int) -> Job:
        template, fan_name, alpha, box, r = \
            BOUNDS_CYCLE[index % len(BOUNDS_CYCLE)]
        rng = job_rng(self.name, seed, index)
        pkg = self.pkg
        fan = self.fans[fan_name]
        alpha = fan.degree(alpha)
        box = pkg.DegreeBox(fan.class_group, box)
        mons = pkg.basis(fan, alpha)
        terms = self.form_terms(mons, len(fan.rays), r, rng)
        job = self.job(template, fan, box, terms, r)
        job.data = {"fan": fan, "alpha": alpha, "terms": terms}
        return job

    @staticmethod
    def form_terms(mons, nvars, r, rng):
        if r:
            # Points in the torus, so none lies in the irrelevant locus.
            points = [[nonzero(rng, -3, 3) for _ in range(nvars)]
                      for _ in range(r)]
            terms = point_sum(mons, points, [nonzero(rng, -9, 9)
                                             for _ in points])
            if terms:
                return terms
        return {m: nonzero(rng, -20, 20) for m in mons}

    def job(self, template, fan, box, terms, r):
        pkg = self.pkg

        def call():
            form = pkg.ApolarForm(fan, pkg.MultiPoly(pkg.Side.DUAL, terms))
            grid = pkg.hilbert_grid(form, box)
            verdict = pkg.check_symmetry(form, box)
            best = pkg.best_bounds(form, box)
            return form.degree, grid, verdict, best

        def canon(result):
            alpha, grid, verdict, best = result
            return json.dumps({
                "alpha": degree_json(alpha),
                "grid": sorted([degree_json(d), v]
                               for d, v in grid.values.items()),
                "symmetry": verdict.ok,
                "best": [[best.border, best.border_at and degree_json(best.border_at)],
                         [best.rank, best.rank_at and degree_json(best.rank_at)],
                         [best.cactus, best.cactus_at and degree_json(best.cactus_at)]],
            }, separators=(",", ":"))

        def check(result):
            alpha, grid, verdict, best = result
            problems = []
            if not verdict.ok:
                problems.append(f"symmetry fails at {verdict.witness}")
            values = grid.values
            for beta, v in values.items():
                dual = alpha - beta
                if dual in values and values[dual] != v:
                    problems.append(f"grid not symmetric at {beta}")
                cap = min(len(pkg.basis(fan, beta)), len(pkg.basis(fan, dual)))
                if not 0 <= v <= cap:
                    problems.append(f"rank {v} outside 0..{cap} at {beta}")
            top = max(values.values())
            if best.border != top or best.rank != best.border:
                problems.append("best_bounds disagrees with the Hilbert grid")
            if best.cactus > best.border:
                problems.append("cactus bound exceeds the border bound")
            if r and best.border > r:
                problems.append(f"border bound {best.border} > {r} points")
            return problems

        return Job(template, call, canon, check)


# --- secant_session -------------------------------------------------------------

# (template, kind, fan, degree, r, prime).  Terracini probes sit next to the
# filling threshold r * (free chart parameters + 1) ~ dim of the piece;
# determinant checks need it exactly.
SECANT_CYCLE = (
    ("f1_terracini_r16_p101", "terracini", "f1", (10, 5), 16, 101),
    ("f1_det_r10", "det", "f1", (8, 3), 10, 32003),
    ("p114_terracini_r15_p32003", "terracini", "p114", (16,), 15, 32003),
    ("f1_decompose_r10", "decompose", "f1", (12, 5), 10, None),
    ("p1cubed_terracini_r12_p101", "terracini", "p1p1p1", (3, 3, 2), 12, 101),
    ("f1_limit", "limit", "f1", (12, 5), 4, None),
    ("f1_terracini_r15_p32003", "terracini", "f1", (10, 5), 15, 32003),
    ("p114_det_r12", "det", "p114", (14,), 12, 101),
    ("p1cubed_decompose_r6", "decompose", "p1p1p1", (3, 3, 3), 6, None),
    ("p114_terracini_r14_p101", "terracini", "p114", (16,), 14, 101),
    ("p1cubed_det_r8", "det", "p1p1p1", (3, 3, 1), 8, 32003),
    ("p1cubed_limit", "limit", "p1p1p1", (3, 3, 3), 4, None),
)


class SecantSession:
    """Library session: Terracini probes, tangent-stack determinants over Q
    and mod p, exact decomposition checks and limit certificates."""

    name = "secant_session"
    cycle = SECANT_CYCLE
    trace_prefix = 4 * len(SECANT_CYCLE)
    rss_at = 80

    def __init__(self, root: Path):
        self.root = root

    def setup(self, pkg):
        self.pkg = pkg
        self.fans = load_fans(pkg, self.root)
        for _, _, fan_name, degree, _, _ in SECANT_CYCLE:
            fan = self.fans[fan_name]
            pkg.basis(fan, fan.degree(degree))

    def make_job(self, seed: int, index: int) -> Job:
        template, kind, fan_name, degree, r, prime = \
            SECANT_CYCLE[index % len(SECANT_CYCLE)]
        rng = job_rng(self.name, seed, index)
        fan = self.fans[fan_name]
        degree = fan.degree(degree)
        make = {"terracini": self.terracini, "det": self.det,
                "decompose": self.decompose, "limit": self.limit}[kind]
        call, canon, check = make(fan, degree, r, prime, rng)
        return Job(template, call, canon, check)

    def terracini(self, fan, degree, r, prime, rng):
        pkg = self.pkg
        probe_seed = rng.randrange(1 << 30)
        dim = len(pkg.basis(fan, degree))
        per_point = len(fan.rays) - fan.class_group.free_rank + 1

        def call():
            return pkg.terracini_probe(fan, degree, r, prime=prime,
                                       seed=probe_seed)

        def canon(p):
            return json.dumps([p.prime, p.seed, p.trials, list(p.pins),
                               list(p.ranks), p.rank, p.ambient_dim,
                               p.fills_space, p.degenerate])

        def check(p):
            cap = min(dim, r * per_point)
            problems = []
            if len(p.ranks) != p.trials or p.rank != max(p.ranks):
                problems.append("probe rank is not the best trial")
            if not all(0 <= x <= cap for x in p.ranks):
                problems.append(f"tangent rank above the cap {cap}")
            if p.ambient_dim != dim or p.fills_space != (p.rank == dim):
                problems.append("fills_space disagrees with the rank")
            if p.degenerate != (p.rank < cap):
                problems.append("degenerate flag disagrees with the cap")
            return problems

        return call, canon, check

    def det(self, fan, degree, r, prime, rng):
        pkg = self.pkg
        per_point = len(fan.rays) - fan.class_group.free_rank
        assignment = [nonzero(rng, -9, 9) for _ in range(r * per_point)]

        def call():
            over_q = pkg.terracini_determinant_check(fan, degree, r, assignment)
            mod_p = pkg.terracini_determinant_check(fan, degree, r, assignment,
                                                    prime=prime)
            return over_q, mod_p

        def canon(result):
            return json.dumps([str(result[0]), result[1]])

        def check(result):
            over_q, mod_p = result
            if over_q.denominator != 1:
                return ["integer assignment gave a fractional determinant"]
            if over_q.numerator % prime != mod_p:
                return [f"det over Q is {over_q}, which is not {mod_p} "
                        f"mod {prime}"]
            return []

        return call, canon, check

    def decompose(self, fan, degree, r, prime, rng):
        pkg = self.pkg
        nvars = len(fan.rays)
        points = [[Fraction(nonzero(rng, -4, 4), rng.randint(1, 3))
                   for _ in range(nvars)] for _ in range(r)]
        coeffs = [Fraction(nonzero(rng, -9, 9), rng.randint(1, 4))
                  for _ in range(r)]
        terms = point_sum(pkg.basis(fan, degree), points, coeffs)
        if not terms:
            points, coeffs = points[:1], [Fraction(1)]
            terms = point_sum(pkg.basis(fan, degree), points, coeffs)
        pairs = list(zip(coeffs, points))

        def call():
            form = pkg.ApolarForm(fan, pkg.MultiPoly(pkg.Side.DUAL, terms))
            return pkg.verify_decomposition(form, pairs)

        def canon(chk):
            return json.dumps([chk.ok, sorted(
                (list(m), str(c)) for m, c in chk.residual.terms.items())])

        def check(chk):
            if not chk.ok or not chk.residual.is_zero():
                return ["exact decomposition of the job's own points "
                        "reported inexact"]
            return []

        return call, canon, check

    def limit(self, fan, degree, r, prime, rng):
        """A tangent family: (1/l) * (L_{P(l)} - L_{P(0)}) with P(l) scaling
        one coordinate by l, plus r - 1 ordinary points.  Its limit is the
        slice of L_P with exponent 1 in that coordinate, so the family is a
        VALID certificate of r + 1 terms."""
        pkg = self.pkg
        nvars = len(fan.rays)
        mons = pkg.basis(fan, degree)
        lam = Fraction(nonzero(rng, -5, 5))
        pick = [k for k in range(nvars) if any(m[k] == 1 for m in mons)]
        k = rng.choice(pick)
        base = [nonzero(rng, -3, 3) for _ in range(nvars)]
        others = [[nonzero(rng, -3, 3) for _ in range(nvars)]
                  for _ in range(r - 1)]
        mus = [Fraction(nonzero(rng, -5, 5)) for _ in others]
        limit = point_sum([m for m in mons if m[k] == 1], [base], [lam])
        terms = dict(limit)
        for m, c in point_sum(mons, others, mus).items():
            terms[m] = terms.get(m, 0) + c
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            terms, others, mus = limit, [], []
        scalar = pkg.LaurentScalar

        def const(v):
            return scalar(Fraction(v), (0,))

        moving = tuple(scalar(Fraction(c), (1,)) if i == k else const(c)
                       for i, c in enumerate(base))
        fixed = tuple(const(0) if i == k else const(c)
                      for i, c in enumerate(base))
        family = [(scalar(lam, (-1,)), moving), (scalar(-lam, (-1,)), fixed)]
        family += [(const(mu), tuple(const(c) for c in pt))
                   for mu, pt in zip(mus, others)]
        family = pkg.LaurentFamily(("l",), tuple(family))

        def call():
            form = pkg.ApolarForm(fan, pkg.MultiPoly(pkg.Side.DUAL, terms))
            return pkg.limit_certificate(form, family)

        def canon(cert):
            return json.dumps([cert.status, cert.term_count,
                               [[list(e), list(m), str(c)]
                                for e, m, c in cert.residue],
                               [[list(m), str(c)]
                                for m, c in cert.constant_defect]])

        def check(cert):
            problems = []
            if not cert.valid:
                problems.append("limit certificate of a valid family is "
                                "INVALID")
            if cert.term_count != len(family.terms):
                problems.append("term count differs from the family")
            if any(e[0] <= 0 for e, _, _ in cert.residue):
                problems.append("residue term does not vanish as l -> 0")
            return problems

        return call, canon, check


WORKLOADS = {w.name: w for w in (LengthScan, BoundsSession, SecantSession)}
