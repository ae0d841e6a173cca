"""The four workloads: request generators, warm-up and oracle checks.

Each workload draws its requests from ``random.Random(f"{name}:{seed}")``
in rounds.  A round holds one request per slot, in shuffled order, and
every slot has a fixed request type and input size; the seed picks the
measure parameters (and, for Monte Carlo, the simulation seed).  A run
is a whole number of rounds, so runs with different seeds time the same
mix of request types.

The program only ever sees the generated inputs: CLI argument lists for
``freeconv.cli.main`` or arguments of library calls.  Checks run after
the timed loop against ``oracles``; a request fails when it raises,
exits non-zero, or misses its check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

import oracles as O

AS = O.Measure((("as", F(1), F(1)),))

# closed-form aliases of the CLI and the measures they stand for
ALIASES = {
    "as": AS,
    "fc2": O.mp(1, 2),
    "fc3": O.mp(1, 3),
    "bures": O.times(AS, O.mp(1)),
    "bures2": O.times(AS, O.mp(1, 2)),
    "mp-sqrt": O.mp(1, F(1, 2)),
    "mp-cbrt": O.mp(1, F(1, 3)),
}

SOFT = [F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(3, 4), F(4, 5)]
LARGE = [F(5, 4), F(3, 2), F(5, 3), F(7, 4), F(2), F(7, 3), F(5, 2), F(3), F(4)]

# relative tolerances of the checks
DENSITY_TOL = 1e-6      # pointwise density against a closed form
EDGE_TOL = 1e-8         # support edges, relative to max(1, upper edge)
ATOM_TOL = 1e-6         # mass at zero
# moments m0, m1, m2 integrated from a 512-point CLI curve; the error is
# the benchmark's own edge-strip closure (1% strips), not the program's
CURVE_MOMENT_TOL = (5e-2, 2e-3, 2e-4)


class RequestFailed(Exception):
    """A CLI call exited non-zero."""


@dataclass
class Request:
    slot: str
    label: str          # what a user would type, for reports
    key: str            # the measure, for the repeat share
    run: object         # () -> output
    check: object       # (output) -> accuracy dict; raises AssertionError
    output: object = None
    error: str | None = None
    latency: float = 0.0


def _cli(argv):
    from freeconv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise RequestFailed(f"exit {rc}: {err.getvalue().strip().splitlines()[-1:]}")
    return out.getvalue()


def _require(ok, msg):
    if not ok:
        raise AssertionError(msg)


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


# ---------------------------------------------------------------------------
# curve checks shared by density and support requests
# ---------------------------------------------------------------------------

def _check_edges(measure, lo, hi, atom):
    elo, ehi = O.support(measure)
    scale = max(1.0, ehi)
    err = max(abs(lo - elo), abs(hi - ehi)) / scale
    _require(err <= EDGE_TOL, f"support [{lo}, {hi}] vs [{elo}, {ehi}]")
    _require(abs(atom - measure.atom()) <= ATOM_TOL, f"atom {atom} vs {measure.atom()}")
    return {"edge_err": err}


def _strip_integral(edge, sign, width, ds, rs, gamma, k):
    """Integral of x^k rho over the edge strip of ``width``, from a fit
    rho = d^gamma (c0 + c1 d + c2 d^2) through three points at distance d."""
    A = np.array([[d ** j for j in range(3)] for d in ds])
    c = np.linalg.solve(A, np.array(rs) / np.array(ds) ** gamma)
    total = 0.0
    for j in range(k + 1):
        for i in range(3):
            p = j + i + gamma
            total += math.comb(k, j) * edge ** (k - j) * sign ** j * c[i] * width ** (p + 1) / (p + 1)
    return total


def _curve_moments(points, lo, hi, atom, hard_exponent, margin=0.01):
    """m0..m2 of a CLI curve: midpoint rule in the cosine angle of the
    grid, plus fitted edge strips (square-root soft edges; a hard edge at
    zero decays like x^hard_exponent)."""
    xs = np.array([p[0] for p in points])
    rho = np.array([p[1] for p in points])
    n = len(xs)
    width = margin * (hi - lo)
    a, b = lo + width, hi - width
    theta = (np.arange(n) + 0.5) * math.pi / n
    weights = 0.5 * (b - a) * np.sin(theta) * math.pi / n
    il = [int(np.argmin(abs(xs - (lo + m * width)))) for m in (1.0, 2.0, 3.0)]
    ih = [int(np.argmin(abs(xs - (hi - m * width)))) for m in (1.0, 2.0, 3.0)]
    g_lo = 0.5 if lo > 0 else hard_exponent
    out = []
    for k in range(3):
        v = float(np.sum(rho * xs ** k * weights))
        v += _strip_integral(lo, 1, width, [xs[i] - lo for i in il], [rho[i] for i in il], g_lo, k)
        v += _strip_integral(hi, -1, width, [hi - xs[i] for i in ih], [rho[i] for i in ih], 0.5, k)
        out.append(v + (atom if k == 0 else 0.0))
    return out


def check_density(measure, text):
    d = json.loads(text)
    lo, hi = d["support"]
    acc = _check_edges(measure, lo, hi, d["atom_at_zero"])
    points = d["points"]
    _require(len(points) == 512, f"{len(points)} points")
    if O.cardano_applies(measure):
        err = max(_rel(r, O.density(measure, x)) for x, r in points)
        _require(err <= DENSITY_TOL, f"density relative error {err:.2e}")
        acc["density_rel_err"] = err
        return acc
    # every value must be a branch value of P(., x) ...
    for x, r in points:
        best = min((_rel(r, v) for v in O.branch_densities(measure, x)), default=math.inf)
        _require(best <= DENSITY_TOL, f"rho({x}) = {r} is on no branch of P(., x)")
    # ... and the curve must carry the exact moments
    hard = 1.0 / float(measure.betas()[F(1)]) - 1.0
    got = _curve_moments(points, lo, hi, d["atom_at_zero"], hard)
    exact = O.moments(measure, 2)
    errs = [_rel(g, float(e)) for g, e in zip(got, exact)]
    for k, (e, tol) in enumerate(zip(errs, CURVE_MOMENT_TOL)):
        _require(e <= tol, f"curve moment m{k} relative error {e:.2e}")
    acc["moment_err"] = max(errs[1:])
    return acc


def check_support(measure, text):
    d = json.loads(text)
    lo, hi = d["support"]
    return _check_edges(measure, lo, hi, d["atom_at_zero"])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    # layers the traced run must see calls in
    layers = ()

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seen = set()

    def fresh(self, options):
        """A random option not drawn before in this process (a repeat
        only once every option has been drawn)."""
        key = lambda o: o.text() if isinstance(o, O.Measure) else str(o)
        unused = [o for o in options if key(o) not in self.seen]
        choice = self.rng.choice(unused or options)
        self.seen.add(key(choice))
        return choice

    def round(self):
        reqs = [slot() for slot in self.slots]
        self.rng.shuffle(reqs)
        return reqs

    def setup(self):
        """Work done before the first timed request (counted in setup_s)."""

    def probes(self):
        """Known-defect requests: run after the loop of a traced run and
        reported apart from the timed requests."""
        return []


def _cli_request(slot, argv, key, check):
    return Request(slot, " ".join(argv[:3]), key, lambda: _cli(argv), check)


def _density(slot, measure):
    text = measure.text()
    argv = ["density", "--measure", text, "--points", "512", "--format", "json"]
    return _cli_request(slot, argv, text, lambda out: check_density(measure, out))


def _support(slot, measure, text=None):
    text = text or measure.text()
    argv = ["support", "--measure", text, "--format", "json"]
    return _cli_request(slot, argv, text, lambda out: check_support(measure, out))


class Curves(Workload):
    """CLI ``density --points 512`` and ``support`` on fresh measures:
    the resolvent pipeline as the CLI runs it, one polynomial per call.

    Every slot draws from a few parameters of similar cost, so that the
    seed changes the measures but not the mix of request costs.  Soft
    lower edges sit at least 0.5% of the upper edge above zero: the
    program reports edges closer to zero than its 512-point scan step as
    hard edges, or fails to continue the branch there, which the
    ``probes`` keep visible.
    """

    name = "curves"
    layers = ("cli", "measures.build", "resolvent.roots", "resolvent.continuation",
              "resolvent.seed", "resolvent.edges", "resolvent.inversion",
              "resolvent.quadrature", "closedform.curve")

    def __init__(self, seed):
        super().__init__(seed)
        pairs = [(F(1, 3), F(1, 2)), (F(1, 4), F(1, 2)), (F(1, 5), F(1, 2)), (F(2, 5), F(1, 2)),
                 (F(1, 3), F(2, 5)), (F(1, 4), F(2, 5)), (F(1, 5), F(2, 5)), (F(1, 5), F(1, 4)),
                 (F(1, 5), F(3, 5)), (F(1, 3), F(3, 5))]
        one = lambda make, cs: [make(F(c)) for c in cs]
        table = [
            # w-degree 3: soft edges, a hard edge at 0, an atom at 0
            ("mp(a)*mp(b)", _density, [O.times(O.mp(a), O.mp(b)) for a, b in pairs]),
            ("mp(1)*mp(c)", _density,
             one(lambda c: O.times(O.mp(1), O.mp(c)), ["1/3", "2/5", "1/2", "3/5", "3/4", "4/5"])),
            ("as*mp(c>1)", _density,
             one(lambda c: O.times(AS, O.mp(c)), ["5/3", "7/4", "2", "7/3", "5/2", "3", "4"])),
            # clearing power 2 (w-degree 3) and 3 (w-degree 4)
            ("mp(c)^(1/2)", _density,
             one(lambda c: O.mp(c, F(1, 2)), ["1/4", "1/2", "3/5", "2/3", "3/4"])),
            ("mp(c)^(1/3)", _density,
             one(lambda c: O.mp(c, F(1, 3)), ["1/5", "1/4", "1/3", "2/5", "1/2"])),
            # w-degree 4 with an atom; w-degree 5 with clearing power 3
            ("support as*mp(c>1)^2", _support,
             one(lambda c: O.times(AS, O.mp(c, 2)), ["2", "7/3", "5/2", "3"])),
            ("support mp(c)^(2/3)", _support,
             one(lambda c: O.mp(c, F(2, 3)), ["1/5", "1/4", "1/3", "3/4"])),
            # closed-form aliases, never routed through the resolvent
            ("alias mp(c)", _density, one(O.mp, ["1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3"])),
        ]
        self.slots = [self._slot(*row) for row in table] + [self._alias_support]

    def _slot(self, slot, kind, options):
        return lambda: kind(slot, self.fresh(options))

    def _alias_support(self):
        name = self.fresh(sorted(ALIASES))
        return _support("alias support", ALIASES[name], name)

    def setup(self):
        # the first curve imports scipy.integrate inside curve_integral
        _cli(["density", "--measure", "mp(2/7)*mp(3/7)", "--points", "16", "--format", "json"])

    def probes(self):
        return [
            # "branches could not be separated"
            _density("defect", O.mp(1, F(1, 4))),
            _density("defect", O.times(AS, O.mp(1, F(1, 2)))),
            _density("defect", O.mp(2, F(2, 3))),
            _density("defect", O.times(O.mp(F(1, 3)), O.mp(F(1, 2)), O.mp(F(3, 4)))),
            _density("defect", O.mp(F(4, 5), 2)),
            # soft lower edge near zero reported as a hard edge at 0
            _density("defect", O.times(AS, O.mp(F(5, 4)))),
            _density("defect", O.times(O.mp(F(3, 5)), O.mp(F(3, 4)))),
            # the mp(c) alias with c > 1 reports no atom instead of 1 - 1/c
            _density("defect", O.mp(2)),
        ]


class Points(Workload):
    """Library ``density`` and ``potential_derivative`` at scattered
    interior x, interleaved over four measures built once in setup."""

    name = "points"
    layers = ("resolvent.roots", "resolvent.continuation", "resolvent.seed",
              "resolvent.edges", "resolvent.inversion")
    # (measure, closed-form alias whose density is the reference, or None
    # when the Cardano oracle applies)
    MEASURES = [(O.mp(1, 2), None), (O.times(AS, O.mp(1, 2)), "bures2"),
                (O.mp(1, F(1, 3)), "mp-cbrt"), (O.times(O.mp(F(1, 4)), O.mp(1)), None)]

    def setup(self):
        from freeconv import closedform, grammar, measures, resolvent

        self.targets = []
        for m, alias in self.MEASURES:
            poly = measures.build_resolvent(grammar.parse_measure(m.text()))
            lo, hi = resolvent.support_edges(poly)
            ref = closedform.family(alias).density if alias else (lambda x, m=m: O.density(m, x))
            self.targets.append((m, poly, lo, hi, ref))
        self.slots = [lambda t=t: self._query(t) for t in self.targets]
        for req in self.round():   # warm-up: one query per measure
            req.run()

    def _query(self, target):
        from freeconv import resolvent

        m, poly, lo, hi, ref = target
        x = lo + (hi - lo) * self.rng.uniform(0.05, 0.95)
        if self.rng.random() < 0.5:
            def check(rho):
                err = _rel(rho, ref(x))
                _require(err <= DENSITY_TOL, f"density({x}) relative error {err:.2e}")
                return {"density_rel_err": err}
            return Request("density", f"density {m.text()} x={x}", m.text(),
                           lambda: resolvent.density(poly, x), check)

        def check(v):
            want = O.potential_derivative(m, x, ref(x))
            err = abs(v - want) / max(1.0, abs(want))
            _require(err <= DENSITY_TOL, f"V'({x}) = {v} vs {want}")
            return {"density_rel_err": err}
        return Request("potential", f"potential {m.text()} x={x}", m.text(),
                       lambda: resolvent.potential_derivative(poly, x), check)


class Algebra(Workload):
    """Exact series engine and single-ring radii, without root finding:
    CLI ``moments -K`` and ``ring``, library cumulant and boxtimes
    round trips."""

    name = "algebra"
    layers = ("cli", "measures.build", "moments.series", "moments.algebra", "isotropic")
    POWERS = [F(2), F(3), F(4), F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(3, 4), F(4, 3), F(5, 2)]

    def __init__(self, seed):
        super().__init__(seed)
        cs = SOFT + LARGE
        fc = [O.mp(1, s) for s in self.POWERS]
        mixed = [O.times(O.mp(1, s), O.mp(c)) for s in (1, 2) for c in SOFT]
        arcsine = [O.times(AS, O.mp(1, s)) for s in (1, 2, 3, F(1, 2), F(3, 2))]
        rings = [O.mp(c) for c in SOFT + [F(1)]] + [O.mp(c, 2) for c in SOFT]
        pairs = [(a, b) for a in cs for b in cs if a < b]
        self.slots = [
            lambda: self._moments("moments K=64", self.fresh(fc), 64),
            lambda: self._moments("moments K=32", self.fresh(mixed), 32),
            lambda: self._moments("moments K=24", self.fresh(arcsine), 24),
            lambda: self._cumulants(self.fresh(cs), 12),
            lambda: self._boxtimes(*self.fresh(pairs), 12),
            lambda: self._ring(self.fresh(rings)),
        ]

    def _moments(self, slot, measure, K):
        text = measure.text()

        def check(out):
            rows = out.split()[1:]
            got = [F(r.split(",")[1]) for r in rows]
            _require(got == O.moments(measure, K), "moments differ from Lagrange inversion")
            return {}
        return _cli_request(slot, ["moments", "--measure", text, "-K", str(K)], text, check)

    def _cumulants(self, c, K):
        from freeconv import moments

        ms = O.moments(O.mp(c), K)

        def run():
            kappa = moments.cumulants_from_moments(ms)
            return kappa, moments.moments_from_cumulants(kappa)

        def check(out):
            kappa, back = out
            _require(list(kappa.values) == [c ** (n - 1) for n in range(1, K + 1)],
                     f"free cumulants of mp({c}) are not c^(n-1)")
            _require(list(back.values) == ms, "cumulant round trip changed the moments")
            return {}
        return Request("cumulants", f"cumulants mp({c}) K={K}", f"mp({c})", run, check)

    def _boxtimes(self, a, b, K):
        from freeconv import moments

        target = O.times(O.mp(a), O.mp(b))
        ma, mb = O.moments(O.mp(a), K), O.moments(O.mp(b), K)

        def check(out):
            _require(list(out.values) == O.moments(target, K), "boxtimes moments differ")
            return {}
        return Request("boxtimes", f"boxtimes mp({a}) mp({b}) K={K}", target.text(),
                       lambda: moments.boxtimes_moments(ma, mb, K), check)

    def _ring(self, measure):
        text = measure.text()

        def check(out):
            d = json.loads(out)
            worst = 0.0
            for r, f in d["profile"]:
                if 1e-12 < f < 1.0 - 1e-12:
                    worst = max(worst, abs(O.s_transform(measure, f - 1.0) * r * r - 1.0))
                    if text == "mp(1)":
                        worst = max(worst, abs(f - r * r))
            _require(worst <= 1e-9, f"radial CDF misses S(F - 1) r^2 = 1 by {worst:.2e}")
            outer = 1.0 / math.sqrt(O.s_transform(measure, 0.0))
            _require(abs(d["outer_radius"] - outer) <= 1e-9 * outer, "outer radius")
            return {}
        argv = ["ring", "--measure", text, "--points", "64", "--format", "json"]
        return _cli_request("ring", argv, text, check)

    def setup(self):
        _cli(["moments", "--measure", "mp(2/7)", "-K", "4"])


class MonteCarlo(Workload):
    """CLI ``compare --simulate`` over measures with a matrix model:
    sampling, the matrix chain, the eigensolver and KS."""

    name = "montecarlo"
    layers = ("cli", "measures.build", "moments.series", "closedform.cdf", "resolvent.cdf",
              "ensembles.sampling", "ensembles.eigen", "ensembles.chain", "ensembles.pool",
              "ensembles.ks")
    N, SAMPLES = 128, 4

    def __init__(self, seed):
        super().__init__(seed)
        # one fixed request type per slot: the seed changes the random
        # matrices, not the matrix sizes
        fixed = [("mp(1)", O.mp(1))] + [(name, ALIASES[name]) for name in ("fc2", "fc3", "bures")]
        self.slots = [lambda t=t, m=m: self._compare(t, m, f"compare {t}") for t, m in fixed]
        self.products = [O.times(O.mp(1), O.mp(c)) for c in (F(1, 3), F(2, 5), F(1, 2), F(3, 5))]
        self.slots.append(self._product)

    def _product(self):
        m = self.fresh(self.products)
        return self._compare(m.text(), m, "compare mp(1)*mp(c)")

    def _compare(self, text, measure, slot, n=None, samples=None):
        n, samples = n or self.N, samples or self.SAMPLES
        seed = self.rng.randrange(2 ** 31)

        def check(out):
            d = json.loads(out)
            bound = O.ks_bound(n, samples)
            _require(d["ks"] <= bound, f"KS {d['ks']:.3f} above {bound:.3f}")
            # the program counts eigenvalues below 1e-8 max as zeros, which
            # takes in some continuous mass near a hard edge: the KS bound
            # covers that
            _require(abs(d["atom_fraction"] - measure.atom()) <= bound,
                     f"atom fraction {d['atom_fraction']} vs {measure.atom()}")
            exact = O.moments(measure, 3)
            for row in d["moments"]:
                want = float(exact[row["k"]])
                _require(_rel(row["exact"], want) <= 1e-12, f"exact m{row['k']}")
                tol = 6.0 * row["stderr"] + 4.0 * want / n
                _require(abs(row["empirical"] - want) <= tol,
                         f"empirical m{row['k']} {row['empirical']} vs {want}")
            return {"ks": d["ks"]}
        argv = ["compare", "--measure", text, "--simulate",
                f"N={n},samples={samples},seed={seed}"]
        return _cli_request(slot, argv, text, check)

    def setup(self):
        _cli(["compare", "--measure", "mp(1)", "--simulate", "N=16,samples=1,seed=1"])

    def probes(self):
        return [
            # rank counting: the Gram matrix of [96, 48, 96] chains has rank 48
            self._compare("as*mp(2)*mp(1)", O.times(AS, O.mp(2), O.mp(1)), "defect", 64, 2),
            # the mp(c) alias with c > 1 models no atom
            self._compare("mp(2)", O.mp(2), "defect", 64, 2),
        ]


WORKLOADS = {w.name: w for w in (Curves, Points, Algebra, MonteCarlo)}
