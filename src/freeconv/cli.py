"""Command-line front end.

Subcommands: density, support, moments, simulate, compare, ring,
potential.  Measures are given either as closed-form family aliases
(as, fc2, fc3, bures, bures2, mp-sqrt, mp-cbrt, mp(c)) or as measure
expressions in the grammar of the ``grammar`` module; aliases are
served from the closed forms, expressions through the resolvent.

Floats are printed with shortest round-trip formatting so that output
re-parsed from CSV or JSON reproduces the computed values bit-exactly.
Exit codes: 0 success, 1 domain or numerical error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import closedform, ensembles, grammar, isotropic, measures, moments, resolvent
from .errors import DomainError, FreeconvError, ParseError
from .resolvent import _fmt


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _curve_for(target, n_points, edge_margin):
    fam, spec = grammar.parse_target(target)
    if fam is not None:
        return resolvent.curve_from_callable(fam, n_points, edge_margin)
    return resolvent.density_curve(measures.build_resolvent(spec), n_points=n_points,
                                   edge_margin=edge_margin)


def _model_cdf(fam, poly):
    """The CDF a Monte Carlo spectrum is compared against: the closed
    form for an alias ``fam``, the resolvent's for ``poly`` otherwise."""
    if fam is not None:
        return closedform.cdf_interpolator(fam)
    return resolvent.cdf_interpolator(poly)


def cmd_density(args):
    curve = _curve_for(args.measure, args.points, args.edge_margin)
    _emit(curve.to_csv() if args.format == "csv" else curve.to_json() + "\n",
          args.out)
    return 0


def cmd_support(args):
    fam, spec = grammar.parse_target(args.measure)
    source = fam if fam is not None else resolvent.density_source(measures.build_resolvent(spec))
    (lo, hi), atom = source.support, source.atom
    if args.format == "csv":
        _emit(f"x_lo,x_hi\n{_fmt(lo)},{_fmt(hi)}\n", args.out)
    else:
        _emit(json.dumps({"support": [lo, hi], "atom_at_zero": atom}) + "\n",
              args.out)
    return 0


def cmd_moments(args):
    _, spec = grammar.parse_target(args.measure)
    ms = moments.moments_from_resolvent(measures.build_resolvent(spec), args.order)
    lines = ["n,m_n"]
    for n, m in enumerate(ms.values):
        lines.append(f"{n},{_fmt(m) if args.decimal else str(m)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _config_from_args(args):
    try:
        shapes = tuple(Fraction(tok) for tok in (args.shapes or "1").split(","))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad shape ratios {args.shapes!r}: expected rationals "
                          "such as 1,1/2") from None
    return ensembles.EnsembleConfig(
        n=args.n,
        ginibre_shape_ratios=shapes,
        unitary_sum_k=args.unitary_k,
        samples=args.samples,
        seed=args.seed,
    )


def _config_echo(cfg):
    return {
        "N": cfg.n,
        "ginibre_shape_ratios": [str(c) for c in cfg.ginibre_shape_ratios],
        "unitary_sum_k": cfg.unitary_sum_k,
        "samples": cfg.samples,
        "seed": cfg.seed,
    }


def cmd_simulate(args):
    cfg = _config_from_args(args)
    if args.histogram < 0:
        raise DomainError(f"--histogram takes a positive bin count, not {args.histogram}")
    spectrum = ensembles.simulate(cfg)
    if args.histogram:
        counts, edges = np.histogram(spectrum.values, bins=args.histogram,
                                     density=True)
        lines = ["bin_lo,bin_hi,density"]
        for k in range(len(counts)):
            lines.append(f"{_fmt(edges[k])},{_fmt(edges[k + 1])},{_fmt(counts[k])}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    report = {
        "config": _config_echo(cfg),
        "rng": spectrum.rng_info,
        "atom_fraction": spectrum.atom_fraction(),
        "mean": spectrum.mean(),
        "eigenvalues": [float(v) for v in spectrum.values],
    }
    if args.ks_against:
        fam, spec = grammar.parse_target(args.ks_against)
        model = _model_cdf(fam, measures.build_resolvent(spec))
        report["ks"] = {"measure": args.ks_against,
                        "distance": ensembles.ks_distance(spectrum, model)}
    _emit(json.dumps(report) + "\n", args.out)
    return 0


def _parse_sim_string(text, measure_spec):
    """'N=256,samples=40,seed=7[,k=2][,c=1:1/2]' -> EnsembleConfig.

    When k and c are omitted the ensemble structure (Ginibre chain
    shapes and unitary prefactor) is derived from the measure itself.
    """
    fields = {"N": 256, "samples": 40, "seed": 0, "k": None, "c": None}
    for tok in text.split(","):
        if not tok.strip():
            continue
        if "=" not in tok:
            raise ParseError("expected key=value", text, text.find(tok))
        key, val = tok.split("=", 1)
        key = key.strip()
        if key not in fields:
            raise ParseError(f"unknown simulation key {key!r}", text,
                             text.find(tok))
        fields[key] = val.strip()
    try:
        n, samples, seed = (int(fields[key]) for key in ("N", "samples", "seed"))
        k = int(fields["k"] or 0)
        shapes = tuple(Fraction(t) for t in str(fields["c"] or "1").split(":"))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad simulation settings {text!r}: N, samples, seed and k "
                          "take integers, c rationals such as 1:1/2") from None
    if fields["k"] is None and fields["c"] is None:
        return ensembles.config_for_measure(measure_spec, n=n,
                                            samples=samples, seed=seed)
    return ensembles.EnsembleConfig(
        n=n,
        ginibre_shape_ratios=shapes,
        unitary_sum_k=k,
        samples=samples,
        seed=seed,
    )


def cmd_compare(args):
    fam, spec = grammar.parse_target(args.measure)
    cfg = _parse_sim_string(args.simulate, spec)
    spectrum = ensembles.simulate(cfg)
    poly = measures.build_resolvent(spec)
    ks = ensembles.ks_distance(spectrum, _model_cdf(fam, poly))
    exact = moments.moments_from_resolvent(poly, 3)
    vals = spectrum.values
    n = len(vals)
    moment_rows = []
    for k in (1, 2, 3):
        emp = float((vals ** k).mean())
        stderr = float((vals ** k).std(ddof=1)) / (n ** 0.5)
        moment_rows.append({
            "k": k,
            "empirical": emp,
            "exact": float(exact[k]),
            "stderr": stderr,
        })
    report = {
        "measure": args.measure,
        "config": _config_echo(cfg),
        "rng": spectrum.rng_info,
        "ks": ks,
        "atom_fraction": spectrum.atom_fraction(),
        "moments": moment_rows,
    }
    _emit(json.dumps(report) + "\n", args.out)
    return 0


def cmd_ring(args):
    _, spec = grammar.parse_target(args.measure)
    profile = isotropic.radial_profile(spec, n_points=args.points)
    if args.format == "csv":
        lines = ["r,F"]
        lines += [f"{_fmt(r)},{_fmt(f)}" for r, f in zip(profile.radii, profile.values)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps({
            "inner_radius": profile.inner_radius,
            "outer_radius": profile.outer_radius,
            "profile": [[r, f] for r, f in zip(profile.radii, profile.values)],
        }) + "\n", args.out)
    return 0


def cmd_potential(args):
    if args.x is None and args.points < 1:
        raise DomainError(f"point count must be at least 1, not {args.points}")
    _, spec = grammar.parse_target(args.measure)
    poly = measures.build_resolvent(spec)
    lo, hi = resolvent.support_edges(poly)
    if args.x is not None:
        xs = np.array([args.x])
    else:
        width = hi - lo
        xs = np.linspace(lo + 0.02 * width, hi - 0.02 * width, args.points)
    vprime = resolvent.potential_derivative(poly, xs)
    lines = ["x,vprime"] + [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, vprime)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="freeconv",
        description="Spectral densities of free multiplicative convolutions: "
                    "resolvent solving, closed forms, exact moments, and "
                    "Wishart Monte Carlo.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("density", help="sample a spectral density curve")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--points", type=int, default=512)
    sp.add_argument("--edge-margin", type=float, default=0.01)
    add_common(sp)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("support", help="locate the support interval")
    sp.add_argument("--measure", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_support)

    sp = sub.add_parser("moments", help="exact moments of a measure")
    sp.add_argument("--measure", required=True)
    sp.add_argument("-K", "--order", type=int, default=8)
    sp.add_argument("--decimal", action="store_true",
                    help="print decimals instead of exact fractions")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("simulate", help="Monte Carlo Wishart sampling")
    sp.add_argument("--n", type=int, default=256, help="base matrix dimension")
    sp.add_argument("--samples", type=int, default=40)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--unitary-k", type=int, default=0,
                    help="number of Haar summands in the prefactor (0 = none)")
    sp.add_argument("--shapes", default="1",
                    help="comma list of Ginibre shape ratios, e.g. 1,1/2")
    sp.add_argument("--histogram", type=int, default=0,
                    help="emit a CSV histogram with this many bins")
    sp.add_argument("--ks-against", default=None,
                    help="measure or alias to compare against")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("compare", help="simulate and compare against a measure")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--simulate", required=True,
                    help="e.g. N=256,samples=40,seed=7,k=2,c=1:1/2")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("ring", help="single-ring radii and radial CDF")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--points", type=int, default=64)
    add_common(sp)
    sp.set_defaults(func=cmd_ring)

    sp = sub.add_parser("potential", help="potential derivative 2 Re G on the support")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--points", type=int, default=32)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_potential)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(exc.diagnostic() + "\n")
        return 1
    except FreeconvError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (OverflowError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        # float range or a singular system: a numerical failure, not a bug
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
