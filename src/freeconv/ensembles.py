"""Monte Carlo sampling of generalized Wishart ensembles.

A sample is X = (U_1 + ... + U_k) G_1 ... G_s with Haar unitaries U_i
(k = 0 drops the prefactor) and independent complex Ginibre blocks G_i
of shape N_{i-1} x N_i.  Each Ginibre factor is normalised by
1/sqrt(columns) and the unitary sum by 1/sqrt(k); eigenvalues of the
Gram matrix are computed on the smaller end of the chain and rescaled
by the deterministic factor N_s / N_0, which targets unit mean on the
N_s side without coupling samples through a random trace.  Structural
rank deficiency -- N_s - min_i N_i zeros, whether the chain narrows at
an end or in its interior -- shows up as an exact zero block that is
recorded rather than diagonalised.

Eigenvalues come from LAPACK (``np.linalg.eigvalsh``).

Reproducibility: sample j draws from a PCG64 stream seeded with
``SeedSequence([seed, j])``, so distinct (seed, j) pairs get
independent streams, and Gaussians come from the stream's
``standard_normal``; results are bit-identical for a given
(config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError, ShapeError
from .measures import Arcsine, MarchenkoPastur, _rational_coerce

__all__ = [
    "EnsembleConfig",
    "EmpiricalSpectrum",
    "sample_ginibre",
    "sample_haar_unitary",
    "build_sample",
    "simulate",
    "hermitian_eigenvalues",
    "ks_distance",
]

# eigenvalues at or below this fraction of the largest count as zeros
_ZERO_RTOL = 1e-8

RNG_INFO = ("PCG64 stream per sample, seeded by SeedSequence([seed, sample_index]); "
            "complex Gaussians via standard_normal, real and imaginary parts "
            "of variance 1/2")


@dataclass(frozen=True)
class EnsembleConfig:
    """Dimensions and sampling plan for one ensemble.

    ``ginibre_shape_ratios`` lists one rectangularity c_i per Ginibre
    factor (1 = square); factor i has shape round(c_{i-1} N) x
    round(c_i N) with c_0 = 1.  ``unitary_sum_k`` = 0 omits the unitary
    prefactor; k = 2 gives the (U_1 + U_2) Bures-type prefactor.
    """

    n: int
    ginibre_shape_ratios: tuple = (Fraction(1),)
    unitary_sum_k: int = 0
    samples: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ginibre_shape_ratios",
                           tuple(_rational_coerce(c) for c in self.ginibre_shape_ratios))
        if self.n < 2:
            raise DomainError("matrix dimension must be at least 2")
        if any(c <= 0 for c in self.ginibre_shape_ratios):
            raise DomainError("shape ratios must be positive")
        if self.samples < 1:
            raise DomainError("need at least one sample")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if self.unitary_sum_k < 0:
            raise DomainError("unitary summand count must be >= 0")

    def dims(self):
        """Chain dimensions [N_0, N_1, ..., N_s]."""
        out = [self.n]
        for c in self.ginibre_shape_ratios:
            ni = int(round(c * self.n))
            if ni < 1:
                raise ShapeError(f"shape ratio {c} collapses the chain at N={self.n}")
            out.append(ni)
        return out


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Pooled rescaled eigenvalues across samples, sorted ascending.

    ``values`` includes the structural zeros of rank-deficient chains;
    ``zero_count`` counts eigenvalues below the near-zero threshold
    1e-8 times the largest eigenvalue.
    """

    values: np.ndarray
    zero_count: int
    rng_info: str = field(compare=False, default=RNG_INFO)

    def atom_fraction(self):
        return self.zero_count / len(self.values)

    def mean(self):
        return float(self.values.mean())


def config_for_measure(spec, n=256, samples=40, seed=0):
    """Ensemble whose pooled Gram spectrum converges to ``spec``.

    Supported measures: products of Marchenko-Pastur factors with
    positive integer exponents, optionally times one arcsine factor
    (exponent 1), realised as a (U1 + U2) prefactor.  A chain with
    dimensions [N_0 .. N_s] converges to prod_i 1/(1 + (N_s/N_{i-1}) w)
    on the N_s side, so the shape ratios are solved from the requested
    rectangularities; a unit factor (when present) is placed first so
    that the unitary prefactor acts on the N_s-sized side, which is the
    placement that reproduces the arcsine factor with an unrescaled
    argument.  Fractional free powers have no finite matrix model and
    are rejected.
    """
    k = 0
    cs = []
    for factor, expo in spec.factors:
        if isinstance(factor, Arcsine):
            if expo != 1 or k:
                raise DomainError("only a single arcsine factor of exponent 1 "
                                  "has a matrix realisation here")
            k = 2
        elif isinstance(factor, MarchenkoPastur):
            if expo.denominator != 1 or expo < 1:
                raise DomainError(f"no finite matrix model for exponent {expo}")
            cs.extend([factor.c] * int(expo))
        else:
            raise DomainError(f"no matrix model for factor {factor.label()}")
    cs.sort(key=lambda c: c != 1)  # unit rectangularities first
    if cs:
        c1 = cs[0]
        shapes = tuple(c1 / c for c in cs[1:]) + (c1,)
    else:
        shapes = ()
    if k and shapes and shapes[-1] != 1:
        # the chain ends on a side of different size than the prefactor
        # acts on; the limiting law would carry a rescaled arcsine factor
        raise DomainError("arcsine times a non-square chain has no exact "
                          "realisation with a left unitary prefactor")
    return EnsembleConfig(n=n, ginibre_shape_ratios=shapes,
                          unitary_sum_k=k, samples=samples, seed=seed)


def _stream(seed, index):
    ss = np.random.SeedSequence([int(seed), int(index)])
    return np.random.Generator(np.random.PCG64(ss))


def _complex_gaussian(rng, rows, cols):
    # interleaved real/imaginary N(0, 1) pairs scaled to CN(0, 1)
    return rng.standard_normal((rows, 2 * cols)).view(np.complex128) * math.sqrt(0.5)


def sample_ginibre(rows, cols, rng):
    """Complex Ginibre block: i.i.d. CN(0, 1) entries (unit |entry|^2
    mean, real and imaginary parts of variance 1/2)."""
    if rows < 1 or cols < 1:
        raise DomainError("Ginibre dimensions must be positive")
    return _complex_gaussian(rng, rows, cols)


def sample_haar_unitary(n, rng):
    """Haar-distributed unitary: QR of a Ginibre draw with the phases of
    R's diagonal divided out, which makes the law exactly invariant."""
    if n < 1:
        raise DomainError("unitary dimension must be positive")
    q, r = np.linalg.qr(_complex_gaussian(rng, n, n))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def hermitian_eigenvalues(h):
    """All eigenvalues of a complex Hermitian matrix, ascending (LAPACK)."""
    H = np.asarray(h, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ShapeError("expected a square matrix")
    herm_defect = np.abs(H - H.conj().T).max()
    if herm_defect > 1e-10 * max(1.0, np.abs(H).max()):
        raise DomainError(f"matrix is not Hermitian (defect {herm_defect:.2e})")
    return np.linalg.eigvalsh(H)


def build_sample(cfg, rng):
    """One sample: (sorted rescaled eigenvalues, structural zero count).

    X has rank min_i N_i, so the N_s side of the Gram spectrum carries
    N_s - min_i N_i structural zeros, including those of an interior
    bottleneck; they are appended as exact zeros by the caller rather
    than diagonalised.  The Gram matrix on the smaller end has
    min(N_0, N_s) - min_i N_i of them, which are dropped from the
    returned eigenvalues; ConvergenceError is raised if that block is
    not below the zero threshold 1e-8 times the largest eigenvalue.
    """
    dims = cfg.dims()
    x = None
    if cfg.unitary_sum_k >= 1:
        b = np.zeros((cfg.n, cfg.n), dtype=complex)
        for _ in range(cfg.unitary_sum_k):
            b += sample_haar_unitary(cfg.n, rng)
        x = b / math.sqrt(cfg.unitary_sum_k)
    for rows, cols in zip(dims[:-1], dims[1:]):
        g = sample_ginibre(rows, cols, rng) / math.sqrt(cols)
        x = g if x is None else x @ g
    if x is None:
        raise ShapeError("empty chain: need a unitary prefactor or a Ginibre factor")
    if dims[0] <= dims[-1]:
        gram = x @ x.conj().T
    else:
        gram = x.conj().T @ x
    eig = np.sort(hermitian_eigenvalues(gram)) * (dims[-1] / dims[0])
    rank = min(dims)
    deficit = min(dims[0], dims[-1]) - rank
    if deficit:
        worst = float(np.abs(eig[:deficit]).max())
        if worst > _ZERO_RTOL * eig.max():
            raise ConvergenceError(
                f"rank-deficient block of {deficit} eigenvalues reaches "
                f"{worst:.2e}, above the zero threshold")
        eig = eig[deficit:]
    return eig, dims[-1] - rank


def simulate(cfg):
    """Draw all samples and pool the rescaled eigenvalues.

    Sample j = 0, 1, ... draws from its own stream, seeded by
    ``SeedSequence([seed, j])``, so the result is bit-identical for a
    given (config, seed).
    """
    chunks = []
    for j in range(cfg.samples):
        eig, structural = build_sample(cfg, _stream(cfg.seed, j))
        if structural:
            chunks.append(np.zeros(structural))
        chunks.append(eig)
    values = np.sort(np.concatenate(chunks))
    neg = values < 0.0
    if neg.any():
        worst = values[neg].min()
        if worst < -1e-8 * max(1.0, values.max()):
            raise ConvergenceError(f"eigenvalue {worst:.2e} below the clipping floor")
        values = np.where(neg, 0.0, values)
    zero_count = int((values <= _ZERO_RTOL * values.max()).sum()) if values.max() > 0 else len(values)
    return EmpiricalSpectrum(values=values, zero_count=zero_count)


def ks_distance(spectrum, model_cdf):
    """Sup-norm distance between the empirical CDF (atoms included) and
    a model CDF callable.

    Tie blocks are compared as blocks, and the pre-jump side uses the
    model's left limit, so models with an atom (a CDF jump at zero) are
    compared correctly against the repeated zero eigenvalues.
    """
    x = np.asarray(spectrum.values if isinstance(spectrum, EmpiricalSpectrum)
                   else spectrum, dtype=float)
    if x.size == 0:
        raise DomainError("empty spectrum")
    n = x.size
    u, counts = np.unique(x, return_counts=True)
    above = np.cumsum(counts) / n
    below = above - counts / n
    F = np.asarray(model_cdf(u), dtype=float)
    F_left = np.asarray(model_cdf(u - 1e-9 * (1.0 + np.abs(u))), dtype=float)
    return float(max(np.abs(above - F).max(), np.abs(below - F_left).max()))
