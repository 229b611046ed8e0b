"""Synthetic data scenarios with known estimation targets.

A scenario draws (X, Y) with X having independent coordinates from one
design density (rescaled to the scenario support) and

    Y = b(X) + sigma(X) * eps,

with centered unit-variance noise.  Everything the estimator theory needs
about the scenario is available in analytic or quadrature-exact form: the
density and its sup-norm, the target functions s(x) for each loss map,
conditional moments of ell(Y), and the section averages
s_K = E(K(X_1, .) ell(Y_1)) of any kernel.

Sampling is inverse-CDF from counter-based uniform streams, keyed by
(seed, replication, substream), so any replication can be regenerated in
isolation and multi-process experiments stay bit-reproducible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_table_size, config_int
from .estimator import LossKind, Sample, _kernel_sums
from .quadrature import IntegrationGrid, composite_grid, trapezoid_grid
from .rng import stream

SCHEMA_VERSION = 1

# Default trapezoid risk-grid resolution per dimension.  2048 points at
# d = 1; tensor grids in higher dimension are throttled so a single risk
# integral stays in the tens of millions of kernel evaluations.
RISK_POINTS_BY_DIM = {1: 2048, 2: 256, 3: 64}

_TG_CUT = 2.0  # truncation, in sds, of the truncated-Gaussian design density
_NOISE_CUT = 5.0  # truncation of the Gaussian noise


class DensityKind(enum.Enum):
    UNIFORM = "uniform"
    TRIANGLE = "triangle"
    TRUNCATED_GAUSSIAN = "truncated_gaussian"
    RAISED_COSINE = "raised_cosine"


# Densities whose inverse CDF comes from scipy.stats.
_SCIPY_DENSITIES = (DensityKind.TRUNCATED_GAUSSIAN, DensityKind.RAISED_COSINE)


@dataclass(frozen=True)
class Density:
    """A one-dimensional design density on [lo, hi].

    ``triangle`` peaks at the midpoint and is continuous but not twice
    differentiable there; the other three kinds are smooth on the closed
    support.  ``raised_cosine`` exists mainly as a nondegenerate smooth
    test density (its derivative sup-norms are simple closed forms).
    """

    kind: DensityKind
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ConfigError("density support is empty")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def _unit(self, x):
        return (np.asarray(x, dtype=np.float64) - self.lo) / self.length

    def pdf(self, x) -> np.ndarray:
        u = self._unit(x)
        inside = (u >= 0.0) & (u <= 1.0)
        L = self.length
        if self.kind is DensityKind.UNIFORM:
            vals = np.ones_like(u) / L
        elif self.kind is DensityKind.TRIANGLE:
            vals = 4.0 * np.minimum(u, 1.0 - u) / L
        elif self.kind is DensityKind.TRUNCATED_GAUSSIAN:
            from scipy import stats

            z = (u - 0.5) * 4.0  # scale = L/4 in x units
            norm = stats.norm.cdf(_TG_CUT) - stats.norm.cdf(-_TG_CUT)
            vals = stats.norm.pdf(z) * 4.0 / (norm * L)
        else:
            vals = (1.0 - np.cos(2.0 * np.pi * u)) / L
        return np.where(inside, vals, 0.0)

    def cdf(self, x) -> np.ndarray:
        u = np.clip(self._unit(x), 0.0, 1.0)
        if self.kind is DensityKind.UNIFORM:
            return u
        if self.kind is DensityKind.TRIANGLE:
            return np.where(u <= 0.5, 2.0 * u * u, 1.0 - 2.0 * (1.0 - u) ** 2)
        if self.kind is DensityKind.TRUNCATED_GAUSSIAN:
            from scipy import stats

            z = (u - 0.5) * 4.0
            lo_c = stats.norm.cdf(-_TG_CUT)
            norm = stats.norm.cdf(_TG_CUT) - lo_c
            return (stats.norm.cdf(z) - lo_c) / norm
        return u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)

    def ppf(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if self.kind is DensityKind.UNIFORM:
            u = p
        elif self.kind is DensityKind.TRIANGLE:
            u = np.where(p <= 0.5, np.sqrt(p / 2.0), 1.0 - np.sqrt((1.0 - p) / 2.0))
        elif self.kind is DensityKind.TRUNCATED_GAUSSIAN:
            from scipy import stats

            u = stats.truncnorm.ppf(p, -_TG_CUT, _TG_CUT) / 4.0 + 0.5
        else:
            from scipy import stats

            u = (stats.cosine.ppf(p) + np.pi) / (2.0 * np.pi)
        return self.lo + self.length * u

    @property
    def sup_norm(self) -> float:
        L = self.length
        if self.kind is DensityKind.UNIFORM:
            return 1.0 / L
        if self.kind is DensityKind.TRIANGLE:
            return 2.0 / L
        if self.kind is DensityKind.TRUNCATED_GAUSSIAN:
            from scipy import stats

            norm = stats.norm.cdf(_TG_CUT) - stats.norm.cdf(-_TG_CUT)
            return float(stats.norm.pdf(0.0) * 4.0 / (norm * L))
        return 2.0 / L

    @property
    def twice_differentiable(self) -> bool:
        return self.kind not in (DensityKind.TRIANGLE,)

    def deriv_sup_norms(self) -> tuple[float, float]:
        """(sup|f'|, sup|f''|) on the closed support, for the smooth kinds."""
        if not self.twice_differentiable:
            raise ConfigError(f"{self.kind.value} density is not twice differentiable")
        L = self.length
        if self.kind is DensityKind.UNIFORM:
            return 0.0, 0.0
        if self.kind is DensityKind.RAISED_COSINE:
            return 2.0 * np.pi / L**2, 4.0 * np.pi**2 / L**3
        # truncated Gaussian: f = phi(z) / (s Z) with z = (x - mid)/s, s = L/4,
        # so f' = -z phi(z) / (s^2 Z) and f'' = (z^2 - 1) phi(z) / (s^3 Z).
        from scipy import stats

        norm = stats.norm.cdf(_TG_CUT) - stats.norm.cdf(-_TG_CUT)
        z = np.linspace(-_TG_CUT, _TG_CUT, 100_001)
        phi = stats.norm.pdf(z)
        s = L / 4.0
        d1 = np.max(np.abs(z * phi)) / (s * s * norm)
        d2 = np.max(np.abs((z * z - 1.0) * phi)) / (s * s * s * norm)
        return float(d1), float(d2)


class MeanKind(enum.Enum):
    ZERO = "zero"
    SINE = "sine"
    POLYNOMIAL = "polynomial"
    CONSTANT = "constant"


class SigmaKind(enum.Enum):
    ZERO = "zero"
    CONSTANT = "constant"
    AFFINE = "affine"


class NoiseKind(enum.Enum):
    """Centered unit-variance noise with all exponential moments finite.

    ``gaussian`` is a standard normal truncated to [-5, 5]; the truncation
    shifts the variance to about 1 - 1.5e-5, far inside every Monte Carlo
    tolerance used here, and the exact truncated moments are what the
    analytic targets use.  ``uniform`` is uniform on [-sqrt(3), sqrt(3)].
    """

    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"

    def ppf(self, p) -> np.ndarray:
        if self is NoiseKind.GAUSSIAN:
            from scipy import stats

            return stats.truncnorm.ppf(p, -_NOISE_CUT, _NOISE_CUT)
        return math.sqrt(3.0) * (2.0 * np.asarray(p, dtype=np.float64) - 1.0)

    @property
    def m2(self) -> float:
        if self is NoiseKind.GAUSSIAN:
            from scipy import stats

            return float(stats.truncnorm.var(-_NOISE_CUT, _NOISE_CUT))
        return 1.0

    @property
    def m4(self) -> float:
        if self is NoiseKind.GAUSSIAN:
            from scipy import stats

            return float(stats.truncnorm.moment(4, -_NOISE_CUT, _NOISE_CUT))
        return 9.0 / 5.0


@dataclass(frozen=True)
class Scenario:
    """Full description of a synthetic experiment.

    The mean function kinds, in unit coordinates u_q = (x_q - lo)/(hi - lo):
    ``sine`` is prod_q sin(2 pi u_q), ``polynomial`` is prod_q 4 u_q (1 - u_q),
    ``constant`` is the value ``b_const``.  The noise scale ``affine`` is
    0.25 (1 + mean_q u_q); ``constant`` is ``sigma_const``.
    """

    d: int = 1
    f_kind: DensityKind = DensityKind.UNIFORM
    b_kind: MeanKind = MeanKind.ZERO
    sigma_kind: SigmaKind = SigmaKind.ZERO
    noise: NoiseKind = NoiseKind.GAUSSIAN
    n: int = 500
    replications: int = 100
    seed: int = 0
    support: tuple = (0.0, 1.0)
    b_const: float = 0.0
    sigma_const: float = 0.0
    risk_points: int | None = None

    def __post_init__(self):
        if not 1 <= self.d <= 3:
            raise ConfigError("dimension d must be 1, 2, or 3")
        if self.n < 1 or self.replications < 1:
            raise ConfigError("n and replications must be positive")
        check_table_size("scenario", n=self.n, d=self.d)
        points = self.risk_points or RISK_POINTS_BY_DIM[self.d]
        check_table_size("scenario risk grid", **{f"risk_points (axis {q + 1})": points for q in range(self.d)})
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        lo, hi = float(self.support[0]), float(self.support[1])
        if hi <= lo:
            raise ConfigError("support interval is empty")
        object.__setattr__(self, "support", (lo, hi))
        if self.sigma_kind is SigmaKind.CONSTANT and self.sigma_const < 0:
            raise ConfigError("sigma_const must be nonnegative")
        if self.noise is NoiseKind.GAUSSIAN or self.f_kind in _SCIPY_DENSITIES:
            # Load the samplers' scipy.stats here, once, rather than on the
            # first generate, so that a pool forked after this scenario is
            # built inherits it.  A pool forked before it, as in a long-lived
            # process that built its first scenario after a large sweep,
            # imports scipy.stats once in each kept worker.
            import scipy.stats  # noqa: F401

    # -- design density -------------------------------------------------

    def density(self) -> Density:
        return Density(self.f_kind, self.support[0], self.support[1])

    def pdf(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        den = self.density()
        out = np.ones(pts.shape[0])
        for q in range(self.d):
            out *= den.pdf(pts[:, q])
        return out

    @property
    def f_sup_norm(self) -> float:
        return self.density().sup_norm ** self.d

    def _unit(self, pts) -> np.ndarray:
        lo, hi = self.support
        return (np.atleast_2d(np.asarray(pts, dtype=np.float64)) - lo) / (hi - lo)

    # -- regression pieces ----------------------------------------------

    def b_eval(self, pts) -> np.ndarray:
        u = self._unit(pts)
        if self.b_kind is MeanKind.ZERO:
            return np.zeros(u.shape[0])
        if self.b_kind is MeanKind.CONSTANT:
            return np.full(u.shape[0], self.b_const)
        if self.b_kind is MeanKind.SINE:
            return np.prod(np.sin(2.0 * np.pi * u), axis=1)
        return np.prod(4.0 * u * (1.0 - u), axis=1)

    def sigma_eval(self, pts) -> np.ndarray:
        u = self._unit(pts)
        if self.sigma_kind is SigmaKind.ZERO:
            return np.zeros(u.shape[0])
        if self.sigma_kind is SigmaKind.CONSTANT:
            return np.full(u.shape[0], self.sigma_const)
        return 0.25 * (1.0 + np.mean(u, axis=1))

    # -- sampling --------------------------------------------------------

    def generate(self, replication: int, loss: LossKind = LossKind.ONE) -> Sample:
        """Draw replication r of the scenario; independent of other reps."""
        if not 0 <= replication < self.replications:
            raise ConfigError(f"replication {replication} outside 0..{self.replications - 1}")
        den = self.density()
        gen_x = stream(self.seed, replication, 0)
        u = gen_x.random((self.n, self.d))
        x = np.empty_like(u)
        for q in range(self.d):
            x[:, q] = den.ppf(u[:, q])
        gen_e = stream(self.seed, replication, 1)
        eps = self.noise.ppf(gen_e.random(self.n))
        y = self.b_eval(x) + self.sigma_eval(x) * eps
        return Sample(x, y, loss)

    # -- analytic targets ------------------------------------------------

    def cond_moment1(self, loss: LossKind, pts) -> np.ndarray:
        """E(ell(Y) | X = x) pointwise."""
        if loss is LossKind.ONE:
            return np.ones(np.atleast_2d(pts).shape[0])
        if loss is LossKind.IDENTITY:
            return self.b_eval(pts)
        b = self.b_eval(pts)
        s = self.sigma_eval(pts)
        return b * b + s * s * self.noise.m2

    def cond_moment2(self, loss: LossKind, pts) -> np.ndarray:
        """E(ell(Y)^2 | X = x) pointwise; noise odd moments vanish."""
        if loss is LossKind.ONE:
            return np.ones(np.atleast_2d(pts).shape[0])
        b = self.b_eval(pts)
        s = self.sigma_eval(pts)
        if loss is LossKind.IDENTITY:
            return b * b + s * s * self.noise.m2
        m2, m4 = self.noise.m2, self.noise.m4
        return b**4 + 6.0 * b * b * s * s * m2 + s**4 * m4

    def true_s(self, loss: LossKind, pts) -> np.ndarray:
        """The estimation target s(x) = E(ell(Y) | X = x) f(x)."""
        return self.cond_moment1(loss, pts) * self.pdf(pts)

    def loss_second_moment(self, loss: LossKind) -> float:
        """E(ell(Y)^2) by quadrature over the design density."""
        grid = self.quad_grid()
        return grid.integrate(self.cond_moment2(loss, grid.points) * self.pdf(grid.points))

    # -- grids -----------------------------------------------------------

    def risk_grid(self) -> IntegrationGrid:
        pts = self.risk_points or RISK_POINTS_BY_DIM[self.d]
        lo, hi = self.support
        return trapezoid_grid([lo] * self.d, [hi] * self.d, pts)

    def quad_grid(self, refine: int | None = None, breakpoints_per_dim=None) -> IntegrationGrid:
        """Composite Gauss-Legendre grid on the support box.

        ``refine`` splits the support into that many equal panels per
        dimension before the 64-node rule is applied (so sharp kernel
        sections are resolved); the default is 4 panels at d = 1 and a
        single panel in higher dimension to keep tensor grids small.
        Extra breakpoints (histogram cell edges) can be supplied per
        dimension and are merged with the refinement panels.
        """
        lo, hi = self.support
        if refine is None:
            refine = 4 if self.d == 1 else 1
        cuts = list(np.linspace(lo, hi, refine + 1)[1:-1])
        per_dim = []
        for q in range(self.d):
            extra = [] if breakpoints_per_dim is None else list(breakpoints_per_dim[q])
            per_dim.append(sorted(set(cuts) | set(extra)))
        return composite_grid([lo] * self.d, [hi] * self.d, per_dim)

    # -- config round trip ----------------------------------------------

    def to_config(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "d": self.d,
            "f": self.f_kind.value,
            "b": {"kind": self.b_kind.value, "c": self.b_const},
            "sigma": {"kind": self.sigma_kind.value, "c": self.sigma_const},
            "noise": self.noise.value,
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "support": list(self.support),
            "risk_points": self.risk_points,
        }


def scenario_from_config(cfg: dict) -> Scenario:
    """Build a scenario from a config dict, naming the offending field on error."""

    def take(key, default=None, required=False):
        if key not in cfg:
            if required:
                raise ConfigError(f"scenario config: missing field '{key}'")
            return default
        return cfg[key]

    def as_enum(key, value, enum_cls):
        try:
            return enum_cls(value)
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise ConfigError(f"scenario config: field '{key}' must be one of {valid}") from None

    b_cfg = take("b", {"kind": "zero"})
    sigma_cfg = take("sigma", {"kind": "zero"})
    if not isinstance(b_cfg, dict) or "kind" not in b_cfg:
        raise ConfigError("scenario config: field 'b' must be an object with a 'kind'")
    if not isinstance(sigma_cfg, dict) or "kind" not in sigma_cfg:
        raise ConfigError("scenario config: field 'sigma' must be an object with a 'kind'")
    support = take("support", [0.0, 1.0])
    if not (isinstance(support, (list, tuple)) and len(support) == 2):
        raise ConfigError("scenario config: field 'support' must be [lo, hi]")
    try:
        return Scenario(
            d=config_int("scenario", "d", take("d", 1), 1),
            f_kind=as_enum("f", take("f", "uniform"), DensityKind),
            b_kind=as_enum("b.kind", b_cfg["kind"], MeanKind),
            sigma_kind=as_enum("sigma.kind", sigma_cfg["kind"], SigmaKind),
            noise=as_enum("noise", take("noise", "gaussian"), NoiseKind),
            n=config_int("scenario", "n", take("n", required=True), 1),
            replications=config_int("scenario", "replications", take("replications", 1), 1),
            seed=config_int("scenario", "seed", take("seed", 0), 0),
            support=(float(support[0]), float(support[1])),
            b_const=float(b_cfg.get("c", 0.0)),
            sigma_const=float(sigma_cfg.get("c", 0.0)),
            risk_points=None if take("risk_points") is None
            else config_int("scenario", "risk_points", cfg["risk_points"], 2),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario config: {exc}") from None


# ---------------------------------------------------------------------------
# section averages
# ---------------------------------------------------------------------------


def make_s_mean(spec, scn: Scenario, loss: LossKind, grid: IntegrationGrid | None = None):
    """Vectorized callable for s_K(t) = integral K(x, t) s(x) dx.

    The integral runs over the scenario support on a composite quadrature
    grid; since s vanishes off the support, this is the full section
    average whenever the kernel mass outside the support meets s = 0.  It is a
    weighted kernel sum over the grid nodes (:func:`~pcoselect.estimator._kernel_sums`).
    """
    if grid is None:
        grid = scn.quad_grid()
    weighted = grid.weights * scn.true_s(loss, grid.points)

    def s_mean(points) -> np.ndarray:
        return _kernel_sums([spec], grid.points, weighted, points)[0]

    return s_mean


def sbar_analytic(spec, scn: Scenario, loss: LossKind) -> float:
    """sbar = E(||K(X_1, .)||_2^2 ell(Y_1)^2) by quadrature.

    For bandwidth kernels the section norm is constant, so this equals the
    closed form prod_q (||k||_2^2 / h_q) E(ell(Y)^2) up to quadrature error
    in the moment factor.
    """
    from .kernels import section_sq_norm_points

    grid = scn.quad_grid()
    norms = section_sq_norm_points(spec, grid.points)
    dens = scn.cond_moment2(loss, grid.points) * scn.pdf(grid.points)
    return grid.integrate(norms * dens)
