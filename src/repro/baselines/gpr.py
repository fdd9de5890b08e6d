"""Gaussian process regression, from scratch on NumPy + SciPy.

A standard GP with an RBF kernel over log-scaled inputs:

.. math::

    k(x, x') = \\sigma_f^2 \\exp(-\\lVert x - x' \\rVert^2 / (2 \\ell^2))
    + \\sigma_n^2 \\delta_{xx'}

Hyperparameters ``(length scale, signal variance, noise variance)`` are
optimized by maximizing the log marginal likelihood with L-BFGS-B from a few
restart points. Inputs are log2-transformed (HPC scaling parameters span
decades) and standardized; targets are centered and scaled.

GPR is the noise-resilience baseline of the paper's related work: the
learned noise variance absorbs measurement scatter gracefully, but the
stationary RBF prior reverts to the data mean away from the training
points -- which is precisely "sacrificing predictive power" when the job is
extrapolation beyond the measured range.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, optimize

from repro.experiment.experiment import Kernel
from repro.experiment.measurement import Coordinate, value_table
from repro.util.seeding import as_generator


class GaussianProcessRegressor:
    """GP regression with an isotropic RBF kernel and learned noise."""

    def __init__(
        self,
        n_restarts: int = 4,
        log_inputs: bool = True,
        rng=None,
    ):
        if n_restarts < 0:
            raise ValueError("n_restarts must be non-negative")
        self.n_restarts = n_restarts
        self.log_inputs = log_inputs
        self._rng = as_generator(rng if rng is not None else 0)
        self._fitted = False

    # ------------------------------------------------------------ transforms
    def _transform_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("inputs must be 2-d (n, dims)")
        if self.log_inputs:
            if np.any(x <= 0):
                raise ValueError("log-scaled inputs require positive values")
            x = np.log2(x)
        return (x - self._x_mean) / self._x_scale

    @staticmethod
    def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * a @ b.T

    def _kernel(self, a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> np.ndarray:
        length, signal, _ = np.exp(theta)
        return signal**2 * np.exp(-self._sqdist(a, b) / (2.0 * length**2))

    # ----------------------------------------------------------------- fitting
    def _neg_log_marginal_likelihood(self, theta: np.ndarray) -> float:
        noise = np.exp(theta[2])
        k = self._kernel(self._x, self._x, theta)
        k[np.diag_indices_from(k)] += noise**2 + 1e-10
        try:
            chol = linalg.cholesky(k, lower=True)
        except linalg.LinAlgError:
            return 1e25
        alpha = linalg.cho_solve((chol, True), self._y)
        n = self._y.size
        return float(
            0.5 * self._y @ alpha
            + np.sum(np.log(np.diag(chol)))
            + 0.5 * n * np.log(2.0 * np.pi)
        )

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Fit hyperparameters and the posterior to ``(x, y)``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be (n, dims) with one target per row")
        if x.shape[0] < 2:
            raise ValueError("GPR needs at least two observations")

        if self.log_inputs and np.any(x <= 0):
            raise ValueError("log-scaled inputs require positive values")
        raw = np.log2(x) if self.log_inputs else x
        self._x_mean = raw.mean(axis=0)
        self._x_scale = np.where(raw.std(axis=0) > 0, raw.std(axis=0), 1.0)
        self._y_mean = float(y.mean())
        self._y_scale = float(y.std()) or 1.0
        self._x = (raw - self._x_mean) / self._x_scale
        self._y = (y - self._y_mean) / self._y_scale

        # Optimize log(length), log(signal), log(noise) from several starts.
        starts = [np.log([1.0, 1.0, 0.1])]
        for _ in range(self.n_restarts):
            starts.append(
                np.log(
                    [
                        float(self._rng.uniform(0.3, 3.0)),
                        float(self._rng.uniform(0.3, 3.0)),
                        float(self._rng.uniform(0.01, 1.0)),
                    ]
                )
            )
        best_theta, best_nll = None, np.inf
        bounds = [(-5.0, 5.0)] * 3
        for start in starts:
            result = optimize.minimize(
                self._neg_log_marginal_likelihood,
                start,
                method="L-BFGS-B",
                bounds=bounds,
            )
            if result.fun < best_nll:
                best_nll, best_theta = float(result.fun), result.x
        self.theta_ = best_theta
        self.log_marginal_likelihood_ = -best_nll

        k = self._kernel(self._x, self._x, self.theta_)
        k[np.diag_indices_from(k)] += np.exp(self.theta_[2]) ** 2 + 1e-10
        self._chol = linalg.cholesky(k, lower=True)
        self._alpha = linalg.cho_solve((self._chol, True), self._y)
        self._fitted = True
        return self

    @property
    def noise_level_(self) -> float:
        """Learned noise standard deviation (in standardized target units)."""
        self._require_fitted()
        return float(np.exp(self.theta_[2]))

    # --------------------------------------------------------------- predict
    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("fit() must be called first")

    def predict(self, x: np.ndarray, return_std: bool = False):
        """Posterior mean (and optionally standard deviation) at ``x``."""
        self._require_fitted()
        xs = self._transform_x(np.asarray(x, dtype=float))
        k_star = self._kernel(xs, self._x, self.theta_)
        mean = k_star @ self._alpha * self._y_scale + self._y_mean
        if not return_std:
            return mean
        v = linalg.solve_triangular(self._chol, k_star.T, lower=True)
        signal = np.exp(self.theta_[1])
        var = np.maximum(signal**2 - np.sum(v * v, axis=0), 0.0)
        return mean, np.sqrt(var) * self._y_scale


class GPRModeler:
    """Kernel-level wrapper with a predictor (not closed-form) interface.

    Unlike the PMNF modelers this produces no human-readable function, so it
    only participates in predictive-power comparisons; model accuracy (lead
    exponents) is undefined for it -- exactly the interpretability gap the
    paper holds against black-box regressors.
    """

    method_name = "gpr"

    def __init__(
        self, aggregation: str = "median", n_restarts: int = 4, rng=None, prefilter=None
    ):
        from repro.modeling.prefilter import create_prefilter

        self.aggregation = aggregation
        self.n_restarts = n_restarts
        self._rng = rng
        self.prefilter = create_prefilter(prefilter)

    def fit_kernel(self, kernel: Kernel) -> GaussianProcessRegressor:
        """Fit a GP to one kernel's aggregated measurements."""
        if self.prefilter is None:
            points, values = value_table(kernel, self.aggregation)
        else:
            from repro.modeling.prefilter import apply_prefilter

            points, values, _ = apply_prefilter(kernel, self.prefilter, self.aggregation)
        gpr = GaussianProcessRegressor(n_restarts=self.n_restarts, rng=self._rng)
        return gpr.fit(points, values)

    def predict_at(self, kernel: Kernel, coordinates: "list[Coordinate]") -> np.ndarray:
        """Fit and predict at the given coordinates in one call."""
        gpr = self.fit_kernel(kernel)
        pts = np.stack([c.as_array() for c in coordinates])
        return gpr.predict(pts)
