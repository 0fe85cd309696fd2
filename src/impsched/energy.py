"""Processor power/energy model with discrete frequencies and constant fitting.

Internal units are SI (Hz, W, J); the GHz/mW conversions used by config files
live in from_ghz_mw / to_ghz_mw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerModel",
    "FrequencySet",
    "FitResult",
    "power_at",
    "energy_per_cycle",
    "cheapest_frequency",
    "fit_power_model",
    "DEFAULT_POWER_MODEL",
    "DEFAULT_FREQUENCY_SET",
]


@dataclass(frozen=True)
class PowerModel:
    """Total power alpha*f^beta + gamma*f + delta (dynamic + static)."""

    alpha: float  # W * s^beta
    beta: float
    gamma: float  # W / Hz
    delta: float  # W, frequency independent

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta <= 1:
            raise ValueError("beta must exceed 1")
        if self.gamma < 0 or self.delta < 0:
            raise ValueError("gamma and delta must be non-negative")

    @classmethod
    def from_ghz_mw(cls, alpha: float, beta: float, gamma: float, delta: float):
        """Constants given for f in GHz and power in mW."""
        return cls(
            alpha=alpha * 1e-3 * (1e-9 ** beta),
            beta=beta,
            gamma=gamma * 1e-12,
            delta=delta * 1e-3,
        )

    def to_ghz_mw(self) -> tuple[float, float, float, float]:
        return (
            self.alpha * 1e3 * (1e9 ** self.beta),
            self.beta,
            self.gamma * 1e12,
            self.delta * 1e3,
        )


@dataclass(frozen=True)
class FrequencySet:
    """Ascending distinct clock frequencies, Hz."""

    freqs: tuple[float, ...]

    def __post_init__(self):
        if not self.freqs:
            raise ValueError("frequency set must be non-empty")
        if any(f <= 0 for f in self.freqs):
            raise ValueError("frequencies must be positive")
        if any(b <= a for a, b in zip(self.freqs, self.freqs[1:])):
            raise ValueError("frequencies must be strictly ascending")

    def __len__(self):
        return len(self.freqs)

    def __iter__(self):
        return iter(self.freqs)

    @property
    def f_max(self) -> float:
        return self.freqs[-1]


def power_at(model: PowerModel, f: float) -> float:
    """Total power draw (W) at clock frequency f (Hz)."""
    if f <= 0:
        raise ValueError("frequency must be positive")
    return model.alpha * f ** model.beta + model.gamma * f + model.delta


def energy_per_cycle(model: PowerModel, f: float) -> float:
    """Energy of one clock cycle (J) at frequency f; equals power_at(f)/f."""
    if f <= 0:
        raise ValueError("frequency must be positive")
    return model.alpha * f ** (model.beta - 1.0) + model.gamma + model.delta / f


def cheapest_frequency(model: PowerModel, fs: FrequencySet) -> tuple[int, float]:
    """Index and value of the lowest per-cycle energy over the set.

    The static term delta/f decreases with f, so the minimum need not sit at
    the lowest frequency.
    """
    costs = [energy_per_cycle(model, f) for f in fs]
    idx = min(range(len(costs)), key=lambda i: (costs[i], i))
    return idx, costs[idx]


@dataclass(frozen=True)
class FitResult:
    model: PowerModel
    rms: float  # residual RMS over the fitted points, W


def fit_power_model(points, delta: float) -> FitResult:
    """Least-squares fit of (alpha, beta, gamma) to dynamic power samples.

    points -- (frequency Hz, dynamic power W) pairs, at least 3 distinct
    frequencies; delta is measured separately and passed through.

    Gauss-Newton with a damped step; beta is initialized from the slope of
    log dynamic power versus log frequency. A fit whose rms residual exceeds
    10% of the rms of the powers raises ValueError.
    """
    pts = [(float(f), float(p)) for f, p in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit 3 constants")
    freqs = np.array([f for f, _ in pts])
    power = np.array([p for _, p in pts])
    if len(set(freqs.tolist())) < 3:
        raise ValueError("need at least 3 distinct frequencies")
    if not np.all((0 < freqs) & (freqs < np.inf) & (0 < power) & (power < np.inf)):
        raise ValueError("frequencies and dynamic powers must be positive and finite")

    # Work in normalized units so f^beta stays O(1) regardless of Hz/GHz input.
    f_ref = float(freqs.max())
    p_ref = float(power.max())
    fn = freqs / f_ref
    pn = power / p_ref
    if not np.all((fn > 0) & (pn > 0)):  # underflowed: log(0) would poison the fit
        raise ValueError("frequencies or dynamic powers span too many decades to fit")

    beta = float(np.polyfit(np.log(fn + 1e-300), np.log(pn), 1)[0]) if len(
        set(fn.tolist())
    ) > 1 else 3.0
    beta = min(max(beta, 1.2), 6.0)

    def linear_for(beta_val):
        basis = np.column_stack([fn ** beta_val, fn])
        sol, *_ = np.linalg.lstsq(basis, pn, rcond=None)
        return max(sol[0], 1e-12), max(sol[1], 0.0)

    alpha, gamma = linear_for(beta)

    def residual(a, b, c):
        return a * fn ** b + c * fn - pn

    r = residual(alpha, beta, gamma)
    for _ in range(100):
        jac = np.column_stack([fn ** beta, alpha * fn ** beta * np.log(fn), fn])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        scale = 1.0
        for _ in range(25):
            a2 = alpha + scale * step[0]
            b2 = beta + scale * step[1]
            c2 = gamma + scale * step[2]
            if a2 > 0 and b2 > 1.0:
                r2 = residual(a2, b2, c2)
                if np.dot(r2, r2) <= np.dot(r, r):
                    break
            scale *= 0.5
        else:
            break
        rel = abs(scale) * float(np.max(np.abs(step))) / max(
            1.0, abs(alpha), abs(beta), abs(gamma)
        )
        alpha, beta, gamma, r = a2, b2, c2, r2
        if rel < 1e-10:
            break

    if not np.isfinite([alpha, beta, gamma]).all() or alpha <= 0 or beta <= 1:
        raise ValueError("power-model fit is degenerate for these points")

    with np.errstate(over="ignore"):  # alpha_si = 0 then fails PowerModel's check
        alpha_si = alpha * p_ref / f_ref ** beta
    gamma_si = max(gamma, 0.0) * p_ref / f_ref
    model = PowerModel(alpha_si, beta, gamma_si, delta)
    rms_n = math.sqrt(float(np.mean(residual(alpha, beta, gamma) ** 2)))
    # the reference points fit to 0.08%: a tenth of the data is far off
    share = rms_n / math.sqrt(float(np.mean(pn**2)))
    if share > 0.1:
        raise ValueError(
            f"power-model fit failed: the rms residual is {share:.0%} of the powers' rms"
        )
    return FitResult(model, rms_n * p_ref)


# Fitted constants and frequency levels of the simulated 70nm platform.
DEFAULT_POWER_MODEL = PowerModel.from_ghz_mw(23.8729, 3.2941, 401.6654, 276.0)
DEFAULT_FREQUENCY_SET = FrequencySet(
    tuple(f * 1e9 for f in (1.01, 1.26, 1.53, 1.81, 2.1))
)
