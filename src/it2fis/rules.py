"""Rule and rule-base containers shared by the learner and the engine.

A RuleBase stores its parameters as packed (D rules x G features) arrays so
the batch kernels can consume them directly; per-rule set objects are built
on demand.  Type-1 bases are represented with sigma_lower == sigma_upper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sets import GaussianT1Set, IT2GaussianSet

KIND_T1 = "type-1"
KIND_IT2 = "interval-type-2"


@dataclass(frozen=True)
class Rule:
    antecedents: tuple
    consequent: object


@dataclass(frozen=True)
class RuleBase:
    kind: str
    variable_names: tuple[str, ...]
    means: np.ndarray        # (D, G)
    sigma_lower: np.ndarray  # (D, G)
    sigma_upper: np.ndarray  # (D, G)
    cons_mean: np.ndarray    # (D,)
    cons_sigma_lower: np.ndarray
    cons_sigma_upper: np.ndarray
    threshold: float | None = None  # decision threshold on the crisp score
    label_low: str = "1"   # class encoded as 1.0 during tuning
    label_high: str = "2"  # class encoded as 2.0
    provenance: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        means = np.ascontiguousarray(np.atleast_2d(np.asarray(self.means, dtype=float)))
        sl = np.ascontiguousarray(np.atleast_2d(np.asarray(self.sigma_lower, dtype=float)))
        su = np.ascontiguousarray(np.atleast_2d(np.asarray(self.sigma_upper, dtype=float)))
        cm = np.ascontiguousarray(np.asarray(self.cons_mean, dtype=float).ravel())
        cl = np.ascontiguousarray(np.asarray(self.cons_sigma_lower, dtype=float).ravel())
        cu = np.ascontiguousarray(np.asarray(self.cons_sigma_upper, dtype=float).ravel())
        for name, arr in [("means", means), ("sigma_lower", sl), ("sigma_upper", su)]:
            if arr.shape != means.shape:
                raise ValueError(f"{name} shape {arr.shape} != {means.shape}")
        d, g = means.shape
        if d < 1 or g < 1:
            raise ValueError("rule base needs at least one rule and one feature")
        if cm.shape != (d,) or cl.shape != (d,) or cu.shape != (d,):
            raise ValueError("consequent arrays must have one entry per rule")
        if len(self.variable_names) != g:
            raise ValueError(
                f"{len(self.variable_names)} variable names for {g} antecedents"
            )
        if self.kind not in (KIND_T1, KIND_IT2):
            raise ValueError(f"unknown rule-base kind {self.kind!r}")
        if not (sl > 0).all() or not (cl > 0).all():
            raise ValueError("all sigmas must be positive")
        if (sl > su).any() or (cl > cu).any():
            raise ValueError("sigma_lower must not exceed sigma_upper")
        if self.kind == KIND_T1 and ((sl != su).any() or (cl != cu).any()):
            raise ValueError("type-1 base requires sigma_lower == sigma_upper")
        if self.threshold is not None and not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")
        for arr in (means, sl, su, cm, cl, cu):
            arr.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigma_lower", sl)
        object.__setattr__(self, "sigma_upper", su)
        object.__setattr__(self, "cons_mean", cm)
        object.__setattr__(self, "cons_sigma_lower", cl)
        object.__setattr__(self, "cons_sigma_upper", cu)

    @property
    def n_rules(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    @property
    def rules(self) -> tuple[Rule, ...]:
        out = []
        for s in range(self.n_rules):
            if self.kind == KIND_T1:
                ants = tuple(
                    GaussianT1Set(self.means[s, f], self.sigma_lower[s, f])
                    for f in range(self.n_features)
                )
                cons = GaussianT1Set(self.cons_mean[s], self.cons_sigma_lower[s])
            else:
                ants = tuple(
                    IT2GaussianSet(
                        self.means[s, f], self.sigma_lower[s, f], self.sigma_upper[s, f]
                    )
                    for f in range(self.n_features)
                )
                cons = IT2GaussianSet(
                    self.cons_mean[s], self.cons_sigma_lower[s], self.cons_sigma_upper[s]
                )
            out.append(Rule(ants, cons))
        return tuple(out)

    def with_params(self, means, sigma_lower, sigma_upper, cons_mean,
                    cons_sigma_lower=None, cons_sigma_upper=None) -> "RuleBase":
        """Copy with replaced parameter arrays (used by the tuners)."""
        return replace(
            self,
            means=np.array(means, dtype=float),
            sigma_lower=np.array(sigma_lower, dtype=float),
            sigma_upper=np.array(sigma_upper, dtype=float),
            cons_mean=np.array(cons_mean, dtype=float),
            cons_sigma_lower=np.array(
                self.cons_sigma_lower if cons_sigma_lower is None else cons_sigma_lower,
                dtype=float,
            ),
            cons_sigma_upper=np.array(
                self.cons_sigma_upper if cons_sigma_upper is None else cons_sigma_upper,
                dtype=float,
            ),
        )


def t1_rule_base(means, sigmas, cons_mean, cons_sigma, variable_names=None, **kw) -> RuleBase:
    """Convenience constructor for a type-1 base from mean/sigma arrays."""
    means = np.atleast_2d(np.asarray(means, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    if variable_names is None:
        variable_names = tuple(f"x{f + 1}" for f in range(means.shape[1]))
    return RuleBase(
        kind=KIND_T1,
        variable_names=tuple(variable_names),
        means=means,
        sigma_lower=sigmas,
        sigma_upper=sigmas.copy(),
        cons_mean=cons_mean,
        cons_sigma_lower=cons_sigma,
        cons_sigma_upper=np.array(cons_sigma, dtype=float).copy(),
        **kw,
    )


def it2_rule_base(means, sigma_lower, sigma_upper, cons_mean, cons_sigma_lower,
                  cons_sigma_upper, variable_names=None, **kw) -> RuleBase:
    means = np.atleast_2d(np.asarray(means, dtype=float))
    if variable_names is None:
        variable_names = tuple(f"x{f + 1}" for f in range(means.shape[1]))
    return RuleBase(
        kind=KIND_IT2,
        variable_names=tuple(variable_names),
        means=means,
        sigma_lower=sigma_lower,
        sigma_upper=sigma_upper,
        cons_mean=cons_mean,
        cons_sigma_lower=cons_sigma_lower,
        cons_sigma_upper=cons_sigma_upper,
        **kw,
    )
