"""The rule-base container shared by the learner and the engine.

A RuleBase stores its parameters as packed (D rules x G features) arrays so
the batch kernels can consume them directly: rule s is row s of each
array.  Type-1 bases are represented with sigma_lower == sigma_upper.  A
base changes through dataclasses.replace, which carries over every field it
is not given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

KIND_T1 = "type-1"
KIND_IT2 = "interval-type-2"

# the parameter arrays, each with its dimensions: (rules, features) or (rules,)
_PARAMS = (("means", 2), ("sigma_lower", 2), ("sigma_upper", 2),
           ("cons_mean", 1), ("cons_sigma_lower", 1), ("cons_sigma_upper", 1))


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
        shape = None  # (rules, features), from the first array
        for name, ndim in _PARAMS:
            # a copy: the caller's array stays writeable once this is frozen
            arr = np.array(getattr(self, name), dtype=float, order="C")
            arr = np.atleast_2d(arr) if ndim == 2 else arr.ravel()
            if shape is None:
                shape = arr.shape
                if min(shape) < 1:
                    raise ValueError(
                        "rule base needs at least one rule and one feature")
            if arr.shape != shape[:ndim]:
                raise ValueError(f"{name} shape {arr.shape} != {shape[:ndim]}"
                                 + ("" if ndim == 2 else ", one entry per rule"))
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite (holds nan or inf)")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.variable_names) != shape[1]:
            raise ValueError(f"{len(self.variable_names)} variable names "
                             f"for {shape[1]} antecedents")
        if self.kind not in (KIND_T1, KIND_IT2):
            raise ValueError(f"unknown rule-base kind {self.kind!r}")
        # a rule's consequent is the column after its antecedents, so the
        # first bad cell in row-major order is the first in file order
        lo = np.column_stack((self.sigma_lower, self.cons_sigma_lower))
        up = np.column_stack((self.sigma_upper, self.cons_sigma_upper))
        for bad, message in (
                (~(lo > 0), "all sigmas must be positive, got sigma_lower {}"),
                (lo > up, "sigma_lower {} exceeds sigma_upper {}"),
                ((lo != up) & (self.kind == KIND_T1),
                 "type-1 base requires sigma_lower == sigma_upper")):
            if bad.any():
                s, f = np.unravel_index(np.argmax(bad), bad.shape)
                where = (self.variable_names[f] if f < shape[1]
                         else "consequent")
                raise ValueError(f"rule {s + 1}, {where}: " + message.format(
                    float(lo[s, f]), float(up[s, f])))
        # the engine's firings are at most 1, so under this bound every
        # Karnik-Mendel sum of firing times mean stays within max / 4, and
        # y_l + y_r and the default threshold's min + max within about
        # max / 2: no score of the base overflows
        limit = np.finfo(float).max / (4 * shape[0])
        big = np.abs(self.cons_mean) > limit
        if big.any():
            s = int(np.argmax(big))
            raise ValueError(
                f"rule {s + 1}, consequent: mean {float(self.cons_mean[s])!r} "
                f"exceeds {limit!r} in magnitude, above which a "
                f"{shape[0]}-rule base's scores overflow")
        if self.threshold is not None and not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")

    @property
    def n_rules(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    @cached_property
    def firing_stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(means, sigmas, centroids) as the inference engine fires them.

        Rules come in ascending consequent-mean order (a stable sort), the
        order Karnik-Mendel reduction takes.  A type-2 base stacks its lower
        over its upper sigmas, (2 rules, features), beside the means twice;
        a type-1 base has one copy.  Built on first use; the parameter
        arrays are read-only, so it cannot go stale.
        """
        order = np.argsort(self.cons_mean, kind="stable")
        means, sigmas = self.means[order], self.sigma_upper[order]
        if self.kind == KIND_IT2:
            sigmas = np.concatenate((self.sigma_lower[order], sigmas))
            means = np.concatenate((means, means))
        stack = (means, sigmas, self.cons_mean[order])
        for arr in stack:
            arr.setflags(write=False)
        return stack

    @cached_property
    def zero_width(self) -> bool:
        """Every antecedent interval has zero width, as in a type-1 base: each
        rule's lower and upper firings are equal."""
        return bool(np.array_equal(self.sigma_lower, self.sigma_upper))


def t1_rule_base(means, sigmas, cons_mean, cons_sigma, variable_names=None, **kw) -> RuleBase:
    """Convenience constructor for a type-1 base from mean/sigma arrays."""
    means = np.atleast_2d(np.asarray(means, dtype=float))
    if variable_names is None:
        variable_names = tuple(f"x{f + 1}" for f in range(means.shape[1]))
    return RuleBase(
        kind=KIND_T1,
        variable_names=tuple(variable_names),
        means=means,
        sigma_lower=sigmas,
        sigma_upper=sigmas,
        cons_mean=cons_mean,
        cons_sigma_lower=cons_sigma,
        cons_sigma_upper=cons_sigma,
        **kw,
    )
