"""Per-point residual summaries shared by all checkers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Verdict thresholds that checks in more than one module share.  Every
# identity, 1-D and d-D, passes at sup |residual| <= IDENTITY_TOLERANCE; every
# invariance trial loop at INVARIANCE_TOLERANCE scaled by max(1, max |action|).
IDENTITY_TOLERANCE = 1e-9
INVARIANCE_TOLERANCE = 1e-12

# Sup of each seeded probe parameter of the two generic invariance loops,
# noether.check_invariance and multigrid.check_invariance_d.  em's gauge trial
# draws its parameter at sup 1, which its golden reports pin.
PROBE_AMPLITUDE = 0.1


@dataclass(frozen=True)
class ResidualReport:
    """Residual values on an index window plus their norms and a verdict.

    sup_norm is the max absolute entry, l2_norm the plain Euclidean norm
    over all entries.  verdict is sup_norm <= tolerance on a nonempty
    per_point; an empty one never passes.  For results on a
    multi-axis grid, domain records the first-axis window; for trial-based
    checks it records the window the trials were evaluated on (or the trial
    range where noted).
    """

    domain: tuple[int, int]
    per_point: np.ndarray
    sup_norm: float
    l2_norm: float
    tolerance: float
    verdict: bool

    @staticmethod
    def from_per_point(domain: tuple[int, int], per_point, tolerance: float) -> "ResidualReport":
        # C order makes the l2 sum add the same pairs whatever the layout; the
        # sup is max |x| with no |x| buffer, and + 0.0 prints a -0.0 sup as 0.0.
        arr = np.atleast_1d(np.asarray(per_point, dtype=float, order="C"))
        sup = float(np.maximum(np.max(arr), -np.min(arr)) + 0.0) if arr.size else 0.0
        l2 = float(np.sqrt(np.sum(arr * arr)))
        return ResidualReport(
            domain=(int(domain[0]), int(domain[1])),
            per_point=arr,
            sup_norm=sup,
            l2_norm=l2,
            tolerance=float(tolerance),
            verdict=arr.size > 0 and sup <= tolerance,
        )

    @staticmethod
    def from_trials(domain: tuple[int, int], trials: int, pair, tolerance: float) -> "ResidualReport":
        """Invariance deviations |after - before| for trials 0 .. trials-1,
        where pair(trial) returns the action before and after one
        transformation.  The tolerance is scaled by max(1, max |before|).
        Trials run one at a time, so only one trial's fields are alive."""
        devs = np.empty(trials)
        scale = 1.0
        for trial in range(trials):
            before, after = pair(trial)
            devs[trial] = abs(after - before)
            scale = max(scale, abs(before))
        return ResidualReport.from_per_point(domain, devs, tolerance * scale)

    def to_json(self, include_per_point: bool = False) -> dict:
        out = {
            "domain": list(self.domain),
            "sup_norm": self.sup_norm,
            "l2_norm": self.l2_norm,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.verdict else "fail",
        }
        if include_per_point:
            out["per_point"] = self.per_point.tolist()
        return out
