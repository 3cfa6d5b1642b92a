"""Global reconstruction from fundamental marginals, the closed-form maximum-entropy
value, vertical Markov checks, and max-entropy uniqueness certificates."""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    GeometryError,
    Region,
    as_region,
    cluster_region,
    region_neighborhood,
    region_union,
    site_path,
    validate_block_path,
)
from .marginal_store import (
    CheckReport,
    MarginalSet,
    Window,
    _region_json,
    check_local_consistency,
    check_markov_conditions,
    matrix_to_json,
)
from .merge import right_merge
from .operator_core import (
    DensityOperator,
    check_dim_guard,
    cmi,
    entropy,
    med,
    partial_trace,
    region_entropy_of,
    trace_distance,
)
from .snakes import SnakeSpec, build_snake

logger = logging.getLogger("snakeweaver.reconstruct")


@dataclass
class ReconstructionResult:
    state: DensityOperator
    entropy: float
    base: float
    step_cmis: list = field(default_factory=list)   # (shared_row_y, residual) per vertical merge
    marginal_report: CheckReport = field(default_factory=CheckReport)
    precheck: CheckReport = field(default_factory=CheckReport)

    def to_dict(self) -> dict:
        return {
            "entropy": self.entropy,
            "log_base": self.base,
            "step_cmis": [{"shared_row": y, "residual": r} for y, r in self.step_cmis],
            "marginal_report": self.marginal_report.to_dict(),
            "precheck": self.precheck.to_dict(),
            "region": _region_json(self.state.region),
            "matrix": matrix_to_json(self.state.matrix),
        }


def _row_region(window: Window, y: int) -> Region:
    return as_region([(x, y) for x in range(window.width)])


def reconstruct_global(
    ms: MarginalSet,
    *,
    tol: float = 1e-6,
    precheck_tol: float = 1e-8,
    base: float | None = None,
) -> ReconstructionResult:
    """Stack level-2 snakes bottom to top by right-merges sharing one row each.

    The result is consistent with every fundamental marginal whenever the
    inputs pass the consistency and Markov checks; the per-step conditional
    mutual informations across each shared row are recorded, as is the fidelity
    against every stored marginal.
    """
    base = ms.log_base if base is None else base
    window = ms.window
    if window.width < 3 or window.height < 2:
        raise GeometryError("reconstruction needs a window of at least 3x2")
    check_dim_guard(ms.local_dim ** (window.width * window.height))

    precheck = CheckReport()
    precheck.extend(check_local_consistency(ms, tol=precheck_tol))
    precheck.extend(check_markov_conditions(ms, tol=precheck_tol))
    if not precheck.passed:
        warnings.warn(
            f"marginals fail their preconditions "
            f"(max residual {precheck.max_residual():.3e}); reconstruction proceeds "
            f"but need not reproduce the inputs",
            stacklevel=2,
        )

    v, u = (0, 0), (window.width - 1, 0)
    state = build_snake(ms, SnakeSpec(2, v, u))
    step_cmis = []
    for y in range(1, window.height - 1):
        strip = build_snake(ms, SnakeSpec(2, (0, y), (window.width - 1, y)))
        state = right_merge(state, strip)
        below = region_union(*[_row_region(window, yy) for yy in range(y)])
        residual = cmi(state, below, _row_region(window, y), _row_region(window, y + 1), base=base)
        step_cmis.append((y, float(residual)))

    marginal_report = CheckReport()
    for anchor in ms.anchors():
        region = cluster_region(anchor, 3, 3)
        dist = trace_distance(partial_trace(state, region), ms.marginals[anchor])
        marginal_report.add(
            f"marginal-fidelity:{anchor[0]},{anchor[1]}",
            "marginal_fidelity",
            dist,
            tol,
            anchor=list(anchor),
        )
    return ReconstructionResult(
        state=state,
        entropy=entropy(state, base=base),
        base=base,
        step_cmis=step_cmis,
        marginal_report=marginal_report,
        precheck=precheck,
    )


def vertical_markov_check(ms: MarginalSet, tol: float = 1e-8) -> CheckReport:
    """Level-3 snakes spanning the window are Markov between top and bottom rows given the middle."""
    window = ms.window
    if window.height < 3:
        raise GeometryError("vertical checks need at least three rows")
    report = CheckReport()
    for y in range(window.height - 2):
        snake = build_snake(ms, SnakeSpec(3, (0, y), (window.width - 1, y)))
        residual = cmi(
            snake,
            _row_region(window, y),
            _row_region(window, y + 1),
            _row_region(window, y + 2),
            base=ms.log_base,
        )
        report.add(
            f"vertical-cmi:rows{y}-{y + 2}",
            "cmi",
            residual,
            tol,
            rows=[y, y + 1, y + 2],
        )
    return report


def max_entropy_terms(provider, window: Window | None = None, base: float = 2.0) -> list:
    """Per-anchor summands S(2x2) - S(2x1) - S(1x2) + S(1x1), clusters clipped to the window.

    Sites outside the window are fixed pure product states, so a clipped
    cluster contributes the entropy of its inside part and fully outside
    clusters contribute nothing.  Anchors one step past the right and bottom
    edges still contribute through their clipped 2x2 clusters, so the sweep
    runs over x in 0..W and y in -1..H-1.
    """
    if window is None:
        window = provider.window
    inside = set(window.sites())
    terms = []
    for vy in range(-1, window.height):
        for vx in range(0, window.width + 1):
            total = 0
            for n, m, sign in ((2, 2, 1), (2, 1, -1), (1, 2, -1), (1, 1, 1)):
                clipped = as_region([s for s in cluster_region((vx, vy), n, m) if s in inside])
                if clipped:
                    total = total + sign * region_entropy_of(provider, clipped, base)
            terms.append(((vx, vy), total))
    return terms


def max_entropy_formula(provider, window: Window | None = None, base: float = 2.0):
    """The maximum entropy consistent with the fundamental marginals, in closed form.

    Exact integer arithmetic survives end to end when the provider returns
    integers (the stabilizer oracle does).
    """
    total = 0
    for _, term in max_entropy_terms(provider, window, base):
        total = total + term
    return total


def row_major_med(provider, window: Window, base: float = 2.0):
    """MED over the row-major site path; each site is conditioned on its west and south neighbors."""
    return med(provider, site_path(window.sites()), base=base)


def uniqueness_certificate(
    rho: DensityOperator,
    sigma: DensityOperator,
    path,
    tol: float = 1e-7,
    base: float = 2.0,
) -> CheckReport:
    """Numerically certify the max-entropy uniqueness argument for two states.

    Hypotheses checked: the two states agree on every MED-relevant marginal
    along the path, and each has entropy equal to its decomposition.  When they
    hold, the average state's decomposition caps the Jensen gap, which in turn
    bounds the trace distance through (1/8)||rho - sigma||_1^2 <= gap (in
    nats); the certificate then asserts distance <= sqrt(8 gap) + tol.  On
    hypothesis failure the distance claim is omitted.
    """
    if rho.region != sigma.region or rho.local_dim != sigma.local_dim:
        raise GeometryError("states must share a region and local dimension")
    blocks = validate_block_path(path)
    report = CheckReport()
    seen: set = set()
    for k, block in enumerate(blocks):
        cond = tuple(v for v in region_neighborhood(block) if v in seen)
        region = region_union(block, cond)
        dist = trace_distance(partial_trace(rho, region), partial_trace(sigma, region))
        report.add(
            f"marginal-match:{k}",
            "marginal_match",
            dist,
            tol,
            region=_region_json(region),
        )
        seen.update(block)

    s_rho, s_sigma = entropy(rho, base), entropy(sigma, base)
    m_rho = med(rho, blocks, base=base)
    m_sigma = med(sigma, blocks, base=base)
    report.add("med-equality:rho", "med_equality", abs(s_rho - m_rho), tol)
    report.add("med-equality:sigma", "med_equality", abs(s_sigma - m_sigma), tol)

    hypotheses_hold = report.passed
    if hypotheses_hold:
        tau = DensityOperator(
            rho.region, rho.local_dim, 0.5 * (rho.matrix + sigma.matrix)
        )
        gap_nats = med(tau, blocks, base=math.e) - 0.5 * (
            entropy(rho, math.e) + entropy(sigma, math.e)
        )
        gap_nats = max(float(gap_nats), 0.0)
        bound = math.sqrt(8.0 * gap_nats) + tol
        actual = trace_distance(rho, sigma)
        report.add(
            "distance-bound",
            "distance_bound",
            actual,
            bound,
            jensen_gap_nats=gap_nats,
        )
    else:
        logger.info("uniqueness hypotheses fail; no distance claim is made")
    return report


def expectation_from_marginals(ms: MarginalSet, terms) -> float:
    """Sum of Tr(h rho_r) over (region, matrix) pairs, each served by a derived marginal."""
    total = 0.0
    for region, h in terms:
        region = as_region(region)
        marg = ms.derived_marginal(region)
        h = np.asarray(h, dtype=complex)
        if h.shape != marg.matrix.shape:
            raise GeometryError(f"term on {region} has shape {h.shape}, expected {marg.matrix.shape}")
        total += float(np.trace(h @ marg.matrix).real)
    return total
