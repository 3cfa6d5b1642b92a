"""Global reconstruction from fundamental marginals, the closed-form maximum-entropy
value, vertical Markov checks, and max-entropy uniqueness certificates."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .lattice import (
    GeometryError,
    Region,
    as_region,
    cluster_region,
    region_union,
    site_path,
    validate_block_path,
)
from .marginal_store import (
    CheckReport,
    MarginalSet,
    Window,
    _region_json,
)
from .merge import right_merge_info, right_merge_marginals
from .operator_core import (
    TRACE_TOL,
    DensityOperator,
    cmi,
    entropy,
    med,
    med_conditioning,
    partial_trace,
)
from .snakes import SnakeSpec, build_snake

logger = logging.getLogger("snakeweaver.reconstruct")


class MergeStep(NamedTuple):
    """One merge step: the shared row y, its residual in bits and how it was taken ("bound" or "exact"), the merge's
    trace before renormalization and the weight below zero of tau_AB and tau_BC."""
    shared_row: int
    residual: float
    method: str
    trace_before_renorm: float
    negative_weight: float


@dataclass
class ReconstructionResult:
    """Entropy, checks and merge steps of a reconstruction; ``state`` merges ``last_merge`` once, when first read."""
    entropy: float                                  # bits
    entropy_method: str                             # "chain" (certified upper bound) or "exact" (dense spectrum)
    steps: list = field(default_factory=list)       # MergeStep per merge, read from its reductions
    marginal_report: CheckReport = field(default_factory=CheckReport)
    last_merge: tuple = ()                          # (sigma, strip) whose right-merge is the state
    _state: DensityOperator | None = field(default=None, repr=False)

    @property
    def state(self) -> DensityOperator:
        if self._state is None:
            self._state, _ = right_merge_info(*self.last_merge)
        return self._state


def _row_region(window: Window, y: int) -> Region:
    return as_region([(x, y) for x in range(window.width)])


def reconstruct_global(ms: MarginalSet, *, tol: float = 1e-6) -> ReconstructionResult:
    """Stack level-2 snakes bottom to top by right-merges sharing one row each.

    The result is consistent with every fundamental marginal whenever the
    inputs pass the consistency and Markov checks.  Callers run those checks
    (the CLI does, at the user's tolerances); this function does not repeat
    them, and ``marginal_report``, the fidelity against every stored marginal,
    is what shows that a reconstruction does not reproduce its inputs.

    Step y merges the strip on rows y, y+1 into sigma on rows 0..y, giving tau
    with A = rows < y, B = row y, C = row y+1.  Its residual, in bits, is the
    upper bound I(A:B)_sigma - I(A:B)_tau >= I(A:C|B)_tau, which is data
    processing, I(A:BC)_tau <= I(A:B)_sigma, through the Petz channel on B.
    The entropy comes from the last step, S(tau_AB) + S(tau_BC) - S(tau_B) =
    S(tau) + I(A:C|B)_tau, an upper bound on S(tau) by strong subadditivity
    that exceeds it by at most that step's bound.  These, the weight test and
    each cluster's fidelity record read reductions of tau, all from one
    reduction call per step, so no spectrum of the whole window is taken and
    the dense tau is formed only to carry sigma on (that call's union reduction,
    as it is), for the exact path, or when ``state`` is read.  The call streams:
    tau_AB and tau_BC come first and are let go once the entropy is read, and
    each fidelity record uses its cluster's reduction as soon as it is made and
    drops it, so the last step never holds two cluster reductions.  A step whose
    merge drops, or whose tau_AB and tau_BC hold as negative eigenvalues
    (``steps`` keeps both weights), more than TRACE_TOL of weight (the channel
    argument needs none lost), or whose bound exceeds ``tol``, records the exact
    CMI instead; if last, the entropy is the exact spectral entropy of the
    state.  A fidelity record is ``CheckReport.add_distance`` of tau's cluster
    and the marginal at ``tol``: the Frobenius upper bound on their trace
    distance when it passes, the exact distance otherwise, and its ``method``
    detail says which.
    """
    window = ms.window
    window.check_dense_guard()

    sigma = build_snake(ms, SnakeSpec(2, (0, 0), (window.width - 1, 0)))
    clusters = [cluster_region(anchor, 3, 3) for anchor in ms.anchors()]
    steps = []
    for y in range(1, window.height - 1):
        last = y == window.height - 2
        strip = build_snake(ms, SnakeSpec(2, (0, y), (window.width - 1, y)))
        a = region_union(*[_row_region(window, yy) for yy in range(y)])
        b, c = _row_region(window, y), _row_region(window, y + 1)
        keeps = [region_union(a, b), strip.region] + (clusters if last else [region_union(a, b, c)])
        reductions = right_merge_marginals(sigma, strip, keeps)
        (tau_ab, trace), (tau_bc, _) = next(reductions), next(reductions)
        bound = cmi(sigma, a, (), b) - cmi(tau_ab, a, (), b)
        negative = float(sum(-w[w < 0.0].sum() for w in (tau_ab.eigenvalues(), tau_bc.eigenvalues())))
        exact = abs(trace - 1.0) > TRACE_TOL or negative > TRACE_TOL or bound > tol
        last_merge, tau = (sigma, strip), None
        if not last:
            sigma = tau = next(reductions)[0]
        elif exact:
            tau = right_merge_info(sigma, strip)[0]
        residual, how = (cmi(tau, a, b, c), "exact") if exact else (bound, "bound")
        steps.append(MergeStep(y, float(residual), how, trace, negative))

    if steps[-1].method == "bound":  # the bound and the weight test above cached tau_ab's and tau_bc's spectra
        s_total, method = entropy(tau_ab) + entropy(tau_bc) - entropy(partial_trace(tau_bc, b)), "chain"
    else:
        s_total, method = entropy(tau), "exact"
    del tau_ab, tau_bc  # freed before the first cluster reduction is made

    marginal_report = CheckReport()
    for anchor in ms.anchors():  # no name holds a reduction, so each is freed once it is recorded
        marginal_report.add_distance(
            f"marginal-fidelity:{anchor[0]},{anchor[1]}", "marginal_fidelity", next(reductions)[0],
            ms.marginals[anchor], tol, anchor=list(anchor),
        )
    return ReconstructionResult(
        entropy=float(s_total),
        entropy_method=method,
        steps=steps,
        marginal_report=marginal_report,
        last_merge=last_merge,
        _state=tau,
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
        )
        report.add(
            f"vertical-cmi:rows{y}-{y + 2}",
            "cmi",
            residual,
            tol,
            rows=[y, y + 1, y + 2],
        )
    return report


def max_entropy_terms(provider, window: Window | None = None) -> list:
    """Per-anchor summands S(2x2) - S(2x1) - S(1x2) + S(1x1) in bits, clusters clipped to the window.

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
                    total = total + sign * provider.region_entropy(clipped)
            terms.append(((vx, vy), total))
    return terms


def max_entropy_formula(provider, window: Window | None = None):
    """The maximum entropy in bits consistent with the fundamental marginals, in closed form.

    Exact integer arithmetic survives end to end when the provider returns
    integers (the stabilizer oracle does).
    """
    total = 0
    for _, term in max_entropy_terms(provider, window):
        total = total + term
    return total


def row_major_med(provider, window: Window):
    """MED in bits over the row-major site path; each site is conditioned on its west and south neighbors."""
    return med(provider, site_path(window.sites()))


class _RegionLog:
    """An entropy provider that answers 0 and keeps every region it is asked for."""

    def __init__(self):
        self.regions: list[Region] = []

    def region_entropy(self, region) -> float:
        self.regions.append(as_region(region))
        return 0.0


def formula_regions(window: Window) -> list[Region]:
    """The regions whose entropies ``max_entropy_terms`` and ``row_major_med`` read on ``window``, from a run of both
    on a provider that keeps them: they depend only on the window, so they are known before any marginal is read."""
    log = _RegionLog()
    max_entropy_terms(log, window)
    row_major_med(log, window)
    return log.regions


def uniqueness_certificate(
    rho: DensityOperator,
    sigma: DensityOperator,
    path,
    tol: float = 1e-7,
) -> CheckReport:
    """Numerically certify the max-entropy uniqueness argument for two states.

    Hypotheses checked: the two states agree on every MED-relevant marginal
    along the path, and each has entropy equal to its decomposition.  When they
    hold, the average state's decomposition caps the Jensen gap, which in turn
    bounds the trace distance through (1/8)||rho - sigma||_1^2 <= gap (in
    nats: the gap in bits times ln 2); the certificate then asserts
    distance <= sqrt(8 gap) + tol.  Entropies are compared in bits.  On
    hypothesis failure the distance claim is omitted.
    """
    if rho.region != sigma.region:
        raise GeometryError("states must share a region")
    blocks = validate_block_path(path)
    report = CheckReport()
    for k, (block, cond) in enumerate(med_conditioning(blocks)):
        region = region_union(block, cond)
        report.add_distance(
            f"marginal-match:{k}",
            "marginal_match",
            partial_trace(rho, region),
            partial_trace(sigma, region),
            tol,
            region=_region_json(region),
        )

    s_rho, s_sigma = entropy(rho), entropy(sigma)
    m_rho = med(rho, blocks)
    m_sigma = med(sigma, blocks)
    report.add("med-equality:rho", "med_equality", abs(s_rho - m_rho), tol)
    report.add("med-equality:sigma", "med_equality", abs(s_sigma - m_sigma), tol)

    hypotheses_hold = report.passed
    if hypotheses_hold:
        tau = DensityOperator(rho.region, 0.5 * (rho.matrix + sigma.matrix))
        gap_nats = math.log(2.0) * (med(tau, blocks) - 0.5 * (s_rho + s_sigma))
        gap_nats = max(float(gap_nats), 0.0)
        bound = math.sqrt(8.0 * gap_nats) + tol
        report.add_distance("distance-bound", "distance_bound", rho, sigma, bound, jensen_gap_nats=gap_nats)
    else:
        logger.info("uniqueness hypotheses fail; no distance claim is made")
    return report
