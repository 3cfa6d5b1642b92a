"""Level-1/2/3 snakes and their flat and hooked rebuilds from fundamental marginals.

A level-k snake from v to u is the left-associated merge product of the 2-wide,
k-tall marginals stepping right one column at a time; flat variants grow a
lower-level snake row by row with 2x2 merges, and hooked variants seed the
lower-level pass with one extra site so the very first merge already covers a
full cluster.  All builders pull factors through the marginal set's derived
lookup, so sub-marginal uniqueness is enforced in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import (
    GeometryError,
    Region,
    Vertex,
    as_region,
    as_vertex,
    cluster_region,
    column_blocks,
    region_difference,
    region_intersection,
    region_union,
)
from .marginal_store import CheckReport, MarginalSet, _region_json
from .merge import right_merge
from .operator_core import (
    DENSE_DIM_GUARD,
    DensityOperator,
    DimensionGuardError,
    cmi,
    entropy,
    med,
    partial_trace,
    trace_distance,
)

_VARIANTS = ("plain", "flat_up", "flat_down", "hooked_up", "hooked_down")
_ORDERS = ("forward", "reversed")


@dataclass(frozen=True)
class SnakeSpec:
    """Geometry and build recipe of one snake: strip level, endpoints, variant, merge order."""

    level: int
    v: Vertex
    u: Vertex
    variant: str = "plain"
    order: str = "forward"

    def __post_init__(self):
        object.__setattr__(self, "v", as_vertex(self.v))
        object.__setattr__(self, "u", as_vertex(self.u))
        if self.level not in (1, 2, 3):
            raise GeometryError(f"level must be 1, 2, or 3, got {self.level}")
        if self.variant not in _VARIANTS:
            raise GeometryError(f"unknown variant {self.variant!r}")
        if self.order not in _ORDERS:
            raise GeometryError(f"unknown order {self.order!r}")
        if self.v[1] != self.u[1]:
            raise GeometryError("snake endpoints must share a row")
        if self.v[0] >= self.u[0] - 1:
            raise GeometryError("need v.x < u.x - 1 for a meaningful snake")
        if self.variant != "plain" and self.level == 1:
            raise GeometryError("flat and hooked variants exist only for levels 2 and 3")
        if self.variant != "plain" and self.order == "reversed":
            raise GeometryError("reversed build order is defined for plain snakes only")

    @property
    def span(self) -> int:
        return self.u[0] - self.v[0]

    def support(self) -> Region:
        return as_region(
            [
                (x, self.v[1] + r)
                for x in range(self.v[0], self.u[0] + 1)
                for r in range(self.level)
            ]
        )

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "v": list(self.v),
            "u": list(self.u),
            "variant": self.variant,
            "order": self.order,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SnakeSpec":
        return cls(
            int(data["level"]),
            tuple(data["v"]),
            tuple(data["u"]),
            data.get("variant", "plain"),
            data.get("order", "forward"),
        )


def plain_factor_regions(level: int, v, u, order: str = "forward") -> list[Region]:
    """The 2 x level factor clusters stepping right from v to u (or left when reversed)."""
    v, u = as_vertex(v), as_vertex(u)
    span = u[0] - v[0]
    if order == "forward":
        anchors = [(v[0] + i, v[1]) for i in range(1, span + 1)]
    else:
        anchors = [(u[0] - i, u[1]) for i in range(span)]
    return [cluster_region(a, 2, level) for a in anchors]


def _merge_plan(spec: SnakeSpec) -> list[Region]:
    """The full left-associated sequence of factor regions; the first seeds the build."""
    v, u, span = spec.v, spec.u, spec.span
    vy = v[1]
    if spec.variant == "plain":
        return plain_factor_regions(spec.level, v, u, spec.order)
    low = spec.level - 1
    if spec.variant == "flat_up":
        plan = plain_factor_regions(low, v, u)
        row = vy if spec.level == 2 else vy + 1
        plan += [cluster_region((v[0] + i, row), 2, 2) for i in range(1, span + 1)]
        return plan
    if spec.variant == "flat_down":
        plan = plain_factor_regions(low, (v[0], vy + 1), (u[0], vy + 1))
        plan += [cluster_region((u[0] - i, vy), 2, 2) for i in range(span)]
        return plan
    if spec.variant == "hooked_up":
        if spec.level == 2:
            base = as_region([v, (v[0] + 1, vy), (v[0], vy + 1)])
            lower = [cluster_region((v[0] + i, vy), 2, 1) for i in range(2, span + 1)]
            flat = [cluster_region((v[0] + i, vy), 2, 2) for i in range(1, span + 1)]
        else:
            base = region_union(cluster_region((v[0] + 1, vy), 2, 2), [(v[0], vy + 2)])
            lower = [cluster_region((v[0] + i, vy), 2, 2) for i in range(2, span + 1)]
            flat = [cluster_region((v[0] + i, vy + 1), 2, 2) for i in range(1, span + 1)]
        return [base] + lower + flat
    # hooked_down: the pi-rotated construction, seeded at the right end
    if spec.level == 2:
        base = as_region([u, (u[0], vy + 1), (u[0] - 1, vy + 1)])
        lower = [cluster_region((u[0] - i, vy + 1), 2, 1) for i in range(1, span)]
    else:
        base = region_union(cluster_region((u[0], vy + 1), 2, 2), [u])
        lower = [cluster_region((u[0] - i, vy + 1), 2, 2) for i in range(1, span)]
    flat = [cluster_region((u[0] - i, vy), 2, 2) for i in range(span)]
    return [base] + lower + flat


def max_span_for_guard(level: int, local_dim: int) -> int:
    return int(math.floor(math.log(DENSE_DIM_GUARD) / math.log(local_dim) / level)) - 1


def build_snake(ms: MarginalSet, spec: SnakeSpec) -> DensityOperator:
    """Assemble the snake state from derived marginals by left-associated right-merges."""
    support = spec.support()
    if not ms.window.contains_region(support):
        raise GeometryError(f"snake support {support} extends outside the window")
    dim = ms.local_dim ** len(support)
    if dim > DENSE_DIM_GUARD:
        raise DimensionGuardError(
            f"snake on {len(support)} sites needs dimension {dim} > guard {DENSE_DIM_GUARD}; "
            f"maximal span at level {spec.level} and d={ms.local_dim} is "
            f"{max_span_for_guard(spec.level, ms.local_dim)}"
        )
    plan = _merge_plan(spec)
    state = ms.derived_marginal(plan[0])
    for region in plan[1:]:
        state = right_merge(state, ms.derived_marginal(region))
    return state


def verify_is_snake(ms: MarginalSet, spec: SnakeSpec, tol: float = 1e-8) -> CheckReport:
    """Check the snake axioms on the plain factor sequence.

    Per consecutive pair: the factors agree on the shared column, the derived
    marginal over the pair's union is Markov across that column, and the
    right-merge of the pair reproduces that derived marginal (the max-entropy
    join and the merge coincide exactly when all three hold).  Factors two or
    more steps apart must have disjoint supports.
    """
    report = CheckReport()
    regions = plain_factor_regions(spec.level, spec.v, spec.u)
    factors = [ms.derived_marginal(r) for r in regions]
    for i in range(len(factors) - 1):
        left, right = factors[i], factors[i + 1]
        overlap = region_intersection(left.region, right.region)
        a_only = region_difference(left.region, overlap)
        c_only = region_difference(right.region, overlap)
        pair_id = f"{i}-{i + 1}"
        report.add(
            f"snake-consistency:{pair_id}",
            "consistency",
            trace_distance(partial_trace(left, overlap), partial_trace(right, overlap)),
            tol,
            pair=[_region_json(left.region), _region_json(right.region)],
        )
        union = region_union(left.region, right.region)
        derived_union = ms.derived_marginal(union)
        report.add(
            f"snake-overlap-cmi:{pair_id}",
            "cmi",
            cmi(derived_union, a_only, overlap, c_only, base=ms.log_base),
            tol,
            A=_region_json(a_only),
            B=_region_json(overlap),
            C=_region_json(c_only),
        )
        merged = right_merge(left, right)
        report.add(
            f"snake-merge-identity:{pair_id}",
            "merge_identity",
            trace_distance(merged, derived_union),
            tol,
            support=_region_json(union),
        )
    for i in range(len(factors)):
        for j in range(i + 2, len(factors)):
            shared = region_intersection(regions[i], regions[j])
            report.add(
                f"snake-disjoint:{i}-{j}",
                "support_disjoint",
                float(len(shared)),
                0.0,
                pair=[i, j],
            )
    return report


def split_check(ms: MarginalSet, level: int, v, u, t, tol: float = 1e-7) -> CheckReport:
    """Splitting property: the long snake equals the merge of its halves, in either order."""
    v, u, t = as_vertex(v), as_vertex(u), as_vertex(t)
    whole = build_snake(ms, SnakeSpec(level, v, t))
    left = build_snake(ms, SnakeSpec(level, v, u))
    right = build_snake(ms, SnakeSpec(level, u, t))
    report = CheckReport()
    report.add(
        "split:left-then-right",
        "split",
        trace_distance(whole, right_merge(left, right)),
        tol,
        level=level, v=list(v), u=list(u), t=list(t),
    )
    report.add(
        "split:right-then-left",
        "split",
        trace_distance(whole, right_merge(right, left)),
        tol,
        level=level, v=list(v), u=list(u), t=list(t),
    )
    return report


def snake_entropy_med(ms: MarginalSet, spec: SnakeSpec, base: float | None = None) -> float:
    """Markov entropy decomposition over the column path of the snake's support."""
    base = ms.log_base if base is None else base
    return med(ms, column_blocks(spec.support()), base=base)


def level_drop_check(ms: MarginalSet, v, u, tol: float = 1e-7) -> CheckReport:
    """Tracing one row off a level-2 snake must leave the level-1 snake on the other row."""
    v, u = as_vertex(v), as_vertex(u)
    line = build_snake(ms, SnakeSpec(1, v, u))
    report = CheckReport()
    upper = build_snake(ms, SnakeSpec(2, v, u))
    report.add(
        "level-drop:trace-top",
        "level_drop",
        trace_distance(partial_trace(upper, line.region), line),
        tol,
        v=list(v), u=list(u),
    )
    below = build_snake(ms, SnakeSpec(2, (v[0], v[1] - 1), (u[0], u[1] - 1)))
    report.add(
        "level-drop:trace-bottom",
        "level_drop",
        trace_distance(partial_trace(below, line.region), line),
        tol,
        v=list(v), u=list(u),
    )
    return report


def snake_marginal_report(
    ms: MarginalSet, spec: SnakeSpec, state: DensityOperator | None = None, tol: float = 1e-7
) -> CheckReport:
    """Compare the built snake against every fundamental cluster inside its support."""
    if state is None:
        state = build_snake(ms, spec)
    support = set(spec.support())
    report = CheckReport()
    shapes = [(2, spec.level)]
    if spec.level == 3:
        shapes.append((3, 3))
    for n, m in shapes:
        for x in range(spec.v[0] + n - 1, spec.u[0] + 1):
            region = cluster_region((x, spec.v[1]), n, m)
            if not set(region) <= support:
                continue
            report.add(
                f"snake-marginal:{n}x{m}@{x},{spec.v[1]}",
                "marginal_fidelity",
                trace_distance(partial_trace(state, region), ms.derived_marginal(region)),
                tol,
                region=_region_json(region),
            )
    return report
