"""Symbolic conditional-independence calculus: monotonicity and reverse-monotonicity
moves over diagram statements, plus a breadth-first derivation search."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .lattice import GeometryError, Region, as_region
from .marginal_store import CmCondition

MAX_STATEMENTS = 200_000  # a closure past this size is a runaway search, not a result


@dataclass(frozen=True)
class CIStatement:
    """I(A:C|B) = 0 with A and C unordered; canonical form keeps the smaller of A, C first."""

    A: Region
    B: Region
    C: Region

    def __post_init__(self):
        a, b, c = as_region(self.A), as_region(self.B), as_region(self.C)
        if not a or not c:
            raise GeometryError("A and C must be nonempty")
        sa, sb, sc = set(a), set(b), set(c)
        if sa & sb or sa & sc or sb & sc:
            raise GeometryError("A, B, C must be pairwise disjoint")
        if c < a:
            a, c = c, a
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)

    def sort_key(self):
        return (self.A, self.B, self.C)

    @classmethod
    def from_condition(cls, cond: CmCondition) -> "CIStatement":
        return cls(cond.A, cond.B, cond.C)


def _proper_nonempty_subsets(region: Region) -> Iterator[tuple]:
    for size in range(1, len(region)):
        yield from combinations(region, size)


def mono_children(s: CIStatement) -> set[CIStatement]:
    """Single monotonicity moves: drop part of A or C, or absorb part of it into B.

    The moved subset is always proper, since A and C must stay nonempty; a
    statement with singleton A and C therefore has no children.
    """
    out: set[CIStatement] = set()
    for shrink, other in ((s.A, s.C), (s.C, s.A)):
        for sub in _proper_nonempty_subsets(shrink):
            keep = tuple(v for v in shrink if v not in set(sub))
            out.add(CIStatement(keep, s.B, other))
            out.add(CIStatement(keep, as_region(s.B + sub), other))
    return out


def _rev_mono_all(s1: CIStatement, s2: CIStatement) -> Iterator[CIStatement]:
    """All reverse-monotonicity conclusions of an (unordered) pair of statements.

    The shared set may sit on either side of either statement; the donor is the
    statement whose squares-plus-circles equal the other's squares.  The result
    keeps the shared set, pools the circles, and conditions on the smaller
    square set.
    """
    for x1, c1 in ((s1.A, s1.C), (s1.C, s1.A)):
        for x2, c2 in ((s2.A, s2.C), (s2.C, s2.A)):
            if set(x1) != set(x2):
                continue
            if set(s1.B) == set(s2.B) | set(c2):
                yield CIStatement(x1, s2.B, as_region(c1 + c2))
            if set(s2.B) == set(s1.B) | set(c1):
                yield CIStatement(x1, s1.B, as_region(c1 + c2))


def rev_mono(s1: CIStatement, s2: CIStatement) -> CIStatement | None:
    for out in sorted(_rev_mono_all(s1, s2), key=CIStatement.sort_key):
        return out
    return None


@dataclass
class DerivationStep:
    move: str
    inputs: tuple
    output: CIStatement


def derivation_closure(
    axioms: Iterable[CIStatement],
    max_depth: int = 8,
    stop_at: CIStatement | None = None,
) -> dict[CIStatement, DerivationStep]:
    """Breadth-first closure under both moves; maps each statement to the step producing it.

    With ``stop_at`` the search returns as soon as that statement appears, so a
    shallow target does not pay for the full fixpoint.
    """
    known: dict[CIStatement, DerivationStep] = {}
    for ax in axioms:
        known.setdefault(ax, DerivationStep("axiom", (), ax))
    frontier = sorted(known, key=CIStatement.sort_key)
    if stop_at is not None and stop_at in known:
        return known
    for _ in range(max_depth):
        fresh: dict[CIStatement, DerivationStep] = {}

        def record(step: DerivationStep) -> bool:
            if step.output not in known and step.output not in fresh:
                fresh[step.output] = step
                return step.output == stop_at
            return False

        done = False
        for s in frontier:
            for child in sorted(mono_children(s), key=CIStatement.sort_key):
                done = record(DerivationStep("mono", (s,), child)) or done
            if done:
                break
        everything = sorted(known, key=CIStatement.sort_key) + sorted(fresh, key=CIStatement.sort_key)
        if not done:
            for s in frontier:
                for t in everything:
                    for out in _rev_mono_all(s, t):
                        done = record(DerivationStep("revmono", (s, t), out)) or done
                if done:
                    break
        known.update(fresh)
        if done or not fresh:
            break
        if len(known) > MAX_STATEMENTS:
            raise RuntimeError(f"derivation closure exceeded {MAX_STATEMENTS} statements")
        frontier = sorted(fresh, key=CIStatement.sort_key)
    return known


def derive(
    axioms: Iterable[CIStatement], target: CIStatement, max_depth: int = 8
) -> list[DerivationStep] | None:
    """Search for the target; returns the move-by-move trace, or None when unreachable.

    The trace is a topologically ordered list ending with the step that
    produces the target; axioms are listed once each, first.  A target that is
    itself an axiom yields an empty list.
    """
    axioms = list(axioms)
    known = derivation_closure(axioms, max_depth, stop_at=target)
    if target not in known:
        return None
    if known[target].move == "axiom":
        return []
    ordered: list[DerivationStep] = []
    seen: set[CIStatement] = set()

    def walk(s: CIStatement):
        if s in seen:
            return
        seen.add(s)
        step = known[s]
        for inp in step.inputs:
            walk(inp)
        ordered.append(step)

    walk(target)
    return [step for step in ordered if step.move != "axiom"]
