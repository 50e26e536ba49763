"""Charge bookkeeping: vertex classes, conductive paths, and the transfer.

Initial charge is sigma(v) = rho(v) - 2 d(v).  A vertex is positive when
sigma >= 1, insulated when sigma <= -2, conductive when (d in {2,3} and
rho = 2d) or (d = 2 and rho = 3), and negative when sigma < 0 (the weakest
reading consistent with the transfer rule; the report states it).  The
procedure moves one unit from each positive vertex to every negative
vertex it can reach through conductive interior vertices.  The tool is an
auditor, not a prover: when the structural assumptions behind "all final
charges are nonpositive" fail for the input, it reports which ones.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Multigraph, PotentialAssignment, potential, sigma

NEGATIVE_RULE = "negative means sigma(v) < 0"


@dataclass(frozen=True)
class VertexClassification:
    classes: tuple[str, ...]
    sigma: tuple[int, ...]


def classify(g: Multigraph, pa: PotentialAssignment) -> VertexClassification:
    """Partition into positive / insulated / conductive (plus a fallback).

    With rho in {3,4,6} the three classes always cover sigma = 0 and
    sigma = -1, so "unclassified" marks inputs that escape the intended
    regime rather than anything expected here.
    """
    charges = tuple(sigma(g, pa, v) for v in range(g.n))
    classes = []
    for v, s in enumerate(charges):
        d, r = g.degree(v), pa.rho[v]
        if s >= 1:
            classes.append("positive")
        elif s <= -2:
            classes.append("insulated")
        elif (d in (2, 3) and r == 2 * d) or (d == 2 and r == 3):
            classes.append("conductive")
        else:
            classes.append("unclassified")
    return VertexClassification(tuple(classes), charges)


def conductively_connected(g: Multigraph, pa: PotentialAssignment,
                           u: int, v: int) -> bool:
    """True when some u-v path has every internal vertex conductive.

    Adjacent vertices qualify vacuously.  The endpoints' own classes are
    irrelevant.
    """
    if u == v:
        raise ValueError("conductive connectivity needs two distinct vertices")
    return v in _reach(g, classify(g, pa).classes, u)


def _reach(g: Multigraph, classes: tuple[str, ...], u: int) -> set[int]:
    """The vertices joined to u by a path whose internal vertices are all
    conductive: the neighbours of u and of every conductive vertex so
    reached.  The relation is symmetric, as a path reads both ways."""
    reach: set[int] = set()
    stack, expanded = [u], {u}
    while stack:
        for y in g.neighbors(stack.pop()):
            reach.add(y)
            if classes[y] == "conductive" and y not in expanded:
                expanded.add(y)
                stack.append(y)
    return reach


@dataclass(frozen=True)
class DischargeReport:
    classification: VertexClassification
    sent: tuple[int, ...]
    received: tuple[int, ...]
    final: tuple[int, ...]
    conserved: bool
    ending_positive: tuple[int, ...]
    assumption_violations: tuple[str, ...]

    @property
    def all_final_nonpositive(self) -> bool:
        return not self.ending_positive


def run_discharging(g: Multigraph, pa: PotentialAssignment) -> DischargeReport:
    """Run the transfer and audit the assumptions behind its conclusion.

    Every vertex with sigma >= 1 gives charge 1 to each negative vertex it
    is conductively connected with.  The sum of final charges always equals
    the potential of the whole vertex set; "all final charges <= 0" only
    follows when the reported assumptions hold.  Each positive vertex's
    `_reach` set is found once; the transfer and the three audits read it.
    """
    classification = classify(g, pa)
    charges = classification.sigma
    positives = [v for v, s in enumerate(charges) if s >= 1]
    negatives = [v for v, s in enumerate(charges) if s < 0]
    insulated = [v for v, cls in enumerate(classification.classes)
                 if cls == "insulated"]

    reach = {p: _reach(g, classification.classes, p) for p in positives}
    sent = [0] * g.n
    received = [0] * g.n
    for p in positives:
        for w in negatives:
            if w in reach[p]:
                sent[p] += 1
                received[w] += 1
    final = tuple(charges[v] - sent[v] + received[v] for v in range(g.n))

    violations: list[str] = []
    for i, p in enumerate(positives):
        for p2 in positives[i + 1:]:
            if p2 in reach[p]:
                violations.append(
                    f"positive vertices {p} and {p2} are conductively connected")
    for p in positives:
        if sent[p] < charges[p]:
            violations.append(
                f"positive vertex {p} (charge {charges[p]}) reaches only "
                f"{sent[p]} negative vertices")
    for w in insulated:
        connected_positives = sum(1 for p in positives if w in reach[p])
        if connected_positives > -charges[w]:
            violations.append(
                f"insulated vertex {w} is reached by {connected_positives} "
                f"positive vertices, above its capacity {-charges[w]}")

    conserved = sum(final) == potential(g, pa, range(g.n))
    ending_positive = tuple(v for v, f in enumerate(final) if f > 0)
    return DischargeReport(classification, tuple(sent), tuple(received),
                           final, conserved, ending_positive,
                           tuple(violations))
