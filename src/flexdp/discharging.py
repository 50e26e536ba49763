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

from collections import deque
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
    return _connected_through(g, _conductive(classify(g, pa)), u, v)


def _conductive(classification: VertexClassification) -> frozenset[int]:
    return frozenset(w for w, cls in enumerate(classification.classes)
                     if cls == "conductive")


def _connected_through(g: Multigraph, conductive: frozenset[int],
                       u: int, v: int) -> bool:
    """BFS from u to v whose internal vertices all lie in `conductive`."""
    queue = deque([u])
    seen = {u}
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y == v:
                return True
            if y in conductive and y not in seen:
                seen.add(y)
                queue.append(y)
    return False


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
    follows when the reported assumptions hold.
    """
    classification = classify(g, pa)
    conductive = _conductive(classification)
    charges = classification.sigma
    positives = [v for v, s in enumerate(charges) if s >= 1]
    negatives = [v for v, s in enumerate(charges) if s < 0]
    insulated = [v for v, cls in enumerate(classification.classes)
                 if cls == "insulated"]

    sent = [0] * g.n
    received = [0] * g.n
    reach: dict[int, list[int]] = {}
    for p in positives:
        targets = [w for w in negatives
                   if _connected_through(g, conductive, p, w)]
        reach[p] = targets
        sent[p] = len(targets)
        for w in targets:
            received[w] += 1
    final = tuple(charges[v] - sent[v] + received[v] for v in range(g.n))

    violations: list[str] = []
    for i, p in enumerate(positives):
        for p2 in positives[i + 1:]:
            if _connected_through(g, conductive, p, p2):
                violations.append(
                    f"positive vertices {p} and {p2} are conductively connected")
    for p in positives:
        if len(reach[p]) < charges[p]:
            violations.append(
                f"positive vertex {p} (charge {charges[p]}) reaches only "
                f"{len(reach[p])} negative vertices")
    for w in insulated:
        connected_positives = sum(
            1 for p in positives if _connected_through(g, conductive, w, p))
        if connected_positives > -charges[w]:
            violations.append(
                f"insulated vertex {w} is reached by {connected_positives} "
                f"positive vertices, above its capacity {-charges[w]}")

    conserved = sum(final) == potential(g, pa, range(g.n))
    ending_positive = tuple(v for v, f in enumerate(final) if f > 0)
    return DischargeReport(classification, tuple(sent), tuple(received),
                           final, conserved, ending_positive,
                           tuple(violations))
