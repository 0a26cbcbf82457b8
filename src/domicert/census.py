"""Exhaustive verification over all small trees and connected graphs.

The census enumerates every isomorphism class in a size range, runs a
configurable set of named checks against each graph, and aggregates the
verdicts into a deterministic report: identical configurations produce
byte-identical JSON regardless of worker count. Trees stream from the
generator to the checks. Connected graphs are built level by level
first, each level from the one below with every parent's children coded
in the census pool, and then checked. Once the checks are drained, the
graphs counted per vertex count are cross-checked against independently
known class counts.

Check names:

* ``thm1``          2 * gamma_ev == gamma_pr
* ``thm2``          trees only: ev-uniqueness and paired-uniqueness coincide
* ``thm2_probe``    the thm2 equivalence tested on any graph; failures are
                    expected and recorded as findings, not bugs
* ``cor1``          a unique minimum ev-set forces a unique paired set
* ``cor_general``   trees only: either uniqueness pins down the other
                    family's set through spans and matchings
* ``cor_general2``  paired-uniqueness holds exactly when all minimum
                    ev-sets span one common vertex set (the paired set)
* ``claim``         no three edges of a minimum ev-set form a path on four
                    vertices or a triangle
* ``lemma1``        every minimum ev-set with a sharing pair detangles,
                    step invariants included
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from itertools import islice
from multiprocessing import Pool

from .domination import DEFAULT_BUDGET, MinSetFamily, solve_families, spanned_vertices
from .errors import CapabilityError, InvariantViolation, NotMinimumWitness
from .graphs import (
    Graph,
    _from_nbr_bits,
    _general_code,
    _twin_pairs,
    canonical_code,
    emit_graph6,
    is_tree,
    parse_edge_list,
    perfect_matchings_within,
    reachable_bits,
)
from .twinning import _claim_holds, _sharing_pairs, detangle

TREES = "trees"
CONNECTED = "connected_graphs"

CHECK_NAMES = ("claim", "cor1", "cor_general", "cor_general2", "lemma1", "thm1", "thm2", "thm2_probe")
STANDARD_CHECKS = ("claim", "cor1", "cor_general", "cor_general2", "lemma1", "thm1", "thm2")

# connected classes per vertex count, for the generator's cross-check and range
_CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

TREE_GENERATION_BOUND = 16
CONNECTED_GENERATION_BOUND = max(_CONNECTED_CLASS_COUNTS)
# largest census pool; a fixed cap rather than the host's CPU count, so a
# configuration is valid or not the same way on every machine
WORKER_BOUND = 32
# graphs per pool task; batching spreads the pickling and messaging of a
# task over several small graphs
CHUNK_SIZE = 64

REPORT_VERSION = "report-v1"


# --- class counting ------------------------------------------------------


@lru_cache(maxsize=None)
def _rooted_tree_count(n: int) -> int:
    if n <= 1:
        return n
    total = 0
    for j in range(1, n):
        inner = 0
        for d in range(1, j + 1):
            if j % d == 0:
                inner += d * _rooted_tree_count(d)
        total += inner * _rooted_tree_count(n - j)
    return total // (n - 1)


def tree_class_count(n: int) -> int:
    """Number of isomorphism classes of trees on n vertices."""
    if n < 1:
        raise ValueError("need n >= 1")
    r = _rooted_tree_count
    paired = sum(r(a) * r(n - a) for a in range(1, n))
    if n % 2 == 0:
        paired -= r(n // 2)
    return r(n) - paired // 2


def connected_class_count(n: int) -> int:
    """Known number of connected-graph classes, for generator cross-checks."""
    try:
        return _CONNECTED_CLASS_COUNTS[n]
    except KeyError:
        raise CapabilityError(f"no reference count for connected graphs on {n} vertices") from None


# --- free tree generation ------------------------------------------------
#
# Successor walk over canonical level sequences (the Wright, Richmond,
# Odlyzko, McKay scheme): each tree is a list of depths in preorder, the
# successor of a rooted sequence is computed in place, and candidates
# failing the centroid conditions for free trees jump ahead.


def generate_trees(n: int):
    """Yield one representative per isomorphism class of trees on n vertices."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > TREE_GENERATION_BOUND:
        raise CapabilityError(f"tree generation supports n <= {TREE_GENERATION_BOUND}, got {n}")
    if n == 1:
        yield Graph(1, ())
        return
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _next_free_tree(layout)
        if layout is not None:
            yield _levels_to_graph(layout)
            layout = _next_rooted_tree(layout)


def _next_rooted_tree(levels, p=None):
    # Beyer-Hedetniemi successor of a canonical rooted level sequence.
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    result = list(levels)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _next_free_tree(candidate):
    # Accept the candidate if its first root subtree is no taller, no
    # larger and no lexicographically later than the rest; otherwise jump.
    left, rest = _split_first_subtree(candidate)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    successor = _next_rooted_tree(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split_first_subtree(successor)
        suffix = range(1, max(new_left) + 2)
        successor[-len(suffix):] = suffix
    return successor


def _split_first_subtree(levels):
    # First subtree of the root versus everything else (re-rooted at 0).
    # levels[1] is always 1, so the rest starts at the next 1, if any
    second = levels.index(1, 2) if 1 in levels[2:] else len(levels)
    left = [levels[i] - 1 for i in range(1, second)]
    rest = [0] + [levels[i] for i in range(second, len(levels))]
    return left, rest


def _levels_to_graph(levels) -> Graph:
    edges = []
    stack: list[int] = []
    for i, lev in enumerate(levels):
        while len(stack) > lev:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return Graph(len(levels), edges)


# --- connected graph generation -------------------------------------------
#
# Children of an (m-1)-representative g attach a newcomer u to a nonempty
# neighbour mask, so level m is built from level m-1 alone and a census
# builds each level once. Two bitmask rules drop a mask before any code is
# computed; neither drops the first mask found for a class:
#
# * Largest-degree non-cut newcomer. Every connected graph H has a non-cut
#   vertex v of largest degree among its non-cut vertices; H - v is
#   connected, so attaching v back to its representative reaches H. A
#   child in which some other vertex x is not a cut vertex (every component
#   of g - x meets the mask) and has a larger degree than u adds no class.
# * Twin orbits. Swapping twins x < y of g (``_twin_pairs``) is an
#   automorphism of g; it maps a mask holding y but not x to a smaller mask
#   with an isomorphic child, which the first rule, being invariant under
#   automorphisms, keeps too.
#
# Codes of the survivors come from their neighbour masks; each child is a
# Graph built on those masks, which are not checked again.
# Each parent's children are coded on their own (``_child_codes``), so a
# pool can code a level's parents in parallel.


def generate_connected_graphs(n: int):
    """Yield one representative per isomorphism class of connected graphs."""
    if not 2 <= n <= CONNECTED_GENERATION_BOUND:
        raise CapabilityError(f"connected generation supports 2 <= n <= {CONNECTED_GENERATION_BOUND}, got {n}")
    for reps in _connected_levels(n):
        pass
    yield from reps


def _connected_levels(n_max: int, mapper=map):
    # the representatives of each level m = 1..n_max, in class order; the
    # children of each level's parents are coded through ``mapper``, and
    # the first (parent, mask) per code in parent order is kept, so any
    # order-preserving mapper gives the representatives of a serial pass
    reps = [Graph(1, ())]
    yield reps
    for _ in range(2, n_max + 1):
        found: dict[bytes, tuple[Graph, int]] = {}
        for g, children in zip(reps, mapper(_child_codes, reps)):
            for code, mask in children:
                found.setdefault(code, (g, mask))
        reps = [_attach(*found[c]) for c in sorted(found)]
        yield reps


def _child_codes(g: Graph) -> list[tuple[bytes, int]]:
    # (code, first mask) of each child class of g that survives the two
    # rules, in mask order
    newcomer = g.n
    full = (1 << newcomer) - 1
    bits = g.nbr_bits
    tree = g.edge_count == newcomer - 1
    twins = [(1 << x | 1 << y, 1 << y) for x, y in _twin_pairs(bits)]
    degree = [b.bit_count() for b in bits]
    parts = [_components(bits, full ^ 1 << x) for x in range(newcomer)]
    found: dict[bytes, int] = {}
    for mask in range(1, 1 << newcomer):
        if any(mask & pair == y for pair, y in twins):
            continue
        k = mask.bit_count()
        if any(degree[x] + (mask >> x & 1) > k and all(c & mask for c in parts[x])
               for x in range(newcomer)):
            continue
        child = _attach(g, mask)
        code = canonical_code(child) if tree and k == 1 else _general_code(newcomer + 1, child.nbr_bits)
        found.setdefault(code, mask)
    return list(found.items())


def _attach(g: Graph, mask: int) -> Graph:
    # g plus a newcomer joined to the vertices in mask
    return _from_nbr_bits(tuple(b | (mask >> i & 1) << g.n for i, b in enumerate(g.nbr_bits)) + (mask,))


def _components(bits: tuple[int, ...], alive: int) -> list[int]:
    # vertex masks of the components of the subgraph induced on ``alive``
    parts = []
    while alive:
        part = reachable_bits(bits, alive & -alive, alive)
        parts.append(part)
        alive ^= part
    return parts


# --- per-graph checks ------------------------------------------------------


def verify_graph(graph: Graph, checks, budget: int = DEFAULT_BUDGET) -> dict[str, str]:
    """Run the named checks; verdicts are pass, fail, skip or na.

    A budget overrun skips every requested check for the graph; checks
    that only claim something about trees come back na on non-trees.
    """
    return _verify_with_families(graph, _validated_checks(checks), budget)[0]


def _verify_with_families(graph: Graph, checks, budget: int):
    # verify_graph's verdicts plus the ev and paired families they were
    # read from (both None when the budget ran out); ``checks`` are names
    # that _validated_checks has already passed
    try:
        ev, pr = solve_families(graph, budget)
    except CapabilityError:
        return {name: "skip" for name in checks}, None, None
    tree = is_tree(graph)
    out: dict[str, str] = {}
    for name in checks:
        if name in ("thm2", "cor_general") and not tree:
            out[name] = "na"
            continue
        holds = _CHECK_TABLE[name](graph, ev, pr)
        out[name] = "pass" if holds else "fail"
    return out, ev, pr


def _check_thm1(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    return 2 * ev.gamma == pr.gamma


def _check_uniqueness_equivalence(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    return (len(ev.sets) == 1) == (len(pr.sets) == 1)


def _check_cor1(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    return len(ev.sets) != 1 or len(pr.sets) == 1


def _check_cor_general(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    # either family unique: both are, the ev-set spans the paired set and
    # is the only perfect matching inside it
    if len(ev.sets) != 1 and len(pr.sets) != 1:
        return True
    return (len(ev.sets) == len(pr.sets) == 1
            and spanned_vertices(ev.sets[0]) == frozenset(pr.sets[0])
            and list(perfect_matchings_within(graph, pr.sets[0])) == [ev.sets[0]])


def _check_cor_general2(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    spans = {spanned_vertices(m) for m in ev.sets}
    if len(pr.sets) == 1:
        return spans == {frozenset(pr.sets[0])}
    return len(spans) > 1


def _check_claim(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    return all(_claim_holds(m) for m in ev.sets)


def _check_lemma1(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    minimum = set(ev.sets)
    for m in ev.sets:
        if _sharing_pairs(m) == 0:
            continue
        if not _detangles_cleanly(graph, minimum, m):
            return False
    return True


def _detangles_cleanly(graph: Graph, minimum: set, members) -> bool:
    # one detangle pass, each recorded step held to the script: both
    # rewrites are distinct minimum sets (members of ``minimum``, the
    # family's sorted edge tuples) with equally many sharing pairs,
    # strictly fewer than before the step
    try:
        result = detangle(graph, members)
    except (NotMinimumWitness, InvariantViolation):
        return False
    before = _sharing_pairs(members)
    for left, right in result.branches:
        after = _sharing_pairs(left)
        if after != _sharing_pairs(right) or after >= before:
            return False
        if left == right or left not in minimum or right not in minimum:
            return False
        before = after
    return (
        before == 0
        and len(result.left) == len(members) == len(result.right)
        and spanned_vertices(result.left) != spanned_vertices(result.right)
    )


_CHECK_TABLE = {
    "thm1": _check_thm1,
    "thm2": _check_uniqueness_equivalence,
    "thm2_probe": _check_uniqueness_equivalence,
    "cor1": _check_cor1,
    "cor_general": _check_cor_general,
    "cor_general2": _check_cor_general2,
    "claim": _check_claim,
    "lemma1": _check_lemma1,
}


def _validated_checks(checks) -> tuple[str, ...]:
    names = tuple(sorted(set(checks)))
    if not names:
        raise ValueError("need at least one check")
    unknown = [name for name in names if name not in _CHECK_TABLE]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return names


# --- census runs -----------------------------------------------------------


@dataclass(frozen=True)
class CensusConfig:
    """A census request; validated on construction."""

    family: str
    n_min: int
    n_max: int
    checks: tuple[str, ...] = STANDARD_CHECKS
    worker_count: int = 1
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.family not in (TREES, CONNECTED):
            raise ValueError(f"unknown family {self.family!r}")
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError("need 2 <= n_min <= n_max")
        bound = TREE_GENERATION_BOUND if self.family == TREES else CONNECTED_GENERATION_BOUND
        if self.n_max > bound:
            raise ValueError(f"family {self.family} supports n_max <= {bound}")
        object.__setattr__(self, "checks", _validated_checks(self.checks))
        if not 1 <= self.worker_count <= WORKER_BOUND:
            raise ValueError(f"need 1 to {WORKER_BOUND} workers, got {self.worker_count}")
        if self.budget < 1:
            raise ValueError("budget must be positive")


@dataclass
class CensusReport:
    """Aggregated verdicts; the JSON form is canonical and timing-free."""

    family: str
    n_min: int
    n_max: int
    checks: tuple[str, ...]
    budget: int
    per_n: dict[int, dict]
    totals: dict
    worker_count: int = 1
    wall_time_seconds: float = 0.0

    def payload(self) -> dict:
        # wall time and worker count stay out: equal configurations must
        # serialize identically however the work was split
        return {
            "version": REPORT_VERSION,
            "family": self.family,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "checks": list(self.checks),
            "budget": self.budget,
            "per_n": {str(n): record for n, record in self.per_n.items()},
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True) + "\n"

    @property
    def counterexample_count(self) -> int:
        return self.totals["counterexamples"]

    @property
    def skip_count(self) -> int:
        return sum(per_check["skip"] for per_check in self.totals["verdicts"].values())


def run_census(config: CensusConfig) -> CensusReport:
    """Enumerate, check and aggregate; deterministic for any worker count."""
    start = time.perf_counter()
    sizes = range(config.n_min, config.n_max + 1)
    class_count = tree_class_count if config.family == TREES else connected_class_count
    per_n = {n: {"graphs_examined": 0, "expected_count": class_count(n), "counterexamples": [],
                 "verdicts": {name: {"pass": 0, "fail": 0, "skip": 0, "na": 0} for name in config.checks}}
             for n in sizes}
    task = partial(_census_task, checks=config.checks, budget=config.budget)
    pool = Pool(config.worker_count) if config.worker_count > 1 else None
    try:
        # one order-preserving mapper for the level pass and the checks
        mapper = map if pool is None else partial(pool.imap, chunksize=CHUNK_SIZE)
        if config.family == TREES:
            # trees stream: each graph is checked as it is generated
            levels = (generate_trees(n) for n in sizes)
        else:
            # one level pass: level n is built from level n-1, so the levels
            # below n_min are built once and not checked. The levels are
            # listed before the checks start, because the pool codes their
            # children and cannot also draw check tasks from a generator
            # that waits on it.
            levels = list(islice(_connected_levels(config.n_max, mapper), config.n_min - 1, None))
        results = mapper(task, (g for level in levels for g in level))
        for n, verdicts, examples in results:
            record = per_n[n]
            record["graphs_examined"] += 1
            for name, verdict in verdicts.items():
                record["verdicts"][name][verdict] += 1
            record["counterexamples"].extend(examples)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    for n, record in per_n.items():
        if record["graphs_examined"] != record["expected_count"]:
            raise InvariantViolation(
                f"generated {record['graphs_examined']} classes for n={n}, expected {record['expected_count']}")
        record["counterexamples"].sort(key=lambda rec: (rec["graph6"], rec["check"]))
    totals_verdicts = {
        name: {verdict: sum(per_n[n]["verdicts"][name][verdict] for n in per_n)
               for verdict in ("pass", "fail", "skip", "na")}
        for name in config.checks
    }
    totals = {
        "graphs_examined": sum(per_n[n]["graphs_examined"] for n in per_n),
        "verdicts": totals_verdicts,
        "counterexamples": sum(len(per_n[n]["counterexamples"]) for n in per_n),
    }
    return CensusReport(
        family=config.family,
        n_min=config.n_min,
        n_max=config.n_max,
        checks=config.checks,
        budget=config.budget,
        per_n=per_n,
        totals=totals,
        worker_count=config.worker_count,
        wall_time_seconds=time.perf_counter() - start,
    )


def _census_task(graph: Graph, checks, budget: int):
    # (n, verdicts, counterexample records) of one graph
    verdicts, ev, pr = _verify_with_families(graph, checks, budget)
    examples = [{
        "graph6": emit_graph6(graph),
        "check": name,
        "gamma_ev": ev.gamma,
        "ev_sets": [[list(e) for e in m] for m in ev.sets],
        "gamma_pr": pr.gamma,
        "pr_sets": [list(d) for d in pr.sets],
    } for name in sorted(verdicts) if verdicts[name] == "fail"]
    return graph.n, verdicts, examples


# --- bundled counterexample fixture ----------------------------------------


def figure1_graph() -> Graph:
    """The bundled pendant-cycle fixture: a 4-cycle, one pendant per cycle vertex."""
    text = resources.files("domicert").joinpath("data/figure1.edges").read_text(encoding="utf-8")
    return parse_edge_list(text)


def figure1_claims(graph: Graph, budget: int = DEFAULT_BUDGET) -> tuple[tuple[str, bool], ...]:
    """The five claims the pendant-cycle fixture is shipped to witness."""
    ev, pr = solve_families(graph, budget)
    spans = {spanned_vertices(m) for m in ev.sets}
    return (
        ("gamma_ev == 2", ev.gamma == 2),
        ("exactly two minimum ev sets", len(ev.sets) == 2),
        ("gamma_pr == 4", pr.gamma == 4),
        ("exactly one minimum paired set", len(pr.sets) == 1),
        ("every ev span equals the paired set", spans == {frozenset(pr.sets[0])}),
    )
