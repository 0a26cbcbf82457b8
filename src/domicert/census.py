"""Exhaustive verification over all small trees and connected graphs.

The census enumerates every isomorphism class in a size range, runs a
configurable set of named checks against each graph, and aggregates the
verdicts into a deterministic report: identical configurations produce
byte-identical JSON regardless of worker count. Graphs stream to the
checks: trees from their generator, connected graphs from a level pass
that builds each level from the one below, coding every parent's
children in the census pool, and hands on each class once its parent is
merged. Pool workers each have their own pipe, driven from the main
thread, and one that dies ends the census with a CapabilityError. Once
the checks are drained, the graphs counted per vertex count are
cross-checked against independently known class counts.

Check names. ``solve_families`` builds the paired family from the ev
search, as the spans of the minimum ev-sets that are matchings, so three
statements are theorems of that construction and their checks pass by
it:

* ``thm1``          2 * gamma_ev == gamma_pr
* ``cor1``          a unique minimum ev-set forces a unique paired set
* ``cor_general``   trees only: either uniqueness pins down the other
                    family's set through spans and matchings. The ev =>
                    paired half is cor1; the check tests the other half,
                    paired unique => ev unique, as thm2 does

The others are facts the census finds:

* ``thm2``          trees only: ev-uniqueness and paired-uniqueness coincide
* ``thm2_probe``    the thm2 equivalence tested on any graph; failures are
                    expected and recorded as findings, not bugs
* ``cor_general2``  paired-uniqueness holds exactly when all minimum
                    ev-sets span one common vertex set (the paired set);
                    every paired set is an ev span, so the check tests
                    that a unique paired set D is spanned by every ev-set
* ``claim``         no three edges of a minimum ev-set form a path on four
                    vertices or a triangle
* ``lemma1``        every minimum ev-set with a sharing pair twins into two
                    distinct minimum ev-sets with fewer sharing pairs, whose
                    spans differ once no pair is left
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from functools import lru_cache, partial
from itertools import groupby, islice

from .domination import DEFAULT_BUDGET, MinSetFamily, _Record, solve_families
from .errors import CapabilityError, InvariantViolation, NotMinimumWitness
from .graphs import (
    Graph,
    _from_nbr_bits,
    _tree_walk,
    _twin_pairs,
    canonical_code,
    emit_graph6,
    is_connected,
    parse_edge_list,
)
from .twinning import _claim_holds, _first_sharing_pair, _sharing_pairs, _twin

TREES = "trees"
CONNECTED = "connected_graphs"

# connected classes per vertex count, for the generator's cross-check and range
_CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}

TREE_GENERATION_BOUND = 20
CONNECTED_GENERATION_BOUND = max(_CONNECTED_CLASS_COUNTS)
# largest census pool; a fixed cap rather than the host's CPU count, so a
# configuration is valid or not the same way on every machine
WORKER_BOUND = 32
# graphs per check batch and most parents per coding task: batching spreads
# the pickling and the pipe round trip of a pool task over several small graphs
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
    # in preorder, the parent of vertex i is the latest vertex one level up
    bits = [0] * len(levels)
    latest = [0] * len(levels)  # per level, the latest vertex on it so far
    for i in range(1, len(levels)):
        level = levels[i]
        parent = latest[level - 1]
        bits[parent] |= 1 << i
        bits[i] = 1 << parent
        latest[level] = i
    return _from_nbr_bits(tuple(bits))


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
# Each survivor is coded by ``canonical_code``, on a Graph built on its
# neighbour masks, which are not checked again. Each parent's children are
# coded on their own (``_child_codes``), so a pool can code them in parallel.


def generate_connected_graphs(n: int):
    """Yield one representative per isomorphism class of connected graphs."""
    if not 2 <= n <= CONNECTED_GENERATION_BOUND:
        raise CapabilityError(f"connected generation supports 2 <= n <= {CONNECTED_GENERATION_BOUND}, got {n}")
    for reps in _connected_levels(n):
        pass
    yield from reps


def _connected_levels(n_max: int, mapper=map):
    # the representatives of each level m = 1..n_max, in class order
    yield [Graph(1, ())]
    for _, level in groupby(_connected_classes(n_max, mapper), lambda found: found[1].n):
        yield [g for _, g in sorted(level)]


def _connected_classes(n_max: int, mapper=map):
    # (code, representative) of each class on 2..n_max vertices, once its
    # parent's children are merged: ``mapper`` codes them in parent order,
    # and the first (parent, mask) per code is kept, as in a serial pass.
    # Of the last level, only the codes are kept
    reps = [Graph(1, ())]
    for m in range(2, n_max + 1):
        found: dict[bytes, Graph | None] = {}
        for g, children in zip(reps, mapper(_child_codes, reps)):
            for code, mask in children:
                if code not in found:
                    child = _attach(g, mask)
                    found[code] = child if m < n_max else None
                    yield code, child
        if m < n_max:
            reps = [found[c] for c in sorted(found)]


def _child_codes(g: Graph) -> list[tuple[bytes, int]]:
    # (code, first mask) of each child class of g that survives the two
    # rules, in mask order. In a child with k = popcount(mask), a vertex of
    # degree d in g outranks the newcomer when d > k, or d == k and it is
    # in mask, so only those rivals are tested for being non-cut
    newcomer = g.n
    full = (1 << newcomer) - 1
    bits = g.nbr_bits
    twins = [(1 << x | 1 << y, 1 << y) for x, y in _twin_pairs(bits)]
    parts = [_components(g, full ^ 1 << x) for x in range(newcomer)]
    above = [0] * (newcomer + 1)
    equal = [0] * (newcomer + 1)
    for x, b in enumerate(bits):
        d = b.bit_count()
        equal[d] |= 1 << x
        for k in range(d):
            above[k] |= 1 << x
    found: dict[bytes, int] = {}
    for mask in range(1, 1 << newcomer):
        if any(mask & pair == y for pair, y in twins):
            continue
        k = mask.bit_count()
        rivals = above[k] | equal[k] & mask
        outranked = False
        while rivals and not outranked:
            low = rivals & -rivals
            rivals ^= low
            outranked = True
            for part in parts[low.bit_length() - 1]:
                if not part & mask:
                    outranked = False  # the rival is a cut vertex of the child
                    break
        if not outranked:
            found.setdefault(canonical_code(_attach(g, mask)), mask)
    return list(found.items())


def _attach(g: Graph, mask: int) -> Graph:
    # g plus a newcomer joined to the vertices in mask
    bits = [b | (mask >> i & 1) << g.n for i, b in enumerate(g.nbr_bits)]
    bits.append(mask)
    return _from_nbr_bits(tuple(bits))


def _components(g: Graph, alive: int) -> list[int]:
    # vertex masks of the components of the subgraph of g induced on ``alive``
    parts = []
    while alive:
        part = sum(1 << v for v in _tree_walk(g, (alive & -alive).bit_length() - 1, alive)[0])
        parts.append(part)
        alive ^= part
    return parts


# --- per-graph checks ------------------------------------------------------


def verify_graph(graph: Graph, checks, budget: int = DEFAULT_BUDGET) -> dict[str, str]:
    """Run the named checks; verdicts are pass, fail, skip or na.

    A budget overrun skips every requested check for the graph; checks
    that only claim something about trees come back na on non-trees.
    """
    return _census_task(graph, _validated_checks(checks), budget, is_connected(graph))[1]


def _holds_by_construction(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    # thm1 and cor1: solve_families sets gamma_pr to 2 * gamma_ev, and a
    # unique minimum ev-set is the one matching, whose span is then the one
    # paired set; a graph with no matching among its minimum ev-sets raises
    # InvariantViolation before any check runs
    return True


def _check_uniqueness_equivalence(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    return (len(ev.masks) == 1) == (len(pr.masks) == 1)


def _check_cor_general2(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    # every paired set is an ev span, so only a unique paired set can fail
    return len(pr.masks) != 1 or len(set(ev.spans)) == 1


def _check_claim(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    # the edge index is built only for a family with a tangled member
    return all(_claim_holds(*ev.index, members) for members in ev.tangled)


def _check_lemma1(graph: Graph, ev: MinSetFamily, pr: MinSetFamily) -> bool:
    tangled = ev.tangled
    if not tangled:
        return True
    edges, incident = ev.index
    # a member that is a matching has no sharing pair
    pairs = {members: _sharing_pairs(edges, incident, members) for members in tangled}
    minimum = {members: (span, pairs.get(members, 0)) for members, span in zip(ev.masks, ev.spans)}
    return all(_detangles_cleanly(graph, edges, incident, minimum, members) for members in tangled)


def _detangles_cleanly(graph: Graph, edges, incident, minimum: dict[int, tuple[int, int]], members: int) -> bool:
    # the one twinning step that detangle takes on members, which have a
    # sharing pair: both rewrites are distinct members of ``minimum`` (the
    # family's edge masks, each mapped to its span and its sharing pairs)
    # with equally many sharing pairs, strictly fewer than before, and two
    # sharing-free rewrites keep the edge count of members and span
    # different vertex sets. Each left rewrite is a member checked in its
    # own turn, so over the family this checks every step of every
    # detangle chain
    try:
        left, right, _, _ = _twin(graph, edges, incident, members, *_first_sharing_pair(edges, incident, members))
    except NotMinimumWitness:
        return False
    if left == right or left not in minimum or right not in minimum:
        return False
    (left_span, after), (right_span, other) = minimum[left], minimum[right]
    if after != other or after >= minimum[members][1]:
        return False
    return after > 0 or (left.bit_count() == members.bit_count() == right.bit_count() and left_span != right_span)


_CHECK_TABLE = {
    "thm1": _holds_by_construction,
    "thm2": _check_uniqueness_equivalence,
    "thm2_probe": _check_uniqueness_equivalence,
    "cor1": _holds_by_construction,
    # on trees; the ev => paired half holds by construction
    "cor_general": _check_uniqueness_equivalence,
    "cor_general2": _check_cor_general2,
    "claim": _check_claim,
    "lemma1": _check_lemma1,
}
CHECK_NAMES = tuple(sorted(_CHECK_TABLE))
# every check whose failure would be a bug; thm2_probe failures are findings
STANDARD_CHECKS = tuple(name for name in CHECK_NAMES if name != "thm2_probe")
VERDICTS = ("pass", "fail", "skip", "na")


def _validated_checks(checks) -> tuple[str, ...]:
    if isinstance(checks, str):
        raise ValueError(f"checks must be a tuple of check names, not the string {checks!r}")
    names = tuple(sorted(set(checks)))
    if not names:
        raise ValueError("need at least one check")
    unknown = [name for name in names if name not in _CHECK_TABLE]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return names


# --- census runs -----------------------------------------------------------


class CensusConfig(_Record):
    """A census request; validated on construction."""

    _fields = ("family", "n_min", "n_max", "checks", "worker_count", "budget")

    def __init__(self, family: str, n_min: int, n_max: int, checks: tuple[str, ...] = STANDARD_CHECKS,
                 worker_count: int = 1, budget: int = DEFAULT_BUDGET):
        self.__dict__.update(family=family, n_min=n_min, n_max=n_max, checks=checks, worker_count=worker_count,
                             budget=budget)
        if self.family not in (TREES, CONNECTED):
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("n_min", "n_max", "worker_count", "budget"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError("need 2 <= n_min <= n_max")
        bound = TREE_GENERATION_BOUND if self.family == TREES else CONNECTED_GENERATION_BOUND
        if self.n_max > bound:
            raise ValueError(f"family {self.family} supports n_max <= {bound}")
        self.__dict__["checks"] = _validated_checks(self.checks)
        if not 1 <= self.worker_count <= WORKER_BOUND:
            raise ValueError(f"need 1 to {WORKER_BOUND} workers, got {self.worker_count}")
        if self.budget < 1:
            raise ValueError("budget must be positive")


class CensusReport(_Record):
    """Aggregated verdicts; the JSON form is canonical and timing-free."""

    _fields = ("config", "per_n", "wall_time_seconds")
    # mutable, and so unhashable
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, config: CensusConfig, per_n: dict[int, dict], wall_time_seconds: float):
        self.__dict__.update(config=config, per_n=per_n, wall_time_seconds=wall_time_seconds)

    def payload(self) -> dict:
        # wall time and worker count stay out: equal configurations must
        # serialize identically however the work was split
        config = self.config
        return {
            "version": REPORT_VERSION,
            "family": config.family,
            "n_min": config.n_min,
            "n_max": config.n_max,
            "checks": list(config.checks),
            "budget": config.budget,
            "per_n": {str(n): record for n, record in self.per_n.items()},
            "totals": self.totals,
        }

    @property
    def totals(self) -> dict:
        records = self.per_n.values()
        return {
            "graphs_examined": sum(record["graphs_examined"] for record in records),
            "verdicts": {name: {verdict: sum(record["verdicts"][name][verdict] for record in records)
                                for verdict in VERDICTS}
                         for name in self.config.checks},
            "counterexamples": sum(len(record["counterexamples"]) for record in records),
        }

    def to_json(self) -> str:
        import json  # only a written report needs it

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
                 "verdicts": {name: dict.fromkeys(VERDICTS, 0) for name in config.checks}}
             for n in sizes}
    task = partial(_census_batch, checks=config.checks, budget=config.budget)
    workers = config.worker_count
    pool = _start_pool(workers) if workers > 1 else None
    try:
        mapper = map
        if pool is not None:
            # four coding tasks per worker, so that every worker shares each level
            mapper = lambda func, items: pool.imap(func, items, min(CHUNK_SIZE, max(1, len(items) // (4 * workers))))
        if config.family == TREES:
            graphs = (g for n in sizes for g in generate_trees(n))
        else:
            # one level pass: the levels below n_min are built, not checked
            graphs = (g for _, g in _connected_classes(config.n_max, mapper) if g.n >= config.n_min)
        if pool is None:
            # one batch: each graph is checked before the next is generated
            batches, window, submit = iter([graphs]), 1, lambda batch: partial(task, batch)
        else:
            # listed batches, as a task's arguments are pickled when it is
            # sent; the pool sends its tasks in the order they are submitted
            batches, window = iter(lambda: list(islice(graphs, CHUNK_SIZE)), []), 2 * workers
            submit = lambda batch: pool.apply_async(task, (batch,)).get
        pending = deque()  # at most ``window`` batches in flight
        while (batch := next(batches, None)) is not None or pending:
            if batch is not None:
                pending.append(submit(batch))
            if len(pending) == window or batch is None:
                tally, examples = pending.popleft()()
                for (n, verdicts), count in tally.items():
                    record = per_n[n]
                    record["graphs_examined"] += count
                    for name, verdict in zip(config.checks, verdicts):
                        record["verdicts"][name][verdict] += count
                for n, example in examples:
                    per_n[n]["counterexamples"].append(example)
    except BaseException:
        # stop the workers at once; a closed pool would still run every
        # task left in its queue
        if pool is not None:
            pool.terminate()
            pool.join()
        raise
    if pool is not None:
        pool.close()
        pool.join()
    for n, record in per_n.items():
        if record["graphs_examined"] != record["expected_count"]:
            raise InvariantViolation(
                f"generated {record['graphs_examined']} classes for n={n}, expected {record['expected_count']}")
        record["counterexamples"].sort(key=lambda rec: (rec["graph6"], rec["check"]))
    return CensusReport(config, per_n, time.perf_counter() - start)


def Pool(processes: int):
    # the census workers, each on its own pipe driven from the calling
    # thread (``_workers``); imported on the first pooled census, as only a
    # pool needs multiprocessing, and importing it costs every process about 5 ms
    from ._workers import Workers

    return Workers(processes)


def _start_pool(worker_count: int):
    # forked workers keep SIGINT ignored: a Ctrl-C reaches the whole process
    # group, and only the parent acts on it, by terminating the pool.
    # signal.signal works only in the main thread. Pool is looked up here,
    # at call time; it raises ImportError on a platform without
    # multiprocessing, OSError when a fork fails, as for want of memory or
    # process ids, and stops any workers it started before it raises
    main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN) if main else None
    try:
        return Pool(worker_count)
    except (ImportError, OSError) as exc:
        raise CapabilityError(f"cannot start a pool of {worker_count} census workers: {exc}") from None
    finally:
        if main:
            signal.signal(signal.SIGINT, previous)


def _census_batch(graphs, checks, budget: int):
    # the count of each (n, verdicts in ``checks`` order) over a batch of
    # graphs, and each counterexample record with its n
    tally, examples = {}, []
    for graph in graphs:
        n, verdicts, found = _census_task(graph, checks, budget)
        key = n, tuple(verdicts.values())
        tally[key] = tally.get(key, 0) + 1
        for example in found:
            examples.append((n, example))
    return tally, examples


def _census_task(graph: Graph, checks, budget: int, connected: bool = True):
    # (n, verdicts, counterexample records) of one graph; ``checks`` are
    # names that _validated_checks has already passed. run_census leaves
    # ``connected`` True, as its graphs are connected by construction, and
    # a connected graph is a tree exactly when it has n - 1 edges
    try:
        ev, pr = solve_families(graph, budget)
    except CapabilityError:
        return graph.n, dict.fromkeys(checks, "skip"), []
    tree = connected and graph.edge_count == graph.n - 1
    verdicts: dict[str, str] = {}
    examples = []
    for name in checks:
        if name in ("thm2", "cor_general") and not tree:
            verdicts[name] = "na"
        elif _CHECK_TABLE[name](graph, ev, pr):
            verdicts[name] = "pass"
        else:
            verdicts[name] = "fail"
            examples.append({
                "graph6": emit_graph6(graph),
                "check": name,
                "gamma_ev": ev.gamma,
                "ev_sets": [[list(e) for e in m] for m in ev.sets],
                "gamma_pr": pr.gamma,
                "pr_sets": [list(d) for d in pr.sets],
            })
    return graph.n, verdicts, examples


# --- bundled counterexample fixture ----------------------------------------


def figure1_graph() -> Graph:
    """The bundled pendant-cycle fixture: a 4-cycle, one pendant per cycle vertex."""
    from importlib import resources  # only the bundled fixture needs it

    text = resources.files("domicert").joinpath("data/figure1.edges").read_text(encoding="utf-8")
    return parse_edge_list(text)


def figure1_claims(graph: Graph, budget: int = DEFAULT_BUDGET) -> tuple[tuple[str, bool], ...]:
    """The five claims the pendant-cycle fixture is shipped to witness."""
    ev, pr = solve_families(graph, budget)
    return (
        ("gamma_ev == 2", ev.gamma == 2),
        ("exactly two minimum ev sets", len(ev.masks) == 2),
        ("gamma_pr == 4", pr.gamma == 4),
        ("exactly one minimum paired set", len(pr.masks) == 1),
        ("every ev span equals the paired set", set(ev.spans) == {pr.masks[0]}),
    )
