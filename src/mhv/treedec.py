"""Tree decompositions: validation, min-fill construction, PACE interop, nice form.

A tree decomposition of G is a tree of bags covering every vertex and edge,
with each vertex's occurrence set inducing a connected subtree.  Width is the
largest bag size minus one.  A nice decomposition is rooted with empty root
and leaf bags and only introduce/forget/join internal nodes; the dynamic
programs in this package run over nice decompositions, and both first check
theirs with ``validate_nice`` (through ``check_decomposes``).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Iterator, Mapping

from .errors import InputError, ParseError
from .graph import Graph, _as_text, reachable


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 plus tree edges between bag indices.

    ``n`` is the vertex count of the decomposed graph (needed for the PACE
    header and validation).
    """

    n: int
    bags: tuple[frozenset[int], ...]
    tree_edges: frozenset[tuple[int, int]]

    @property
    def node_count(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def neighbour_map(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class TdValidation:
    """Validation report; ``violations`` holds one message per broken property."""

    ok: bool
    violations: tuple[str, ...]


def validate_td(g: Graph, td: TreeDecomposition) -> TdValidation:
    """Check the three decomposition properties plus tree shape.

    Every violation is reported with a witness (0-indexed ids).  An
    out-of-range tree edge ends the report, after the violations found
    before it: the checks that follow walk the bag tree.
    """
    violations: list[str] = []
    b = td.node_count
    if b == 0:
        return TdValidation(False, ("decomposition has no nodes",))
    if td.n != g.n:
        violations.append(f"decomposition is for {td.n} vertices, graph has {g.n}")

    for a, c in td.tree_edges:
        if not (0 <= a < b and 0 <= c < b):
            violations.append(f"tree edge ({a}, {c}) out of range")
            return TdValidation(False, tuple(violations))

    adj = td.neighbour_map()
    reached = len(reachable(adj, 0))
    if reached != b:
        violations.append(f"bag tree is disconnected ({reached} of {b} nodes reachable)")
    if len(td.tree_edges) != b - 1:
        violations.append(
            f"bag tree has {len(td.tree_edges)} edges, a tree on {b} nodes needs {b - 1}"
        )

    # The checks below read this one index instead of scanning the bags.
    holders: dict[int, set[int]] = {}
    for t, bag in enumerate(td.bags):
        for v in bag:
            holders.setdefault(v, set()).add(t)
    for v in range(g.n):
        if v not in holders:
            violations.append(f"vertex {v} not in any bag")
            break
    stray = [v for v in holders if not 0 <= v < g.n]
    if stray:
        violations.append(f"bag contains unknown vertex {min(stray)}")

    for u, v in sorted(g.edges):
        if not any(v in td.bags[t] for t in holders.get(u, ())):
            violations.append(f"edge ({u}, {v}) not covered by any bag")
            break

    for v in range(g.n):
        occurrences = holders.get(v)
        if occurrences and reachable(adj, min(occurrences), occurrences) != occurrences:
            violations.append(f"occurrence set of vertex {v} is not connected in the bag tree")
            break

    return TdValidation(not violations, tuple(violations))


def min_fill_decompose(g: Graph, seed: int = 0) -> TreeDecomposition:
    """Build a decomposition from a greedy minimum fill-in elimination ordering.

    Each step eliminates a live vertex of least fill-in, ties broken by least
    degree and then by a seed-determined pick: ``rng.randrange`` indexes the
    tied vertices in increasing order, and is drawn only when there are two or
    more.  Disconnected graphs get one decomposition per component, joined
    through an empty connector bag.

    No step rescans the graph.  Per live vertex x the function keeps its
    degree and ``tri[x]``, the number of edges among its neighbours, so that
    ``fill(x) = C(deg x, 2) - tri[x]``; vertices wait in buckets keyed
    ``(fill, degree)``.  Eliminating v updates the counts by deltas.  Each
    fill edge (a, c) added among N(v) closes a triangle with every common
    neighbour w of a and c: ``tri[a]`` and ``tri[c]`` grow by their number and
    each ``tri[w]`` by one.  Dropping v then takes ``deg(v) - 1`` triangles and
    one degree from each u in N(v), now a clique.  Only N(v) and the common
    neighbours are re-keyed.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition(0, (frozenset(),), frozenset())
    rng = random.Random(seed)
    nb: list[set[int]] = [set(g.adjacency[v]) for v in range(n)]
    tri = [sum(len(nb[a] & nbx) for a in nbx) // 2 for nbx in nb]
    key = [(len(nbx) * (len(nbx) - 1) // 2 - tri[x], len(nbx)) for x, nbx in enumerate(nb)]
    buckets: dict[tuple[int, int], set[int]] = {}
    for x, kx in enumerate(key):
        buckets.setdefault(kx, set()).add(x)
    # Bags and the elimination order grow in lockstep: vertex order[i] has
    # bag i, its closed neighbourhood when eliminated, and pos[order[i]] = i.
    bags: list[frozenset[int]] = []
    order: list[int] = []
    pos = [0] * n

    while buckets:
        best = min(buckets)
        candidates = buckets[best]
        if len(candidates) == 1:
            v = candidates.pop()
            del buckets[best]
        else:
            v = sorted(candidates)[rng.randrange(len(candidates))]
            candidates.remove(v)

        neighbours = nb[v]
        pos[v] = len(bags)
        bags.append(frozenset(neighbours | {v}))
        order.append(v)
        touched = set(neighbours)
        nbl = sorted(neighbours)
        for i, a in enumerate(nbl):
            nba = nb[a]
            for c in nbl[i + 1 :]:
                if c not in nba:
                    nbc = nb[c]
                    common = nba & nbc
                    tri[a] += len(common)
                    tri[c] += len(common)
                    for w in common:
                        tri[w] += 1
                    touched |= common
                    nba.add(c)
                    nbc.add(a)
        lost = len(neighbours) - 1
        for u in neighbours:
            nb[u].discard(v)
            tri[u] -= lost
        touched.discard(v)
        for x in touched:
            d = len(nb[x])
            kx = (d * (d - 1) // 2 - tri[x], d)
            old = key[x]
            if kx != old:
                key[x] = kx
                bucket = buckets[old]
                bucket.remove(x)
                if not bucket:
                    del buckets[old]
                buckets.setdefault(kx, set()).add(x)

    edges: set[tuple[int, int]] = set()
    roots: list[int] = []
    for i, v in enumerate(order):
        remaining = bags[i] - {v}
        if remaining:
            # The neighbour eliminated first, after v, holds the parent bag.
            edges.add((i, min(pos[u] for u in remaining)))
        else:
            roots.append(i)
    if len(roots) > 1:
        connector = len(bags)
        bags.append(frozenset())
        for r in roots:
            edges.add((min(r, connector), max(r, connector)))
    return TreeDecomposition(n, tuple(bags), frozenset(edges))


def parse_td(text: str | bytes, g: Graph) -> TreeDecomposition:
    """Parse a PACE-2017 ``.td`` file against a graph.

    Header ``s td <#bags> <width+1> <n>``; bag lines ``b <id> <v...>``;
    remaining lines are bag-tree edges.  Bags without a line are empty.
    """
    text = _as_text(text)
    nb_bags = -1
    declared_width_plus1 = 0
    bag_lines: dict[int, frozenset[int]] = {}
    edges: set[tuple[int, int]] = set()
    for ln, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        parts = s.split()
        if parts[0] == "s":
            if nb_bags >= 0:
                raise ParseError(f"line {ln}: duplicate 's td' header")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(f"line {ln}: malformed header {s!r}")
            try:
                nb_bags, declared_width_plus1, declared_n = (
                    int(parts[2]),
                    int(parts[3]),
                    int(parts[4]),
                )
            except ValueError:
                raise ParseError(f"line {ln}: non-integer header fields") from None
            if nb_bags < 1:
                raise ParseError(f"line {ln}: need at least one bag")
            if declared_n != g.n:
                raise ParseError(
                    f"line {ln}: decomposition declares {declared_n} vertices, graph has {g.n}"
                )
        elif parts[0] == "b":
            if nb_bags < 0:
                raise ParseError(f"line {ln}: bag line before 's td' header")
            try:
                bag_id = int(parts[1])
                vertices = [int(x) for x in parts[2:]]
            except (ValueError, IndexError):
                raise ParseError(f"line {ln}: malformed bag line {s!r}") from None
            if not 1 <= bag_id <= nb_bags:
                raise ParseError(f"line {ln}: bag id {bag_id} out of range 1..{nb_bags}")
            if bag_id in bag_lines:
                raise ParseError(f"line {ln}: duplicate bag {bag_id}")
            for v in vertices:
                if not 1 <= v <= g.n:
                    raise ParseError(f"line {ln}: vertex {v} out of range 1..{g.n}")
            bag_lines[bag_id] = frozenset(v - 1 for v in vertices)
        else:
            if nb_bags < 0:
                raise ParseError(f"line {ln}: edge line before 's td' header")
            if len(parts) != 2:
                raise ParseError(f"line {ln}: malformed tree edge line {s!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {ln}: non-integer bag id") from None
            if not (1 <= a <= nb_bags and 1 <= b <= nb_bags):
                raise ParseError(f"line {ln}: bag id out of range 1..{nb_bags}")
            if a == b:
                raise ParseError(f"line {ln}: self-loop in bag tree")
            e = (min(a, b) - 1, max(a, b) - 1)
            if e in edges:
                raise ParseError(f"line {ln}: duplicate tree edge")
            edges.add(e)
    if nb_bags < 0:
        raise ParseError("missing 's td' header")
    # A tree has one edge fewer than bags; checked before the bags are built,
    # so the file's own edge lines bound what the header may declare.
    if len(edges) != nb_bags - 1:
        raise ParseError("bag-tree edges do not form a tree")
    bags = tuple(bag_lines.get(i, frozenset()) for i in range(1, nb_bags + 1))

    td = TreeDecomposition(g.n, bags, frozenset(edges))
    if len(reachable(td.neighbour_map(), 0)) != nb_bags:
        raise ParseError("bag-tree edges do not form a tree")
    actual = td.width + 1
    if actual != declared_width_plus1:
        warnings.warn(
            f"declared width+1 {declared_width_plus1} but bags give {actual}", stacklevel=2
        )
    return td


def write_td(td: TreeDecomposition) -> str:
    lines = [f"s td {td.node_count} {td.width + 1} {td.n}"]
    for i, bag in enumerate(td.bags, start=1):
        vertices = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i} {vertices}".rstrip())
    for a, b in sorted(td.tree_edges):
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


class NodeKind(IntEnum):
    LEAF = 0
    INTRODUCE = 1
    FORGET = 2
    JOIN = 3


@dataclass(frozen=True)
class NiceNode:
    kind: NodeKind
    bag: frozenset[int]
    vertex: int | None
    children: tuple[int, ...]


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted nice decomposition; nodes are stored children-before-parent.

    ``post_order`` therefore is simply ascending node index, and the root is
    the last node.  ``validate_nice`` checks that the root is last and that
    every other node has exactly one parent: ``walk`` and the beam DP, which
    takes the last result of the walk as the root's, rely on both.
    """

    n: int
    nodes: tuple[NiceNode, ...]
    root: int

    @property
    def width(self) -> int:
        return max(len(node.bag) for node in self.nodes) - 1

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def post_order(self) -> Iterator[int]:
        return iter(range(len(self.nodes)))

    def walk(self, handlers: Mapping[NodeKind, Callable[..., Any]]) -> Iterator[tuple[int, Any]]:
        """Run a bottom-up pass, yielding ``(idx, result)`` at every node.

        Nodes are visited in post-order, which is ascending index.  Node
        ``idx`` gets ``handlers[node.kind](idx, *child_results)``, the results
        in ``children`` order.  A result is dropped once its parent's handler
        returns: only the results of subtrees whose parent is still to come
        stay alive.
        """
        pending: dict[int, Any] = {}
        for idx, node in enumerate(self.nodes):
            result = handlers[node.kind](idx, *[pending.pop(c) for c in node.children])
            pending[idx] = result
            yield idx, result


@dataclass(frozen=True)
class TdStats:
    width: int
    node_count: int
    leaf_count: int
    introduce_count: int
    forget_count: int
    join_count: int


def td_stats(nice: NiceTreeDecomposition) -> TdStats:
    counts = [0, 0, 0, 0]
    for node in nice.nodes:
        counts[node.kind] += 1
    return TdStats(
        width=nice.width,
        node_count=nice.node_count,
        leaf_count=counts[NodeKind.LEAF],
        introduce_count=counts[NodeKind.INTRODUCE],
        forget_count=counts[NodeKind.FORGET],
        join_count=counts[NodeKind.JOIN],
    )


def check_decomposes(g: Graph, nice: NiceTreeDecomposition) -> None:
    """Raise InputError unless ``nice`` is a nice decomposition of ``g``."""
    if not validate_nice(g, nice).ok:
        raise InputError("decomposition does not match the graph")


def validate_nice(g: Graph, nice: NiceTreeDecomposition) -> TdValidation:
    """Check that ``nice`` is a nice decomposition of ``g`` in one pass over
    its nodes in index order; each broken rule gets one witness (0-indexed):

    - structure: a leaf has no children, an introduce or forget one, a join
      two; each child comes before its one parent; the root is the last node
      and the only one without a parent;
    - an introduce or forget names a vertex of g;
    - bags: leaf and root bags are empty, an introduce adds its vertex to its
      child's bag, a forget removes it, a join's children have its bag;
    - ``nice.n`` is ``g.n``, each vertex is forgotten once, and its
      neighbours not yet forgotten are in the bag it is forgotten from.
      Given the rules above, this holds exactly when the bags form a tree
      decomposition of g: each vertex's bags are one subtree, below the node
      that forgets it, and an edge lies in a bag exactly when its end
      forgotten later is in the bag that the other end is forgotten from.

    A structural break ends the report, after the violations found before
    it, because the other rules read the tree; a node that names no vertex
    of g is not checked further.  O(n + m) beside the bag comparisons.
    """
    nodes = nice.nodes
    if not nodes:
        return TdValidation(False, ("decomposition has no nodes",))
    found: dict[str, str] = {}  # rule -> its first witness

    def ended(message: str) -> TdValidation:
        found["structure"] = message
        return TdValidation(False, tuple(found.values()))

    last = len(nodes) - 1
    if nice.root != last:
        return ended(f"root is node {nice.root}, not the last node {last}")
    if nice.n != g.n:
        found["n"] = f"decomposition is for {nice.n} vertices, graph has {g.n}"
    # A set, not a range: its membership test is the cheaper one.
    vertices, adjacency = frozenset(range(g.n)), g.adjacency
    forget, introduce, join = NodeKind.FORGET, NodeKind.INTRODUCE, NodeKind.JOIN
    has_parent = bytearray(len(nodes))
    forgotten = bytearray(g.n)
    for i, node in enumerate(nodes):
        kind, bag, children = node.kind, node.bag, node.children
        if kind == forget or kind == introduce:
            if len(children) != 1:
                return ended(f"node {i} ({getattr(kind, 'name', kind)}) has children {children}")
            # As for a join below, without its loop: that loop cost this pass ~10%.
            c = children[0]
            if not 0 <= c < i or has_parent[c]:
                return ended(f"child {c} of node {i} is not before it or has two parents")
            has_parent[c] = 1
            u = node.vertex
            if u not in vertices:
                found.setdefault("vertex", f"node {i} names vertex {u}, not one of 0..{g.n - 1}")
                continue
            below = nodes[c].bag
            if kind == introduce:
                if u in below or u not in bag or len(bag) != len(below) + 1 or not below <= bag:
                    found.setdefault("bag", f"introduce node {i} does not add {u} to its child")
                continue
            if u in bag or u not in below or len(bag) + 1 != len(below) or not bag <= below:
                found.setdefault("bag", f"forget node {i} does not remove {u} from its child")
            if forgotten[u]:
                found.setdefault("forget", f"vertex {u} is forgotten twice, again at node {i}")
            for v in adjacency[u]:
                if not forgotten[v] and v not in below:
                    found.setdefault("edge", f"edge ({u}, {v}) is in no bag: node {i} forgets {u}")
                    break
            forgotten[u] = 1
        elif kind == join:
            if len(children) != 2:
                return ended(f"node {i} ({getattr(kind, 'name', kind)}) has children {children}")
            for c in children:
                if not 0 <= c < i or has_parent[c]:
                    return ended(f"child {c} of node {i} is not before it or has two parents")
                has_parent[c] = 1
            if nodes[children[0]].bag != bag or nodes[children[1]].bag != bag:
                found.setdefault("bag", f"join node {i} has a child with another bag")
        elif kind != NodeKind.LEAF or children:
            return ended(f"node {i} ({getattr(kind, 'name', kind)}) has children {children}")
        elif bag:
            found.setdefault("bag", f"leaf node {i} has a non-empty bag")
    orphan = has_parent.find(0)
    if orphan < last:
        return ended(f"node {orphan} is neither the root nor a child")
    if nodes[last].bag:
        found.setdefault("root", "root bag is not empty")
    unforgotten = forgotten.find(0)
    if unforgotten >= 0:
        found.setdefault("forget", f"vertex {unforgotten} is never forgotten")
    return TdValidation(not found, tuple(found.values()))


def make_nice(td: TreeDecomposition, g: Graph) -> NiceTreeDecomposition:
    """Convert a valid decomposition into nice form of no larger width.

    Bags that are subsets of a neighbouring bag are contracted first, then the
    tree is rooted and introduce/forget chains are inserted between adjacent
    bags, multi-child nodes become join cascades, leaves grow from empty bags
    and the root forgets down to an empty bag.
    """
    report = validate_td(g, td)
    if not report.ok:
        raise InputError("invalid tree decomposition: " + "; ".join(report.violations))

    bags: dict[int, frozenset[int]] = dict(enumerate(td.bags))
    adj: dict[int, set[int]] = {i: set() for i in bags}
    for a, b in td.tree_edges:
        adj[a].add(b)
        adj[b].add(a)

    changed = True
    while changed:
        changed = False
        for a in list(bags):
            if a not in bags:
                continue
            for b in list(adj[a]):
                if bags[a] <= bags[b]:
                    for other in adj[a]:
                        if other != b:
                            adj[other].discard(a)
                            adj[other].add(b)
                            adj[b].add(other)
                    adj[b].discard(a)
                    del bags[a]
                    del adj[a]
                    changed = True
                    break

    nodes: list[NiceNode] = []

    def add(kind: NodeKind, bag: frozenset[int], vertex: int | None, children: tuple[int, ...]) -> int:
        nodes.append(NiceNode(kind, bag, vertex, children))
        return len(nodes) - 1

    def chain(from_id: int, from_bag: frozenset[int], target: frozenset[int]) -> int:
        cur = from_id
        bag = set(from_bag)
        for v in sorted(from_bag - target):
            bag.remove(v)
            cur = add(NodeKind.FORGET, frozenset(bag), v, (cur,))
        for v in sorted(target - from_bag):
            bag.add(v)
            cur = add(NodeKind.INTRODUCE, frozenset(bag), v, (cur,))
        return cur

    root_bag_id = min(bags)
    # Iterative post-order over the contracted bag tree.
    order: list[tuple[int, int | None]] = []
    stack: list[tuple[int, int | None]] = [(root_bag_id, None)]
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        for child in adj[node]:
            if child != parent:
                stack.append((child, node))
    top_of: dict[int, int] = {}
    for node, parent in reversed(order):
        bag = bags[node]
        kids = [c for c in adj[node] if c != parent]
        if not kids:
            top_of[node] = chain(add(NodeKind.LEAF, frozenset(), None, ()), frozenset(), bag)
            continue
        branches = [chain(top_of[c], bags[c], bag) for c in kids]
        top = branches[0]
        for other in branches[1:]:
            top = add(NodeKind.JOIN, bag, None, (top, other))
        top_of[node] = top

    root = chain(top_of[root_bag_id], bags[root_bag_id], frozenset())
    return NiceTreeDecomposition(g.n, tuple(nodes), root)
