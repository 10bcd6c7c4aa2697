"""Graphs, colourings and instance I/O for the Maximum Happy Vertices problem.

A vertex is happy under a full colouring when every neighbour shares its
colour; isolated vertices are happy because the condition is vacuous.
Vertices are 0-indexed in memory.  The file formats are 1-indexed (PACE
convention) and the parsers/writers convert at the boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Sequence

from .errors import InputError, ParseError, ResourceLimitError

MAX_COLOURS = 255  # colours are stored in byte arrays internally
# The most vertices a .gr header may declare.  A graph holds a list per
# vertex, so the check comes before any is built: a file of a few bytes
# cannot make the parser allocate gigabytes.
MAX_VERTICES = 1_000_000


class Graph:
    """Immutable undirected simple graph with adjacency lists.

    Duplicate edges are collapsed; self-loops are rejected because happiness
    of a self-looped vertex is not well defined.
    """

    __slots__ = ("n", "edges", "adjacency", "degrees", "max_degree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise InputError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = frozenset(seen)
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self.degrees = tuple(len(a) for a in self.adjacency)
        self.max_degree = max(self.degrees, default=0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class PartialColouring:
    """Partial assignment of colours 1..k to vertices (0-indexed keys).

    Vertices absent from ``assignment`` are uncoloured.
    """

    k: int
    assignment: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("number of colours must be at least 1")
        if self.k > MAX_COLOURS:
            raise InputError(f"at most {MAX_COLOURS} colours are supported")
        frozen = dict(self.assignment)
        for v, col in frozen.items():
            if v < 0:
                raise InputError(f"negative vertex id {v}")
            if not 1 <= col <= self.k:
                raise InputError(f"colour {col} for vertex {v} outside 1..{self.k}")
        object.__setattr__(self, "assignment", frozen)

    def colour_of(self, v: int) -> int:
        """Colour of v, or 0 if uncoloured."""
        return self.assignment.get(v, 0)

    def as_array(self, n: int) -> bytes:
        """Colours as a byte array of length n with 0 marking uncoloured."""
        arr = bytearray(n)
        for v, col in self.assignment.items():
            if v >= n:
                raise InputError(f"coloured vertex {v} not in graph of {n} vertices")
            arr[v] = col
        return bytes(arr)

    def colours_used(self) -> frozenset[int]:
        return frozenset(self.assignment.values())

    def coloured_count(self) -> int:
        return len(self.assignment)


@dataclass(frozen=True)
class FullColouring:
    """Total assignment of colours 1..k; ``colours[v]`` is the colour of v."""

    k: int
    colours: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("number of colours must be at least 1")
        for v, col in enumerate(self.colours):
            if not 1 <= col <= self.k:
                raise InputError(f"colour {col} for vertex {v} outside 1..{self.k}")

    def colour_of(self, v: int) -> int:
        return self.colours[v]

    def extends(self, partial: PartialColouring) -> bool:
        """True when this colouring agrees with every assigned vertex of partial."""
        return all(self.colours[v] == col for v, col in partial.assignment.items())


@dataclass(frozen=True)
class Instance:
    """A graph together with the initial partial colouring."""

    graph: Graph
    colouring: PartialColouring

    def __post_init__(self) -> None:
        self.colouring.as_array(self.graph.n)  # raises InputError on a vertex outside the graph


def is_happy(g: Graph, col: FullColouring, v: int) -> bool:
    """True iff every neighbour of v shares v's colour."""
    cv = col.colours[v]
    return all(col.colours[u] == cv for u in g.adjacency[v])


def count_happy(g: Graph, col: FullColouring) -> int:
    """Number of happy vertices under a full colouring."""
    colours = col.colours
    adjacency = g.adjacency
    happy = 0
    for v in range(g.n):
        cv = colours[v]
        for u in adjacency[v]:
            if colours[u] != cv:
                break
        else:
            happy += 1
    return happy


def precoloured_evidence(g: Graph, colouring: PartialColouring) -> tuple[int, ...]:
    """Per vertex, the colour its precoloured neighbours agree on: 0 when it
    has none, -1 when they disagree.  A vertex can be happy only in that
    colour, or in any colour when it is 0."""
    base = colouring.as_array(g.n)
    return tuple(
        -1 if len(seen) > 1 else max(seen, default=0)
        for seen in ({base[u] for u in nbrs} - {0} for nbrs in g.adjacency)
    )


def happy_fraction(g: Graph, col: FullColouring) -> float:
    """count_happy as a fraction of the vertex count (1.0 for the empty graph)."""
    if g.n == 0:
        return 1.0
    return count_happy(g, col) / g.n


def _as_text(text: str | bytes) -> str:
    """A parser's input as text; bytes that are not UTF-8 are a parse error."""
    if isinstance(text, str):
        return text
    try:
        return text.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None


def parse_graph(text: str | bytes) -> Graph:
    """Parse a PACE-2017 style ``.gr`` file.

    Format: comment lines start with ``c``; one header ``p tw <n> <m>``;
    then exactly m lines ``<u> <v>`` with 1-indexed endpoints.  Duplicate
    edges are collapsed with a warning; self-loops are rejected.  A header
    declaring more than ``MAX_VERTICES`` vertices raises
    ``ResourceLimitError``.
    """
    text = _as_text(text)
    n = m = -1
    edges: list[tuple[int, int]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        parts = s.split()
        if parts[0] == "p":
            if n >= 0:
                raise ParseError(f"line {ln}: duplicate 'p' header")
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError(f"line {ln}: malformed header {s!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {ln}: non-integer counts in header") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {ln}: negative counts in header")
            if n > MAX_VERTICES:
                raise ResourceLimitError(
                    f"line {ln}: header declares {n} vertices, above the limit of {MAX_VERTICES}"
                )
        else:
            if n < 0:
                raise ParseError(f"line {ln}: edge line before 'p tw' header")
            if len(parts) != 2:
                raise ParseError(f"line {ln}: malformed edge line {s!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {ln}: non-integer vertex id") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {ln}: vertex id out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {ln}: self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
    if n < 0:
        raise ParseError("missing 'p tw' header")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but file contains {len(edges)}")
    g = Graph(n, edges)
    if len(g.edges) < m:
        warnings.warn(f"{m - len(g.edges)} duplicate edge line(s) collapsed", stacklevel=2)
    return g


def write_graph(g: Graph) -> str:
    """Serialize to the ``.gr`` format; edges in ascending order, 1-indexed."""
    lines = [f"p tw {g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_colouring(text: str | bytes, g: Graph) -> PartialColouring:
    """Parse a ``.col`` partial colouring file against a graph.

    Format: comment lines start with ``c``; one header ``k <k>``; then lines
    ``<vertex> <colour>`` with 1-indexed vertices and colours in 1..k.
    """
    text = _as_text(text)
    k = -1
    assignment: dict[int, int] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        parts = s.split()
        if parts[0] == "k":
            if k >= 0:
                raise ParseError(f"line {ln}: duplicate 'k' header")
            if len(parts) != 2:
                raise ParseError(f"line {ln}: malformed header {s!r}")
            try:
                k = int(parts[1])
            except ValueError:
                raise ParseError(f"line {ln}: non-integer colour count") from None
            if k < 1:
                raise ParseError(f"line {ln}: colour count must be positive")
        else:
            if k < 0:
                raise ParseError(f"line {ln}: assignment before 'k' header")
            if len(parts) != 2:
                raise ParseError(f"line {ln}: malformed assignment line {s!r}")
            try:
                v, col = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {ln}: non-integer assignment") from None
            if not 1 <= v <= g.n:
                raise ParseError(f"line {ln}: unknown vertex {v}")
            if not 1 <= col <= k:
                raise ParseError(f"line {ln}: colour {col} out of range 1..{k}")
            if v - 1 in assignment:
                raise ParseError(f"line {ln}: duplicate assignment for vertex {v}")
            assignment[v - 1] = col
    if k < 0:
        raise ParseError("missing 'k' header")
    return PartialColouring(k, assignment)


def write_colouring(col: PartialColouring) -> str:
    lines = [f"k {col.k}"]
    for v in sorted(col.assignment):
        lines.append(f"{v + 1} {col.assignment[v]}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class InstanceReport:
    """Outcome of validate_instance; informational, never an exception."""

    n_vertices: int
    n_edges: int
    k: int
    n_coloured: int
    missing_colours: tuple[int, ...]
    connected: bool
    n_components: int
    notes: tuple[str, ...]


def validate_instance(inst: Instance) -> InstanceReport:
    """Report structural facts a solver run would care about; every solver
    runs on any instance."""
    g, col = inst.graph, inst.colouring
    used = col.colours_used()
    missing = tuple(c for c in range(1, col.k + 1) if c not in used)
    notes: list[str] = []
    if missing:
        classes = ",".join(str(c) for c in missing)
        notes.append(f"colour classes {classes} empty")
    if not col.assignment:
        notes.append("no vertices precoloured")
    n_components = _count_components(g)
    connected = n_components <= 1
    if not connected:
        notes.append(f"graph has {n_components} connected components")
    return InstanceReport(
        n_vertices=g.n,
        n_edges=len(g.edges),
        k=col.k,
        n_coloured=col.coloured_count(),
        missing_colours=missing,
        connected=connected,
        n_components=n_components,
        notes=tuple(notes),
    )


def _count_components(g: Graph) -> int:
    seen: set[int] = set()
    components = 0
    for start in range(g.n):
        if start not in seen:
            components += 1
            seen |= reachable(g.adjacency, start)
    return components


def reachable(
    adj: Sequence[Iterable[int]], start: int, allowed: Container[int] | None = None
) -> set[int]:
    """Nodes reachable from ``start`` in the adjacency lists ``adj``.

    The walk passes only through ``allowed`` nodes, or through any node when
    ``allowed`` is None; ``start`` itself is always included.
    """
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen and (allowed is None or y in allowed):
                seen.add(y)
                stack.append(y)
    return seen


def floor_fraction(q: float, n: int) -> int:
    """floor(q*n) with a tiny guard against float rounding below an integer."""
    return math.floor(q * n + 1e-9)
