"""Small directed graphs used as structure graphs and as element payloads."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Graph:
    """A finite directed graph with named nodes.

    Nodes and edges are stored as tuples so graphs are hashable and compare
    structurally; :meth:`canonical` reorders them deterministically.
    """

    nodes: tuple[str, ...] = ()
    edges: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValueError("duplicate node names in graph")
        for src, dst in self.edges:
            if src not in known or dst not in known:
                raise ValueError(f"edge ({src!r}, {dst!r}) references unknown node")

    def canonical(self) -> "Graph":
        return Graph(tuple(sorted(self.nodes)), tuple(sorted(self.edges)))


def is_chain(graph: Graph) -> bool:
    """True iff the graph is one directed line: n1 -> n2 -> ... -> nk.

    A single node with no edges counts (a one-brick chain); so does the empty
    graph, vacuously.  Forks, joins, cycles, repeated edges, and disconnected
    node sets all fail.  Decided by walking from the unique source node and
    requiring the walk to cover every node and edge exactly once.
    """
    if not graph.nodes:
        return True
    if len(set(graph.edges)) != len(graph.edges):
        return False
    if len(graph.edges) != len(graph.nodes) - 1:
        return False
    out: dict[str, str] = {}
    indeg: dict[str, int] = {n: 0 for n in graph.nodes}
    for src, dst in graph.edges:
        if src in out:  # out-degree 2
            return False
        out[src] = dst
        indeg[dst] += 1
        if indeg[dst] > 1:
            return False
    # n - 1 edges and every in-degree at most 1: exactly one node has none.
    node = next(n for n in graph.nodes if indeg[n] == 0)
    seen = 1
    while node in out:
        node = out[node]
        seen += 1
    return seen == len(graph.nodes)


def line_graph(node_names: list[str] | tuple[str, ...]) -> Graph:
    """The chain graph n1 -> n2 -> ... -> nk over the given node names."""
    names = tuple(node_names)
    return Graph(names, tuple(zip(names[:-1], names[1:])))
