"""Finite graphs for contact-process simulation.

Two families are supported: periodic tori approximating the integer
lattice of a given dimension, and depth-truncated rooted regular trees.
Vertices are dense integer indices so simulation state can live in flat
arrays.  Adjacency is stored as a padded matrix ``nbr`` of shape
``(n_vertices, max_degree)``; unused slots hold the sentinel index
``n_vertices`` which simulation engines map to a phantom vertex whose
state is permanently zero.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "FiniteGraph",
    "LazyTree",
    "build_torus",
    "build_tree",
    "degree",
    "parse_graph_spec",
    "require_materialized",
    "tree_vertex_count",
]

#: Materializing more vertices than this is refused; use LazyTree instead.
MAX_MATERIALIZED_VERTICES = 2_000_000
#: Deeper trees are refused at n = 3, shallower at n >= 4: level starts take
#: about log2(n) * depth**2 / 2 bits (10.8 MB at n = 3, depth 10_000).
MAX_TREE_DEPTH = 10_000


@dataclass
class FiniteGraph:
    """Immutable simple undirected graph with padded adjacency.

    Attributes
    ----------
    n_vertices : int
        Number of vertices; valid ids are ``0 .. n_vertices - 1``.
    nbr : ndarray of int64, shape (n_vertices, max_degree)
        ``nbr[x, :deg[x]]`` are the sorted neighbours of ``x``; remaining
        slots equal ``n_vertices`` (phantom padding).
    deg : ndarray of int64, shape (n_vertices,)
        Degree of each vertex.
    kind : str
        ``"torus"``, ``"tree"`` or ``"custom"``.
    params : dict
        Construction parameters (``d``/``L`` for tori, ``n``/``depth``/
        ``root`` for trees).

    Graphs must not be mutated after construction; everything downstream
    shares them.
    """

    n_vertices: int
    nbr: np.ndarray
    deg: np.ndarray
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def adjacency(self, x: int) -> np.ndarray:
        """Sorted neighbour ids of vertex ``x``."""
        return self.nbr[x, : self.deg[x]]

    @cached_property
    def adjacency_lists(self) -> list[list[int]]:
        """``adjacency(x).tolist()`` for every ``x``, built on first use for per-event reads."""
        return [row[:k] for row, k in zip(self.nbr.tolist(), self.deg.tolist())]

    def sons_of(self, x: int) -> np.ndarray:
        """Oriented sons of tree vertex ``x``: its row without the parent."""
        if self.kind != "tree":
            raise ValueError("graph has no son orientation")
        return self.nbr[x, int(x > 0) : self.deg[x]]

    def neighbors_fn(self):
        """Return a callable ``x -> tuple of neighbour ids`` (Python ints, for set engines).

        Rows are converted on first use and cached in the callable, so its
        memory follows the vertices a set engine touches, not ``n_vertices``.
        """
        nbr, deg, rows = self.nbr, self.deg, {}

        def fn(x: int):
            row = rows.get(x)
            if row is None:
                row = rows[x] = tuple(nbr[x, : deg[x]].tolist())
            return row

        return fn

    @cached_property
    def regular_degree(self) -> int | None:
        """The common degree if every vertex has it, else ``None`` (computed once)."""
        return int(self.deg[0]) if (self.deg == self.deg[0]).all() else None

    # -- torus coordinate bijection --------------------------------------
    # index = sum_i c_i * L**i with coordinates c_i in 0..L-1 (axis 0 is the
    # least significant digit); vertex 0 is the origin.

    def torus_coord(self, idx: int) -> tuple[int, ...]:
        if self.kind != "torus":
            raise ValueError("not a torus")
        d, L = self.params["d"], self.params["L"]
        out = []
        for _ in range(d):
            out.append(idx % L)
            idx //= L
        return tuple(out)

    def torus_index(self, coord) -> int:
        if self.kind != "torus":
            raise ValueError("not a torus")
        d, L = self.params["d"], self.params["L"]
        if len(coord) != d:
            raise ValueError("coordinate dimension mismatch")
        idx = 0
        for i in reversed(range(d)):
            idx = idx * L + (coord[i] % L)
        return idx

    def validate(self) -> None:
        """Assert simplicity and symmetry (cheap exhaustive check)."""
        V = self.n_vertices
        seen = set()
        for x in range(V):
            adj = self.adjacency(x)
            if len(adj) != len(set(adj.tolist())):
                raise AssertionError(f"duplicate neighbours at {x}")
            if (adj == x).any():
                raise AssertionError(f"self-loop at {x}")
            if (adj < 0).any() or (adj >= V).any():
                raise AssertionError(f"neighbour out of range at {x}")
            for y in adj:
                seen.add((x, int(y)))
        for x, y in seen:
            if (y, x) not in seen:
                raise AssertionError(f"asymmetric edge ({x},{y})")


def build_torus(d: int, L: int) -> FiniteGraph:
    """Periodic torus (Z/L)^d with L**d vertices, all of degree 2d.

    Parameters
    ----------
    d : int
        Dimension, at least 1.  The graph degree is ``2 * d``.
    L : int
        Side length, at least 3.  ``L = 2`` would identify the two
        neighbours along an axis and create a multi-edge, so it is
        rejected.

    Returns
    -------
    FiniteGraph
        Vertex 0 is the origin; the index/coordinate bijection is
        mixed-radix with axis 0 least significant.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if L < 3:
        raise ValueError("side length L must be >= 3 (L=2 creates multi-edges)")
    V = L**d
    if V > MAX_MATERIALIZED_VERTICES:
        raise ValueError(f"torus with {V} vertices exceeds materialization limit")
    idx = np.arange(V, dtype=np.int64)
    nbr = np.empty((V, 2 * d), dtype=np.int64)
    stride = 1
    for axis in range(d):
        c = (idx // stride) % L
        up = idx + ((c + 1) % L - c) * stride
        down = idx + ((c - 1) % L - c) * stride
        nbr[:, 2 * axis] = up
        nbr[:, 2 * axis + 1] = down
        stride *= L
    nbr.sort(axis=1)
    deg = np.full(V, 2 * d, dtype=np.int64)
    return FiniteGraph(V, nbr, deg, kind="torus", params={"d": d, "L": L})


def _level_starts(n: int, depth: int, root: str) -> list[int]:
    """First id of each level ``0 .. depth`` of a level-order tree, then its vertex count."""
    if root not in ("son_only", "full_degree"):
        raise ValueError(f"unknown root variant {root!r}")
    limit = 2 * MAX_TREE_DEPTH // max(1, int(n).bit_length())  # n = 3 has 2 bits
    if depth > limit:
        raise ValueError(f"tree depth {depth} exceeds the limit {limit} for n = {n}")
    starts = [0, 1]
    width = n if root == "son_only" else n + 1
    for _ in range(depth):
        starts.append(starts[-1] + width)
        width *= n
    return starts


def tree_vertex_count(n: int, depth: int, root: str = "son_only") -> int:
    """Vertex count of the truncated tree without building it."""
    return _level_starts(n, depth, root)[-1]


def build_tree(n: int, depth: int, root: str = "son_only") -> FiniteGraph:
    """Depth-truncated rooted tree, numbered in level order.

    Parameters
    ----------
    n : int
        Branching number, at least 2: every interior non-root vertex has
        one parent and ``n`` sons.
    depth : int
        Number of edge levels below the root; ``depth = 0`` is a single
        vertex.  At most :data:`MAX_TREE_DEPTH`, less for ``n >= 4``.
    root : {"son_only", "full_degree"}
        ``"son_only"``: the root has ``n`` sons (degree ``n``), matching
        the oriented branching construction.  ``"full_degree"``: the root
        has ``n + 1`` sons so its degree equals the regular-tree degree
        ``n + 1``.

    Vertices are numbered in level order with the root at 0, and the sons
    of a vertex are consecutive ids.  Row ``x`` of ``nbr`` is therefore
    the parent (for ``x > 0``) followed by the sons, already sorted, and
    :meth:`FiniteGraph.sons_of` reads the sons from it.  Leaves at the
    truncation depth have no sons.
    """
    if n < 2:
        raise ValueError("branching number n must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    starts = _level_starts(n, depth, root)
    V = starts[-1]
    if V > MAX_MATERIALIZED_VERTICES:
        raise ValueError(
            f"tree with {V} vertices exceeds materialization limit; use LazyTree"
        )
    starts = np.array(starts, dtype=np.int64)
    child = np.arange(1, V, dtype=np.int64)
    lvl = np.repeat(np.arange(1, depth + 1), np.diff(starts[1:]))
    # the j-th vertex of level l >= 2 hangs from vertex j // n of level l - 1
    parent = np.where(lvl > 1, starts[lvl - 1] + (child - starts[lvl]) // n, 0)
    deg = np.bincount(parent, minlength=V)
    deg[1:] += 1
    nbr = np.full((V, max(int(deg.max()), 1)), V, dtype=np.int64)
    nbr[1:, 0] = parent
    # parents are nondecreasing, so siblings are a run and a son's rank is
    # its offset from the first of them
    rank = np.arange(V - 1) - np.searchsorted(parent, parent)
    nbr[parent, rank + (parent > 0)] = child
    return FiniteGraph(V, nbr, deg, kind="tree", params={"n": n, "depth": depth, "root": root})


def degree(graph: FiniteGraph, x: int) -> int:
    """Degree of vertex ``x``."""
    if not (0 <= x < graph.n_vertices):
        raise ValueError(f"vertex {x} out of range")
    return int(graph.deg[x])


def require_materialized(graph) -> None:
    """Raise ``ValueError`` unless ``graph`` is a :class:`FiniteGraph`."""
    if not isinstance(graph, FiniteGraph):
        raise ValueError(f"{type(graph).__name__} is not materialized; "
                         "use the dual estimator or a smaller graph")


class LazyTree:
    """Truncated rooted tree addressed arithmetically, never materialized.

    Shares the level-order numbering of :func:`build_tree` (``level_start``
    holds the first id of each level) but computes neighbours on demand, so
    trees with tens of millions of vertices can back set-valued processes
    that only ever touch a few thousand of them.
    """

    kind = "tree_lazy"
    regular_degree = None  # leaves have degree 1

    def __init__(self, n: int, depth: int, root: str = "son_only"):
        if n < 2:
            raise ValueError("branching number n must be >= 2")
        if depth < 1:
            raise ValueError("LazyTree needs depth >= 1")
        self.n = n
        self.depth = depth
        self.root = root
        self.level_start = _level_starts(n, depth, root)  # length depth + 2
        self.n_vertices = self.level_start[-1]
        self.params = {"n": n, "depth": depth, "root": root}

    def neighbors_fn(self):
        """Return a callable ``v -> neighbour ids``: the sons, then the parent.

        Each call returns a fresh list (the root's shared tuple aside).
        """
        starts, n, depth = self.level_start, self.n, self.depth
        root = tuple(range(1, starts[2]))

        def fn(v: int):
            if v == 0:
                return root
            lvl = bisect_right(starts, v) - 1
            j = v - starts[lvl]
            parent = starts[lvl - 1] + j // n if lvl > 1 else 0
            if lvl >= depth:
                return [parent]
            base = starts[lvl + 1] + j * n
            out = list(range(base, base + n))
            out.append(parent)
            return out

        return fn


def parse_graph_spec(spec: str):
    """Parse a graph description string.

    Formats: ``"torus:d=2,L=32"`` and ``"tree:n=3,depth=10,root=son_only"``
    (``root`` optional, ``son_only`` or ``full``), each key at most once.
    Trees too large to materialize come back as :class:`LazyTree`.
    """
    family, _, rest = spec.partition(":")
    allowed = {"torus": ("d", "L"), "tree": ("n", "depth", "root")}.get(family)
    if allowed is None:
        raise ValueError(f"unknown graph family {family!r}")
    try:
        kv = {}
        for item in filter(None, rest.split(",")):
            key, value = item.split("=")
            if key in kv or key not in allowed:
                raise ValueError(f"{'repeated' if key in kv else 'unknown'} {family} key {key!r}")
            kv[key] = value
        for key in allowed[:2]:  # a tree's root is optional
            if key not in kv:
                raise ValueError(f"missing {family} key {key!r}")
        if family == "torus":
            return build_torus(int(kv["d"]), int(kv["L"]))
        n = int(kv["n"])
        depth = int(kv["depth"])
        root = kv.get("root", "son_only")
        if root == "full":
            root = "full_degree"
        if tree_vertex_count(n, depth, root) > MAX_MATERIALIZED_VERTICES:
            return LazyTree(n, depth, root)
        return build_tree(n, depth, root)
    except ValueError as exc:
        raise ValueError(f"malformed graph spec {spec!r}: {exc}") from exc
