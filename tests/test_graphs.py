from collections import deque
from itertools import accumulate

import numpy as np
import pytest

from tocp.graphs import (
    MAX_TREE_DEPTH,
    FiniteGraph,
    LazyTree,
    build_torus,
    build_tree,
    degree,
    parse_graph_spec,
    tree_vertex_count,
)


def test_torus_smallest_cycle():
    g = build_torus(1, 4)
    assert g.n_vertices == 4
    assert (g.deg == 2).all()
    assert sorted(g.adjacency(0).tolist()) == [1, 3]


def test_torus_degree_is_2d():
    g = build_torus(2, 3)
    assert g.n_vertices == 9
    assert (g.deg == 4).all()


def test_torus_origin_neighbors_are_unit_vectors():
    # enumerate coordinates and reduce mod L
    g = build_torus(3, 5)
    assert g.n_vertices == 125
    got = {g.torus_coord(i) for i in g.adjacency(0)}
    want = set()
    for axis in range(3):
        for sgn in (1, -1):
            c = [0, 0, 0]
            c[axis] = sgn % 5
            want.add(tuple(c))
    assert got == want


def test_torus_rejects_small_side():
    with pytest.raises(ValueError):
        build_torus(2, 2)


def test_torus_coordinate_bijection():
    g = build_torus(3, 4)
    for idx in (0, 1, 17, 63):
        assert g.torus_index(g.torus_coord(idx)) == idx


def test_torus_translation_invariance():
    # relabeling every vertex by a coordinate shift maps adjacency onto itself
    g = build_torus(2, 5)
    shift = (2, 3)

    def relabel(i):
        c = g.torus_coord(i)
        return g.torus_index(tuple((a + s) % 5 for a, s in zip(c, shift)))

    for x in range(g.n_vertices):
        img = sorted(relabel(y) for y in g.adjacency(x))
        assert img == sorted(g.adjacency(relabel(x)).tolist())


@pytest.mark.parametrize("d,L", [(1, 3), (1, 8), (2, 4), (3, 3), (4, 3)])
def test_torus_simple_and_symmetric(d, L):
    build_torus(d, L).validate()


def test_tree_single_vertex():
    g = build_tree(3, 0)
    assert g.n_vertices == 1
    assert g.deg[0] == 0


def test_tree_counts():
    assert build_tree(3, 2).n_vertices == 13
    g = build_tree(4, 3, root="full_degree")
    assert g.n_vertices == 106
    assert g.deg[0] == 5


def test_tree_degrees():
    g = build_tree(3, 2)
    assert degree(g, 0) == 3
    assert degree(g, g.n_vertices - 1) == 1


@pytest.mark.parametrize("n,depth,root", [(2, 3, "son_only"), (3, 2, "son_only"), (3, 3, "full_degree")])
def test_tree_simple_and_symmetric(n, depth, root):
    build_tree(n, depth, root).validate()


def test_tree_son_orientation_partitions_vertices():
    g = build_tree(3, 3)
    seen = []
    interior = 0
    for v in range(g.n_vertices):
        s = g.sons_of(v)
        assert set(s.tolist()) <= set(g.adjacency(v).tolist())
        if len(s):
            interior += 1
            assert len(s) == 3
        seen.extend(s.tolist())
    # every non-root vertex is son of exactly one parent
    assert sorted(seen) == list(range(1, g.n_vertices))
    assert interior == tree_vertex_count(3, 2)


def bfs_tree(n, depth, root):
    """Independent oracle: hand out ids from a breadth-first queue, then pad
    sorted rows with the phantom id as ``build_tree`` stores them."""
    adj = [[]]
    queue = deque([(0, 0)])
    while queue:
        v, level = queue.popleft()
        if level == depth:
            continue
        for _ in range(n + 1 if v == 0 and root == "full_degree" else n):
            w = len(adj)
            adj.append([v])
            adj[v].append(w)
            queue.append((w, level + 1))
    V = len(adj)
    nbr = np.full((V, max(max(map(len, adj)), 1)), V, dtype=np.int64)
    for v, row in enumerate(adj):
        nbr[v, : len(row)] = sorted(row)
    deg = np.array([len(row) for row in adj], dtype=np.int64)
    sons = [[w for w in row if w > v] for v, row in enumerate(adj)]
    return nbr, deg, sons


@pytest.mark.parametrize("n,depth,root", [
    (2, 0, "son_only"), (2, 1, "son_only"), (3, 1, "full_degree"),
    (3, 4, "son_only"), (4, 3, "full_degree"), (2, 7, "son_only"),
])
def test_tree_numbering_matches_breadth_first_oracle(n, depth, root):
    g = build_tree(n, depth, root)
    nbr, deg, sons = bfs_tree(n, depth, root)
    assert g.nbr.dtype == nbr.dtype and g.deg.dtype == deg.dtype
    np.testing.assert_array_equal(g.nbr, nbr)
    np.testing.assert_array_equal(g.deg, deg)
    assert [g.sons_of(v).tolist() for v in range(g.n_vertices)] == sons
    assert tree_vertex_count(n, depth, root) == g.n_vertices


def test_sons_of_needs_a_tree():
    with pytest.raises(ValueError, match="son orientation"):
        build_torus(1, 4).sons_of(0)


@pytest.mark.parametrize("depth", [5, 20])  # materialized, then lazy
def test_tree_spec_rejects_unknown_root(depth):
    with pytest.raises(ValueError, match="unknown root variant 'typo'"):
        parse_graph_spec(f"tree:n=3,depth={depth},root=typo")


@pytest.mark.parametrize("make", [LazyTree, build_tree, tree_vertex_count])
def test_unknown_root_is_rejected(make):
    with pytest.raises(ValueError, match="unknown root variant 'nonsense'"):
        make(3, 5, "nonsense")


def test_build_tree_refuses_a_huge_tree_before_allocating():
    # (3**41 - 1) / 2 vertices overflow int64; the size check must come first
    with pytest.raises(ValueError, match="exceeds materialization limit; use LazyTree"):
        build_tree(3, 40)


@pytest.mark.parametrize("make", [LazyTree, build_tree, tree_vertex_count])
def test_tree_depth_is_capped(make):
    with pytest.raises(ValueError, match=f"exceeds the limit {MAX_TREE_DEPTH}"):
        make(3, MAX_TREE_DEPTH + 1)


def test_tree_depth_limit_shrinks_with_the_branching_number():
    # level starts take about log2(n) * depth**2 / 2 bits: the depth limit
    # is 2 * MAX_TREE_DEPTH // n.bit_length(), as at n = 3
    assert LazyTree(10**6, 1000).level_start[-1] == tree_vertex_count(10**6, 1000)
    for n, depth in ((10**6, 1001), (10**6, 2000), (10**18, 2000), (4, 6667)):
        for make in (LazyTree, build_tree, tree_vertex_count):
            with pytest.raises(ValueError, match=f"exceeds the limit {20000 // n.bit_length()}"):
                make(n, depth)
    assert LazyTree(2, MAX_TREE_DEPTH).depth == MAX_TREE_DEPTH


def test_tree_spec_depth_is_capped():
    # a depth of a million would ask for about 100 GB of level starts
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_graph_spec("tree:n=3,depth=1000000")
    assert LazyTree(3, MAX_TREE_DEPTH).n_vertices == tree_vertex_count(3, MAX_TREE_DEPTH)


def test_degree_rejects_bad_vertex():
    g = build_torus(1, 4)
    with pytest.raises(ValueError):
        degree(g, 99)


def test_parse_graph_spec():
    g = parse_graph_spec("torus:d=2,L=4")
    assert isinstance(g, FiniteGraph) and g.params == {"d": 2, "L": 4}
    t = parse_graph_spec("tree:n=3,depth=2,root=son_only")
    assert t.params["root"] == "son_only"
    big = parse_graph_spec("tree:n=4,depth=12")
    assert isinstance(big, LazyTree)
    with pytest.raises(ValueError):
        parse_graph_spec("ring:n=3")
    with pytest.raises(ValueError):
        parse_graph_spec("torus")


def test_lazy_tree_matches_materialized():
    lz = LazyTree(3, 4)
    g = build_tree(3, 4)
    assert lz.n_vertices == g.n_vertices
    nf = lz.neighbors_fn()
    for v in (0, 1, 5, 40, g.n_vertices - 1):
        assert sorted(nf(v)) == sorted(g.adjacency(v).tolist())


def test_lazy_tree_full_root():
    lz = LazyTree(4, 3, root="full_degree")
    g = build_tree(4, 3, root="full_degree")
    assert lz.n_vertices == g.n_vertices == 106
    nf = lz.neighbors_fn()
    for v in (0, 1, 7, 105):
        assert sorted(nf(v)) == sorted(g.adjacency(v).tolist())


@pytest.mark.parametrize("root", ["son_only", "full_degree"])
def test_lazy_tree_neighbours_on_every_vertex(root):
    g = build_tree(3, 5, root)
    lz = LazyTree(3, 5, root)
    nf = lz.neighbors_fn()
    widths = [1] + [int(g.deg[0]) * 3**k for k in range(5)]
    assert lz.level_start == list(accumulate(widths, initial=0))
    for v in range(g.n_vertices):
        got = nf(v)
        assert all(type(y) is int for y in got)
        assert len(got) == g.deg[v] and set(got) == set(g.adjacency(v).tolist())
        sons = g.sons_of(v).tolist()
        assert list(got[: len(sons)]) == sons  # sons first, in order
        if v:
            assert got[-1] == g.nbr[v, 0]  # then the parent


def test_lazy_tree_neighbour_rows_are_not_shared():
    nf = LazyTree(2, 4).neighbors_fn()
    for v in (0, 1, 5, 30):
        first = nf(v)
        if isinstance(first, list):
            first.append(-1)
        assert -1 not in nf(v)


@pytest.mark.parametrize("graph", [build_torus(2, 4), build_tree(2, 3)], ids=["torus", "tree"])
def test_neighbors_fn_returns_python_ints(graph):
    nf = graph.neighbors_fn()
    for x in range(graph.n_vertices):
        row = nf(x)
        assert all(type(y) is int for y in row)
        assert list(row) == graph.adjacency(x).tolist()
        assert nf(x) == row
