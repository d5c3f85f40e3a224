"""Instance constructions: graphic matroids, cliques, uniform matroids,
projective geometries, a small zoo of named high-girth graphs, and seeded
random matroids for property suites.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .gf import FieldSpec, field_from_order
from .gfmatrix import GFMatrix, _header_fields
from .matroid import RepMatroid, dual


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph on vertices 0..n-1; loops and parallels allowed."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside vertex range [0,{self.n})")


def _edge_labels(edges: Sequence[tuple[int, int]]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for u, v in edges:
        a, b = min(u, v), max(u, v)
        base = f"{a}-{b}"
        k = seen.get(base, 0)
        seen[base] = k + 1
        out.append(base if k == 0 else f"{base}#{k + 1}")
    return out


def graphic(g: Graph, f: FieldSpec) -> RepMatroid:
    """Signed incidence matrix: edge (u,v) with u < v gets +1 at u and -1 at v.

    Rows are the vertices with a non-loop edge, in vertex order; any other
    vertex would give a zero row, so the matrix size follows the edges, not
    g.n.  Over GF(2) the signs collapse; loops become zero columns.  Edges
    are labelled "u-v" (with "#k" suffixes for parallel copies).
    """
    touched = sorted({x for u, v in g.edges if u != v for x in (u, v)})
    row_of = {x: i for i, x in enumerate(touched)}
    cols = []
    neg_one = f.neg(1)
    for u, v in g.edges:
        col = [0] * len(row_of)
        if u != v:
            col[row_of[min(u, v)]] = 1
            col[row_of[max(u, v)]] = neg_one
        cols.append(tuple(col))
    return RepMatroid(f, GFMatrix.from_cols(f, cols, len(row_of)), _edge_labels(g.edges))


def complete_graph(t: int) -> Graph:
    return Graph(t, tuple((u, v) for u in range(t) for v in range(u + 1, t)))


def _check_entries(rank: int, elements: int) -> None:
    """Refuse, before anything is built, more than 10^6 elements (the bound
    `pg` uses), as each costs a label and an index entry at any rank, or a
    matrix of more than 10^7 entries (rank x elements)."""
    if elements > 10**6:
        count = f"{elements} elements"
    elif rank * elements > 10**7:
        count = f"{rank * elements} entries"
    else:
        return
    raise ValueError(f"a {rank} x {elements} matrix ({count}) exceeds the 10^7 entry guard"
                     " (at most 10^7 entries and 10^6 elements)")


def clique(t: int, f: FieldSpec, dualize: bool = False) -> RepMatroid:
    """M(K_t), or its dual when `dualize` is set."""
    if t < 2:
        raise ValueError(f"clique needs t >= 2, got {t}")
    n = t * (t - 1) // 2
    _check_entries(n - (t - 1) if dualize else t - 1, n)
    m = graphic(complete_graph(t), f)
    return dual(m) if dualize else m


def uniform(t: int, n: int, f: FieldSpec) -> RepMatroid:
    """U_{t,n} via moments of distinct scalars, plus a point at infinity.

    The moments give at most q + 1 columns.  Past that, U_{n-1,n} and
    U_{n,n} are built as the duals of U_{1,n} and U_{0,n}, and any other
    request is an error rather than a silent field change, even where
    GF(q) represents U_{t,n}: U_{3,6} over GF(4), a hyperoval, is refused.
    """
    if not 0 <= t <= n:
        raise ValueError(f"uniform needs 0 <= t <= n, got t={t}, n={n}")
    _check_entries(t, n)
    labels = [f"e{j}" for j in range(n)]
    if t == 0:
        return RepMatroid(f, GFMatrix.zeros(f, 0, n), labels)
    if t == 1:
        return RepMatroid(f, GFMatrix.from_cols(f, [(1,)] * n, 1), labels)
    if f.q < n - 1:
        if t >= n - 1:
            return dual(uniform(n - t, n, f))
        raise ValueError(
            f"U_{{{t},{n}}} needs q >= {n - 1}, got GF({f.q})"
        )
    cols = []
    for x in range(min(n, f.q)):
        cols.append(tuple(f.pow(x, i) for i in range(t)))
    if len(cols) < n:  # n == q + 1: one extra point at infinity
        cols.append(tuple(0 if i < t - 1 else 1 for i in range(t)))
    return RepMatroid(f, GFMatrix.from_cols(f, cols, t), labels)


def projective_geometry(r: int, f: FieldSpec) -> RepMatroid:
    """PG(r-1, q): one column per projective point of GF(q)^r.

    Columns are the lexicographically least representatives (first nonzero
    coordinate scaled to 1), in lexicographic order.
    """
    if r < 1:
        raise ValueError(f"projective geometry needs rank >= 1, got {r}")
    if f.q**r > 10**6:
        raise ValueError(f"q^r = {f.q ** r} exceeds the 10^6 enumeration guard")
    # each nonzero vector that is its own normal form, once per class
    cols = [v for v in itertools.product(range(f.q), repeat=r) if f.normalize(v) == v]
    labels = [f"e{j}" for j in range(len(cols))]
    return RepMatroid(f, GFMatrix.from_cols(f, cols, r), labels)


# -- named graphs ---------------------------------------------------------------


def _lcf(n: int, jumps: Sequence[int], reps: int) -> Graph:
    edges = {frozenset((i, (i + 1) % n)) for i in range(n)}
    seq = list(jumps) * reps
    for i, d in enumerate(seq):
        edges.add(frozenset((i, (i + d) % n)))
    return Graph(n, tuple(sorted((min(e), max(e)) for e in edges)))


def _petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return Graph(10, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))


def _cube() -> Graph:
    edges = []
    for u in range(8):
        for b in range(3):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v))
    return Graph(8, tuple(sorted(edges)))


# id -> (factory, graph girth, edge connectivity)
_NAMED_GRAPHS = {
    "k3": (lambda: complete_graph(3), 3, 2),
    "k4": (lambda: complete_graph(4), 3, 3),
    "k5": (lambda: complete_graph(5), 3, 4),
    "petersen": (_petersen, 5, 3),
    "heawood": (lambda: _lcf(14, [5, -5], 7), 6, 3),
    "mcgee": (lambda: _lcf(24, [12, 7, -7], 8), 7, 3),
    "cube": (_cube, 4, 3),
}


def named_graph(graph_id: str) -> Graph:
    try:
        factory, _, _ = _NAMED_GRAPHS[graph_id]
    except KeyError:
        raise ValueError(
            f"unknown graph id {graph_id!r}; known: {sorted(_NAMED_GRAPHS)}"
        ) from None
    return factory()


def named_graph_info(graph_id: str) -> tuple[int, int]:
    """(girth, edge connectivity) metadata for a named graph."""
    _, g, c = _NAMED_GRAPHS[graph_id]
    return g, c


def random_matroid(rank: int, elements: int, f: FieldSpec, seed: int) -> RepMatroid:
    """Seeded uniform random matrix, redrawn up to 64 times until it has the
    requested rank."""
    if rank > elements:
        raise ValueError(f"rank {rank} exceeds element count {elements}")
    rng = random.Random(seed)
    labels = [f"e{j}" for j in range(elements)]
    for _ in range(64):
        rows = [[rng.randrange(f.q) for _ in range(elements)] for _ in range(rank)]
        m = RepMatroid(f, GFMatrix(f, rows, elements), labels)
        if m.rank == rank:
            return m
    raise ValueError(
        f"no rank-{rank} matrix over GF({f.q}) with {elements} columns after 64 draws"
    )


# -- graph text format and instance ids --------------------------------------------


def parse_graph(text: str) -> Graph:
    """Read the graph text format; blank lines are skipped, and every error
    names the line it is on."""
    lines = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty input, expected `graph` header")
    at, head = lines[0]
    if head[0] != "graph":
        raise ValueError(f"line {at}: expected `graph` header, got {head[0]!r}")
    fields = _header_fields(head[1:], at, ValueError)
    try:
        n = int(fields["n"])
        m = int(fields["m"])
    except (KeyError, ValueError):
        raise ValueError(f"line {at}: header needs integer n= and m=") from None
    if n < 0 or m < 0:
        raise ValueError(f"line {at}: n= and m= must be >= 0, got {n} and {m}")
    if len(lines) - 1 != m:
        raise ValueError(f"line {at}: expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for i, parts in lines[1:]:
        try:
            u, v = map(int, parts)
        except ValueError:
            raise ValueError(f"line {i}: expected integers `u v`, got {' '.join(parts)!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {i}: edge ({u},{v}) outside vertex range [0,{n})")
        edges.append((u, v))
    return Graph(n, tuple(edges))


def format_graph(g: Graph) -> str:
    out = [f"graph n={g.n} m={len(g.edges)}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


_MK_RE = re.compile(r"^mk(\d+)(_dual)?$")
_PG_RE = re.compile(r"^pg_(\d+)_(\d+)$")
_U_RE = re.compile(r"^u_(\d+)_(\d+)$")


def split_field_suffix(source: str, field: Optional[FieldSpec]) -> tuple[str, Optional[FieldSpec]]:
    """Split `<base>@gf<q>` into the base and GF(q), or `field` when there is
    no suffix; a suffix and `field` must agree when both are given."""
    base, sep, suffix = source.partition("@gf")
    if not sep:
        return base, field
    try:
        named = field_from_order(int(suffix))
    except ValueError as exc:
        raise ValueError(f"bad field suffix '@gf{suffix}' in {source!r}: {exc}") from None
    if field is not None and named != field:
        raise ValueError(
            f"{source!r}: suffix @gf{named.q} is {named}, which conflicts with field {field}"
        )
    return base, named


def from_id(instance_id: str, default_field: Optional[FieldSpec] = None) -> RepMatroid:
    """Resolve a generator id like mk4, mk5_dual, pg_2_2, u_2_4@gf5, petersen@gf2.

    An `@gf<q>` suffix and `default_field` must agree when both are given;
    `pg_<d>_<q>` is built over that field when its order is q.
    """
    base, field = split_field_suffix(instance_id, default_field)

    mk = _MK_RE.match(base)
    if mk:
        return clique(int(mk.group(1)), field or field_from_order(2),
                      dualize=mk.group(2) is not None)
    pg = _PG_RE.match(base)
    if pg:
        dim, q = int(pg.group(1)), int(pg.group(2))
        if field is not None and field.q != q:
            raise ValueError(f"{instance_id!r}: field {field} conflicts with pg order {q}")
        return projective_geometry(dim + 1, field or field_from_order(q))
    um = _U_RE.match(base)
    if um:
        if field is None:
            raise ValueError(f"{instance_id!r}: uniform matroids need a field (use @gf<q>)")
        return uniform(int(um.group(1)), int(um.group(2)), field)
    if base in _NAMED_GRAPHS:
        return graphic(named_graph(base), field or field_from_order(2))
    raise ValueError(f"unknown generator id {instance_id!r}")
