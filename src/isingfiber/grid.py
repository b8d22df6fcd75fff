"""Binary tables on the open m x n lattice and the test statistics computed on them.

Tables are stored row-major ("raster" order). Adjacency is 4-neighbor with no
wraparound, so the grid graph has 2*m*n - m - n edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


_BITS = frozenset((0, 1))


class ParseError(ValueError):
    """Raised when a table text cannot be parsed."""


@dataclass(frozen=True)
class BinaryTable:
    """A fully observed 0-1 table; immutable after construction."""

    rows: int
    cols: int
    cells: tuple[int, ...]  # row-major, length rows*cols

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"table shape must be positive, got {self.rows}x{self.cols}")
        if len(self.cells) != self.rows * self.cols:
            raise ValueError(
                f"cell count {len(self.cells)} does not match shape {self.rows}x{self.cols}"
            )
        try:
            bits = _BITS.issuperset(self.cells)
        except TypeError:  # an unhashable value: compare value by value
            bits = all(v in (0, 1) for v in self.cells)
        if not bits:
            raise ValueError("cells must be 0 or 1")

    @classmethod
    def from_rows(cls, data) -> "BinaryTable":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        cells = tuple(v for row in data for v in row)
        return cls(rows, cols, cells)

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.cells[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        n = self.cols
        return [list(self.cells[i * n : (i + 1) * n]) for i in range(self.rows)]

    def transpose(self) -> "BinaryTable":
        return BinaryTable(
            self.cols,
            self.rows,
            tuple(self.cells[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def complement(self) -> "BinaryTable":
        return BinaryTable(self.rows, self.cols, tuple(1 - v for v in self.cells))


@dataclass(frozen=True)
class SuffStats:
    """The conditioning pair (t1, t2): count of ones and of discordant adjacent pairs."""

    t1: int
    t2: int

    def __post_init__(self):
        if self.t1 < 0 or self.t2 < 0:
            raise ValueError(f"sufficient statistics must be nonnegative, got {self}")

    def validate_for(self, rows: int, cols: int) -> None:
        """Check the shape and the ranges it sets; raises ValueError if violated."""
        topo = topology(rows, cols)  # checks the shape first
        n_cells, n_edges = topo.n_cells, topo.n_edges
        if self.t1 > n_cells:
            raise ValueError(f"t1={self.t1} exceeds cell count {n_cells}")
        if self.t2 > n_edges:
            raise ValueError(f"t2={self.t2} exceeds edge count {n_edges}")
        if self.t1 in (0, n_cells) and self.t2 != 0:
            raise ValueError(f"constant table forces t2=0, got t2={self.t2}")

    @classmethod
    def of(cls, table: BinaryTable) -> "SuffStats":
        return cls(t1(table), t2(table))


class GridTopology:
    """Precomputed structure of the open m x n grid graph.

    Cells are indexed in raster order. Edges are enumerated horizontals first
    (row by row), then verticals (row by row); this order is shared by every
    module that vectorizes over edges.
    """

    def __init__(self, rows: int, cols: int):
        check_shape(rows, cols)
        self.rows = rows
        self.cols = cols
        self.n_cells = rows * cols
        # the endpoints of each edge, lower raster index first, as intp arrays
        # for numpy and as the pairs of Python ints in `edges`
        cell = np.arange(self.n_cells, dtype=np.intp).reshape(rows, cols)
        self.edge_lo = np.concatenate((cell[:, :-1].ravel(), cell[:-1, :].ravel()))
        self.edge_hi = np.concatenate((cell[:, 1:].ravel(), cell[1:, :].ravel()))
        self.edges = list(zip(self.edge_lo.tolist(), self.edge_hi.tolist()))
        self.n_edges = len(self.edges)

        # unit squares as (top, right, bottom, left) edge indices, a 4-cycle:
        # horizontal (i, j) is edge i*(cols-1) + j, vertical (i, j) is edge
        # rows*(cols-1) + i*cols + j
        h, v = cols - 1, rows * (cols - 1)
        self.squares: list[tuple[int, int, int, int]] = [
            (i * h + j, v + i * cols + j + 1, (i + 1) * h + j, v + i * cols + j)
            for i in range(rows - 1)
            for j in range(cols - 1)
        ]

        # raster-order incremental structure: for cell k, the already-determined
        # neighbors are up/left and the not-yet-determined ones are right/down
        self.up: list[int] = []
        self.left: list[int] = []
        self.fwd_degree: list[int] = []  # number of right/down neighbors
        self.neighbors: list[tuple[int, ...]] = []
        for k in range(self.n_cells):
            i, j = divmod(k, cols)
            self.up.append(k - cols if i > 0 else -1)
            self.left.append(k - 1 if j > 0 else -1)
            self.fwd_degree.append((1 if j + 1 < cols else 0) + (1 if i + 1 < rows else 0))
            nbrs = []
            if i > 0:
                nbrs.append(k - cols)
            if j > 0:
                nbrs.append(k - 1)
            if j + 1 < cols:
                nbrs.append(k + 1)
            if i + 1 < rows:
                nbrs.append(k + cols)
            self.neighbors.append(tuple(nbrs))

        # suffix degree counts: suffix_deg[d][i] = number of cells >= i with degree d,
        # used to bound how much discord the remaining ones can still create and
        # to place a last one past the determined cells' neighbours
        degs = [len(nb) for nb in self.neighbors]
        self.suffix_deg = [[0] * (self.n_cells + 1) for _ in range(5)]
        for i in range(self.n_cells - 1, -1, -1):
            for d in range(5):
                self.suffix_deg[d][i] = self.suffix_deg[d][i + 1]
            self.suffix_deg[degs[i]][i] += 1

        # edge counts by raster-prefix position k: free_free_edges[k] has both
        # endpoints >= k, determined_edges[k] has both < k; the rest straddle
        # the frontier
        n = self.n_cells

        def before(ends):  # before(ends)[k]: the edges whose end in `ends` is < k
            return np.concatenate(([0], np.bincount(ends, minlength=n).cumsum()))

        determined = before(self.edge_hi)
        free_free = self.n_edges - before(self.edge_lo)
        self.determined_edges = determined.tolist()
        self.free_free_edges = free_free.tolist()
        self.frontier_edges = (self.n_edges - free_free - determined).tolist()

        # the constants of the sampler's step at cell k, one tuple per cell:
        # (k, cells after k, up, left, forward degree, determined neighbours,
        # then, after k is placed: edges not yet determined, free-free and
        # frontier edges, and the cells of degree 4)
        self.raster_steps = [
            (
                k,
                n - 1 - k,
                self.up[k],
                self.left[k],
                self.fwd_degree[k],
                (self.up[k] >= 0) + (self.left[k] >= 0),
                self.n_edges - self.determined_edges[k + 1],
                self.free_free_edges[k + 1],
                self.frontier_edges[k + 1],
                self.suffix_deg[4][k + 1],
            )
            for k in range(n)
        ]

    def toggle_capacity(self, start: int, k: int) -> int:
        """Max number of edge flips achievable by placing k ones among cells >= start
        (the sum of the k largest cell degrees in that suffix)."""
        cap = 0
        for d in (4, 3, 2, 1):
            take = min(k, self.suffix_deg[d][start])
            cap += d * take
            k -= take
            if k == 0:
                break
        return cap


@lru_cache(maxsize=None)
def topology(rows: int, cols: int) -> GridTopology:
    return GridTopology(rows, cols)


def check_shape(rows: int, cols: int) -> None:
    """Raise ValueError unless the grid has at least one row and one column."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid shape must be positive, got {rows}x{cols}")


def check_prefix(rows: int, cols: int, prefix, cell: int | None = None) -> None:
    """Raise ValueError unless `prefix` is a raster prefix of the grid (at
    most rows*cols values, each 0 or 1) and `cell`, when given, is a cell it
    leaves undetermined: len(prefix) <= cell < rows*cols. The shape is
    checked first (see check_shape)."""
    check_shape(rows, cols)
    n, k = rows * cols, len(prefix)
    if any(v not in (0, 1) for v in prefix):
        raise ValueError(f"prefix values must be 0 or 1, got {tuple(prefix)}")
    if k > n:
        raise ValueError(f"prefix of {k} cells is longer than the grid's {n}")
    if cell is not None and not k <= cell < n:
        raise ValueError(f"need an undetermined cell in [{k}, {n}), got {cell}")


def t1(table: BinaryTable) -> int:
    """Number of ones in the table."""
    return sum(table.cells)


def t2(table: BinaryTable) -> int:
    """Number of 4-neighbor adjacent pairs with unequal values."""
    cells = table.cells
    return sum(cells[a] != cells[b] for a, b in topology(table.rows, table.cols).edges)


def window_stats(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u and uprime of each table in a (count, rows, cols) 0-1 array, counted
    over all 2x2 windows at once. u counts the windows equal to [[1,0],[0,1]]
    or [[0,1],[1,0]]; uprime those equal to [[0,0],[1,1]], in that literal
    orientation only (its rotations are not counted)."""
    a, b = tables[:, :-1, :-1], tables[:, :-1, 1:]
    c, d = tables[:, 1:, :-1], tables[:, 1:, 1:]
    u = ((a != b) & (a == d) & (b == c)).sum(axis=(1, 2))
    # [[0,0],[1,1]]: c & d is 1 exactly where a | b is 0
    uprime = ((c & d) > (a | b)).sum(axis=(1, 2))
    return u, uprime


def _window_stats_of(table: BinaryTable) -> tuple[np.ndarray, np.ndarray]:
    cells = np.array(table.cells, dtype=np.int8).reshape(1, table.rows, table.cols)
    return window_stats(cells)


def u_stat(table: BinaryTable) -> int:
    """Number of 2x2 windows equal to [[1,0],[0,1]] or [[0,1],[1,0]]."""
    return int(_window_stats_of(table)[0][0])


def u_prime_stat(table: BinaryTable) -> int:
    """Number of 2x2 windows equal to [[0,0],[1,1]] (see window_stats)."""
    return int(_window_stats_of(table)[1][0])


STATISTICS = {"u": u_stat, "uprime": u_prime_stat}


def parse_table(text: str) -> BinaryTable:
    """Parse lines of '0'/'1' characters into a table.

    Single spaces between characters are tolerated; rows must all have the
    same length. Raises ParseError naming the first offending line.
    """
    if not text.strip():
        raise ParseError("empty table text")
    lines = text.splitlines()
    rows: list[list[int]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r")
        if not line.strip():
            if lineno < len(lines):
                raise ParseError(f"blank line at line {lineno}")
            continue
        row = []
        for ch in line:
            if ch in "01":
                row.append(int(ch))
            elif ch == " ":
                continue
            else:
                raise ParseError(f"invalid character {ch!r} at line {lineno}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"ragged row at line {lineno}")
        rows.append(row)
    return BinaryTable.from_rows(rows)


def format_table(table: BinaryTable) -> str:
    """Inverse of parse_table: rows of '0'/'1', newline-terminated, no spaces."""
    n = table.cols
    return "".join(
        "".join(str(v) for v in table.cells[i * n : (i + 1) * n]) + "\n" for i in range(table.rows)
    )
