"""Reference counts made apart from the package under test.

Tables are raster-order bit masks: cell k = (i, j) with k = i*cols + j is bit
k. The statistics are counted with shifts and masks, so they share no code
with `isingfiber.grid`; brute-force enumeration of small grids and the exact
p-values are built on them. Pure Python, no numpy: this module is imported
before the package under test, outside its set-up time.
"""

from __future__ import annotations

from dataclasses import dataclass


def _masks(rows: int, cols: int) -> tuple[int, int, int]:
    """(cells with a right neighbour, cells with a down neighbour,
    top-left corners of 2x2 windows)."""
    right = down = window = 0
    for i in range(rows):
        for j in range(cols):
            bit = 1 << (i * cols + j)
            if j + 1 < cols:
                right |= bit
            if i + 1 < rows:
                down |= bit
            if j + 1 < cols and i + 1 < rows:
                window |= bit
    return right, down, window


class Grid:
    def __init__(self, rows: int, cols: int):
        self.rows, self.cols = rows, cols
        self._right, self._down, self._window = _masks(rows, cols)

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def t1(self, x: int) -> int:
        return x.bit_count()

    def t2(self, x: int) -> int:
        """Discordant 4-neighbour pairs."""
        c = self.cols
        return (((x ^ (x >> 1)) & self._right).bit_count()
                + ((x ^ (x >> c)) & self._down).bit_count())

    def u(self, x: int) -> int:
        """2x2 windows [[1,0],[0,1]] or [[0,1],[1,0]]: a == d, b == c, a != b."""
        c = self.cols
        a, b, cc, d = x, x >> 1, x >> c, x >> (c + 1)
        return (~(a ^ d) & ~(b ^ cc) & (a ^ b) & self._window).bit_count()

    def uprime(self, x: int) -> int:
        """2x2 windows [[0,0],[1,1]] in that literal orientation."""
        c = self.cols
        a, b, cc, d = x, x >> 1, x >> c, x >> (c + 1)
        return (~a & ~b & cc & d & self._window).bit_count()

    def stat(self, name: str, x: int) -> int:
        return self.u(x) if name == "u" else self.uprime(x)


def to_mask(cells) -> int:
    x = 0
    for k, v in enumerate(cells):
        if v:
            x |= 1 << k
    return x


@dataclass
class Fiber:
    """Every table with given (t1, t2) on a small grid, by brute force."""

    grid: Grid
    t1: int
    t2: int
    members: list[int]

    @property
    def size(self) -> int:
        return len(self.members)

    def exact_pvalues(self, stat_name: str, observed: int) -> tuple[float, float]:
        """(share with stat > observed, share with stat >= observed)."""
        values = [self.grid.stat(stat_name, x) for x in self.members]
        above = sum(v > observed for v in values)
        at_least = sum(v >= observed for v in values)
        return above / self.size, at_least / self.size


def enumerate_fibers(rows: int, cols: int) -> dict[tuple[int, int], Fiber]:
    """All nonempty fibers of the rows x cols grid, scanning all 2^(mn) tables."""
    grid = Grid(rows, cols)
    fibers: dict[tuple[int, int], Fiber] = {}
    for x in range(1 << grid.n_cells):
        key = (grid.t1(x), grid.t2(x))
        fiber = fibers.get(key)
        if fiber is None:
            fiber = fibers[key] = Fiber(grid, key[0], key[1], [])
        fiber.members.append(x)
    return fibers
