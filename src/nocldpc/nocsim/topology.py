"""2D torus topology and oblivious minimal routing.

Nodes form an n x n torus; node id = row * n + col.  Each node has five
ports: four to the neighbors plus LOCAL toward the PE.  Routing is O1Turn:
a per-packet coin picks X-then-Y or Y-then-X dimension order, and inside a
dimension the shorter wrap direction wins, ties toward the increasing
coordinate.
"""

from __future__ import annotations

from enum import IntEnum


class Port(IntEnum):
    NORTH = 0
    SOUTH = 1
    EAST = 2
    WEST = 3
    LOCAL = 4


OPPOSITE = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
}


class Topology:
    """n x n torus with wraparound links."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("torus side must be >= 1")
        self.n = n
        self.p = n * n

    def coords(self, node: int) -> tuple[int, int]:
        return divmod(node, self.n)

    def node_at(self, row: int, col: int) -> int:
        return (row % self.n) * self.n + (col % self.n)

    def neighbor(self, node: int, port: Port) -> int:
        r, c = self.coords(node)
        if port == Port.NORTH:
            return self.node_at(r - 1, c)
        if port == Port.SOUTH:
            return self.node_at(r + 1, c)
        if port == Port.EAST:
            return self.node_at(r, c + 1)
        if port == Port.WEST:
            return self.node_at(r, c - 1)
        raise ValueError("LOCAL port has no neighbor")

    def links(self) -> list[list[tuple[int, int]]]:
        """links()[node][port] = (neighbor, its input port) for each network port.

        The cycle engines forward a flit leaving node through output port
        (NORTH..WEST) into this neighbor's input FIFO; indexing a table with
        plain ints saves building a Port per hop.
        """
        return [
            [
                (self.neighbor(node, port), int(OPPOSITE[port]))
                for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)
            ]
            for node in range(self.p)
        ]


def _dim_hops(src: int, dst: int, n: int, inc_port: Port, dec_port: Port) -> list[Port]:
    delta = (dst - src) % n
    if delta == 0:
        return []
    back = n - delta
    if delta < back or delta == back:  # tie goes to the increasing direction
        return [inc_port] * delta
    return [dec_port] * back


def torus_distance(src: int, dst: int, n: int) -> int:
    sr, sc = divmod(src, n)
    dr, dc = divmod(dst, n)
    a = (dr - sr) % n
    b = (dc - sc) % n
    return min(a, n - a) + min(b, n - b)


def route_o1turn(src: int, dst: int, n: int, coin: int) -> list[Port]:
    """Port sequence from src to dst, ending with the LOCAL ejection.

    coin = 0 routes the X dimension (columns) first, coin = 1 the Y
    dimension (rows) first; both give minimal paths.
    """
    if src == dst:
        raise ValueError("src = dst needs no route")
    sr, sc = divmod(src, n)
    dr, dc = divmod(dst, n)
    x_hops = _dim_hops(sc, dc, n, Port.EAST, Port.WEST)
    y_hops = _dim_hops(sr, dr, n, Port.SOUTH, Port.NORTH)
    hops = x_hops + y_hops if coin == 0 else y_hops + x_hops
    return hops + [Port.LOCAL]
