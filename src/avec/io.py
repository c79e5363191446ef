"""Graph serialization: edge-list text files and graph6 strings.

Edge-list format: first line ``n m``, then m lines ``u v`` with
0-indexed endpoints, u < v, in ascending order.  Blank lines and lines
starting with ``#`` are ignored.  The m edges must be distinct: a
repeated or reversed edge is rejected, not merged.  The header's n may
be at most `MAX_ORDER`, checked before anything is allocated.
"""

from binascii import b2a_base64
from math import isqrt

from .errors import InvalidArgument, NotAscii
from .graph import Graph, build_graph

#: Largest vertex count an edge-list header may declare.  Building the
#: graph allocates one adjacency list per vertex before any edge is
#: read, so the bound keeps a short file from claiming gigabytes.
MAX_ORDER = 2**20


def format_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list)
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise InvalidArgument("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise InvalidArgument(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InvalidArgument(f"header must be 'n m', got {rows[0]!r}") from None
    if n > MAX_ORDER:
        raise InvalidArgument(f"header declares n={n}, more than MAX_ORDER={MAX_ORDER}")
    if len(rows) - 1 != m:
        raise InvalidArgument(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InvalidArgument(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidArgument(f"bad edge line {line!r}") from None
        edges.append((u, v))
    g = build_graph(n, edges)
    if g.m != m:
        raise InvalidArgument(
            f"header promises {m} edges, found {g.m} distinct (repeated or reversed edges)"
        )
    return g


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 line (without the optional ``>>graph6<<`` header).

    Bit i of the body is the pair (u, v), u < v, with i = v(v - 1)/2 + u,
    most significant first.  Only the edges' bits are set, in a byte
    buffer; base64 then cuts the bits into 6-bit words, and each
    base64 digit d is replaced by chr(d + 63).  So the cost is O(m)
    in Python and O(n^2) in C.
    """
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    elif n <= 68719476735:
        head = [126, 126]
        head.extend(((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0))
    else:
        raise InvalidArgument(f"graph too large for graph6: n={n}")
    need = n * (n - 1) // 2
    bits = bytearray(-(-need // 8))
    for u, v in g.edge_list:
        i = v * (v - 1) // 2 + u
        bits[i >> 3] |= 128 >> (i & 7)
    body = b2a_base64(bits, newline=False)[: -(-need // 6)]
    return "".join(map(chr, head)) + body.decode("ascii").translate(_B64_TO_G6)


#: base64 digit -> the graph6 character of the same six bits.
_B64_TO_G6 = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    "".join(chr(c + 63) for c in range(64)),
)


#: graph6 character -> its six bits, most significant first.
_G6_BITS = {c + 63: format(c, "06b") for c in range(64)}


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line; tolerates the ``>>graph6<<`` header.

    The body is read as one string of bits, and only its set bits are
    visited: bit i is the pair (u, v), u < v, with i = v(v - 1)/2 + u,
    so v = (1 + isqrt(1 + 8i)) // 2.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise InvalidArgument("empty graph6 input")
    if min(s) < "?" or max(s) > "~":
        raise InvalidArgument("invalid graph6 character")
    head = [ord(c) - 63 for c in s[:8]]
    if head[0] < 63:
        n = head[0]
        body = s[1:]
    elif len(head) >= 4 and head[1] < 63:
        n = (head[1] << 12) | (head[2] << 6) | head[3]
        body = s[4:]
    elif len(head) >= 8:
        n = 0
        for b in head[2:8]:
            n = (n << 6) | b
        body = s[8:]
    else:
        raise InvalidArgument("truncated graph6 input")
    need = n * (n - 1) // 2
    words = -(-need // 6)
    if len(body) < words:
        raise InvalidArgument("graph6 body shorter than the n promised")
    if len(body) > words:
        raise InvalidArgument(f"graph6 body has {len(body) - words} bytes past the n promised")
    if words and (ord(body[-1]) - 63) & ((1 << (6 * words - need)) - 1):
        raise InvalidArgument("graph6 padding bits are not zero")
    bits = body.translate(_G6_BITS)
    edges = []
    i = bits.find("1")
    while i >= 0:
        v = (1 + isqrt(1 + 8 * i)) // 2
        edges.append((i - v * (v - 1) // 2, v))
        i = bits.find("1", i + 1)
    return build_graph(n, edges)


def read_graph(path) -> Graph:
    """Read a graph file, sniffing edge-list vs graph6 by content."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise NotAscii(
            f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not ASCII"
        ) from None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            return parse_edgelist(text)
        return from_graph6(line)
    raise InvalidArgument(f"no graph data in {path}")


def write_graph(g: Graph, path, fmt: str = "edgelist") -> None:
    if fmt == "edgelist":
        payload = format_edgelist(g)
    elif fmt == "graph6":
        payload = to_graph6(g) + "\n"
    else:
        raise InvalidArgument(f"unknown format {fmt!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(payload)
