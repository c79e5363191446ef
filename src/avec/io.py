"""Graph serialization: edge-list text files and graph6 strings.

Edge-list format: first line ``n m``, then m lines ``u v`` with
0-indexed endpoints, u < v, in ascending order.  Blank lines and lines
starting with ``#`` are ignored.  The m edges must be distinct: a
repeated or reversed edge is rejected, not merged.  The header's n may
be at most `graph.MAX_ORDER`, checked before anything is allocated.

A graph6 file holds one graph on one line; blank and ``#`` lines
around it are ignored, and a second data line is rejected.
"""

from binascii import a2b_base64, b2a_base64
from math import isqrt

from .errors import InvalidArgument, NotAscii
from .graph import MAX_ORDER, Graph, build_graph


#: Characters per piece of text that `_data_lines` splits at once.
_PIECE = 4096


def _data_lines(text):
    """The stripped lines of `text` that are neither blank nor comments,
    in order.  The text is split a piece of about `_PIECE` characters at
    a time, each cut just after a newline, so no list of all its lines
    is made; the lines are those of ``text.splitlines()``."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PIECE) + 1 or len(text)
        for raw in text[start:end].splitlines():
            line = raw.strip()
            if line and line[0] != "#":
                yield line
        start = end


def _edgelist_lines(g):
    yield f"{g.n} {g.m}\n"
    for u, v in g.edges():
        yield f"{u} {v}\n"


def format_edgelist(g: Graph) -> str:
    return "".join(_edgelist_lines(g))


def parse_edgelist(text: str) -> Graph:
    lines = _data_lines(text)
    head = next(lines, None)
    if head is None:
        raise InvalidArgument("empty edge-list input")
    try:
        n, m = map(int, head.split())
    except ValueError:
        raise InvalidArgument(f"header must be 'n m', got {head!r}") from None
    if n > MAX_ORDER:
        raise InvalidArgument(f"header declares n={n}, more than MAX_ORDER={MAX_ORDER}")
    # Each end in 0..n-1 is kept as the one int object of its vertex,
    # the first parsed, one list slot.  Of the lines that are not two
    # ints only the first counts, and of the pairs with an end out of
    # range only the first, `stop`: build_graph raises at it, and the
    # pairs after it are cut.
    label = [None] * n
    ends = []
    keep = ends.append
    bad = stop = None
    count = 0
    for count, line in enumerate(lines, 1):
        try:
            a, b = line.split()
            u = int(a)
            v = int(b)
        except ValueError:
            bad = line
            count += sum(1 for _ in lines)
            break
        if 0 <= u < n and 0 <= v < n:
            x = label[u]
            if x is None:
                label[u] = x = u
            y = label[v]
            if y is None:
                label[v] = y = v
            keep(x)
            keep(y)
        elif stop is None:
            stop = len(ends), u, v
    if count != m:
        raise InvalidArgument(f"header promises {m} edges, found {count}")
    if bad is not None:
        raise InvalidArgument(f"bad edge line {bad!r}")
    if stop is not None:
        ends[stop[0]:] = stop[1:]
    # The list iterator lets go of `ends` once build_graph has read it.
    pairs = iter(ends)
    del ends, keep, label
    g = build_graph(n, zip(pairs, pairs))
    if g.m != m:
        raise InvalidArgument(
            f"header promises {m} edges, found {g.m} distinct (repeated or reversed edges)"
        )
    return g


#: The graph6 digits ``?``..``~``, the base64 digits of the same six bits,
#: and a bytes table for each direction.
_G6 = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6, _FROM_G6 = bytes.maketrans(_B64, _G6), bytes.maketrans(_G6, _B64)
#: The graph6 order forms, by the count of ``~`` that opens each: the
#: digits that follow, and the largest order they spell.
_ORDER_FORMS = ((1, 62), (3, 258047), (6, 68719476735))


def _spell_order(n):
    """The graph6 spelling of order `n`, in the shortest form it fits."""
    for tildes, (digits, top) in enumerate(_ORDER_FORMS):
        if n <= top:
            return "~" * tildes + "".join(chr((n >> 6 * k & 63) + 63) for k in reversed(range(digits)))
    raise InvalidArgument(f"graph too large for graph6: n={n}")


def _read_order(s):
    """(n, start): the order that graph6 digits `s` spell, and where the body starts."""
    tildes = 0 if s[0] != "~" else 1 if s[1:2] != "~" else 2
    start = tildes + _ORDER_FORMS[tildes][0]
    if len(s) < start:
        raise InvalidArgument("truncated graph6 input")
    return sum(ord(c) - 63 << 6 * k for k, c in enumerate(reversed(s[tildes:start]))), start


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 line (without the optional ``>>graph6<<`` header).

    Bit i of the body is the pair (u, v), u < v, with i = v(v - 1)/2 + u,
    most significant first.  Only the edges' bits are set, in a byte
    buffer that base64 cuts into 6-bit words; `_TO_G6` turns each base64
    digit into the graph6 digit of the same bits.  So the cost is O(m) in
    Python and O(n^2) in C.  `from_graph6` takes these steps back."""
    n = g.n
    head = _spell_order(n)
    need = n * (n - 1) // 2
    bits = bytearray(-(-need // 8))
    for u, v in g.edges():
        i = v * (v - 1) // 2 + u
        bits[i >> 3] |= 128 >> (i & 7)
    return head + b2a_base64(bits, newline=False)[: -(-need // 6)].translate(_TO_G6).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line; tolerates the ``>>graph6<<`` header.

    The inverse of `to_graph6`: `_FROM_G6` turns the body, padded with
    zero words to whole groups of four, back into base64 digits, and base64
    gives back the byte buffer that the encoder filled.  Its nonzero bytes
    are found in C; only their set bits stream into `build_graph`."""
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise InvalidArgument("empty graph6 input")
    if min(s) < "?" or max(s) > "~":
        raise InvalidArgument("invalid graph6 character")
    n, start = _read_order(s)
    need = n * (n - 1) // 2
    words = -(-need // 6)
    if len(s) - start < words:
        raise InvalidArgument("graph6 body shorter than the n promised")
    if len(s) - start > words:
        raise InvalidArgument(f"graph6 body has {len(s) - start - words} bytes past the n promised")
    if words and (ord(s[-1]) - 63) & ((1 << (6 * words - need)) - 1):
        raise InvalidArgument("graph6 padding bits are not zero")
    bits = a2b_base64((s[start:] + "???"[: -words % 4]).encode("ascii").translate(_FROM_G6))
    return build_graph(n, _set_pairs(bits))


#: byte -> 1 if it is nonzero, so that `bytes.find` finds set bits in C.
_NONZERO = bytes(map(bool, range(256)))


def _set_pairs(bits):
    """The pair (u, v) of each set bit of `bits`, in order: bit i is the
    pair with v = (1 + isqrt(1 + 8i)) // 2 and u = i - v(v - 1)/2."""
    nonzero = bits.translate(_NONZERO)
    j = nonzero.find(1)
    while j >= 0:
        b = bits[j]
        while b:
            top = b.bit_length()
            b ^= 1 << top - 1
            i = 8 * j + 8 - top
            v = (1 + isqrt(1 + 8 * i)) // 2
            yield i - v * (v - 1) // 2, v
        j = nonzero.find(1, j + 1)


def read_graph(path) -> Graph:
    """Read a graph file, sniffing edge-list vs graph6 by content."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise NotAscii(
            f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not ASCII"
        ) from None
    lines = _data_lines(text)
    first = next(lines, None)
    if first is None:
        raise InvalidArgument(f"no graph data in {path}")
    parts = first.split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        del lines  # and the piece of split lines it holds
        return parse_edgelist(text)
    if next(lines, None) is not None:
        raise InvalidArgument(f"{path}: graph6 data on more than one line; one graph per file")
    del text  # from_graph6 reads only the line
    return from_graph6(first)


def write_graph(g: Graph, path, fmt: str = "edgelist") -> None:
    """Write g to path; an edge list goes line by line into the file's
    buffer, so its text is never held whole."""
    if fmt == "edgelist":
        lines = _edgelist_lines(g)
    elif fmt == "graph6":
        lines = (to_graph6(g) + "\n",)
    else:
        raise InvalidArgument(f"unknown format {fmt!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
