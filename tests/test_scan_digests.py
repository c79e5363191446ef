"""Byte-identity gate for the cycle scan and the graph6 encoder: pinned
SHA-256 digests of `gen --format graph6` stdout and of `analyze` stdout.

`gen` covers a small and a dense reiman(q), a chain, and reiman(q)
over fields of characteristic 2 with k = 3 (q = 8) and of odd
characteristic with k = 2 and 3 (q = 9, 25, 27), whose bytes depend on
the field tables and moduli.  `analyze` covers the scan's
triangle-free branches that `test_output_digests` does not: the
Petersen graph has a C5 and no C3 or C4, and the cube Q3 has a C4 and
no C3 or C5.

A change that is meant to keep these outputs identical must leave every
digest here as it is.
"""

import hashlib

import networkx as nx
import pytest

from avec import cli
from avec.io import write_graph

from util import from_nx

GEN = {
    "reiman4": ("reiman", "--q", "4"),
    "reiman8": ("reiman", "--q", "8"),
    "reiman9": ("reiman", "--q", "9"),
    "reiman16": ("reiman", "--q", "16"),
    "reiman25": ("reiman", "--q", "25"),
    "reiman27": ("reiman", "--q", "27"),
    "chain3_32": ("chain", "--delta", "3", "--ell", "32"),
}

ANALYZE = {
    "petersen": nx.petersen_graph,
    "cube3": lambda: nx.hypercube_graph(3),
}

#: name -> sha256 of the CLI stdout
DIGESTS = {
    "gen/reiman4": (
        "ca9fa402eae9fa8f61521aa0e3a344a5e4526e823afb15945ea851a358ede4b1"
    ),
    "gen/reiman8": (
        "14627d34052efca8165af33be4e67dbb28784dc7d529c553b8ecb2a13f3174b2"
    ),
    "gen/reiman9": (
        "1474f3318725ed4741f3f3c191086d526be66c92b8d29288b4ad1ff277d951c8"
    ),
    "gen/reiman16": (
        "6593f46a1befbeba304a02af4382821c9ff88b7c8c1274365e81e0da0b524719"
    ),
    "gen/reiman25": (
        "b728f083b8e837806bc0944c64d763366bdc2710064f3741c665a8e18de9937c"
    ),
    "gen/reiman27": (
        "3e314f273e107c04d42e26b8beaaf38f03e39a0330c8a749761a2ab8c5eb54b5"
    ),
    "gen/chain3_32": (
        "8c4cbb2503be4a2a4af9911ada43115627bf3f7c8c09e23ab1091586eedea293"
    ),
    "analyze/petersen": (
        "7dcccdf1e778c126e82c914b589aab9f600108287f149f801e211a90dd118ef6"
    ),
    "analyze/cube3": (
        "edfcfe612c632d4d3b3e234bc9175ffdabafabcf35a594ef6b71c3fe7b384239"
    ),
}


def _digest(argv, capsys):
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return hashlib.sha256(captured.out.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(GEN))
def test_gen_graph6_pinned(name, capsys):
    digest = _digest(["gen", *GEN[name], "--format", "graph6"], capsys)
    assert digest == DIGESTS[f"gen/{name}"]


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_analyze_pinned(name, tmp_path, capsys):
    path = tmp_path / name
    write_graph(from_nx(ANALYZE[name]()), path)
    assert _digest(["analyze", str(path)], capsys) == DIGESTS[f"analyze/{name}"]
