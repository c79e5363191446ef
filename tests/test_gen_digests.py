"""Byte-identity gate for `gen`: pinned SHA-256 digests of what it prints
(the meta JSON, with `--out`) and of the file it writes.

The cases cover reiman(q), chains whose middle copies lose their
designated edge (delta = 3, ell = 6) over two fields, a chain with a
`--head` file, a graph6 file, and the edge-list text that `gen` prints
to stdout without `--out`.

A change that is meant to keep `gen` output identical must leave every
digest here as it is.
"""

import hashlib

import pytest

from avec import cli

#: name -> (gen arguments, sha256 of stdout, sha256 of the file written)
CASES = {
    "reiman4": (
        ["reiman", "--q", "4"],
        "130acd00b49b0760ff2af1fee4e84411e92691163ca938f6c7ca20e2b69d63d6",
        "154d6f5d40502f6f642b46e7037891e88b418041fb4b8ef9643315c147c7f224",
    ),
    "chain3_6": (
        ["chain", "--delta", "3", "--ell", "6"],
        "027cdbc4b0ea3144d2c5858212d5fab36ff1d86d5a6605828842c556e69760b0",
        "8f062a41ddf25562306e24a13a8bcd63622d2f185d30c9bd041c97fb151336cc",
    ),
    "chain4_4": (
        ["chain", "--delta", "4", "--ell", "4"],
        "c8274669d62009b5142fa545d8be6478c202a964cdee211fb8e5531a2e670ad2",
        "c922bfe996d6194a08df028468d4686ea49849af1453e9416df0a3577186ce4e",
    ),
    # HEAD stands for an edge-list file of reiman(4)
    "chain3_4_head": (
        ["chain", "--delta", "3", "--ell", "4", "--head", "HEAD"],
        "67366914100502142431aeff7cf293b671281dbbf7b152d724551eff07fe43e0",
        "01bec91633409daef436de24bf95a4ad43e0bd383063d55930299e94af2cdcc5",
    ),
    "chain3_6_graph6": (
        ["chain", "--delta", "3", "--ell", "6", "--format", "graph6"],
        "027cdbc4b0ea3144d2c5858212d5fab36ff1d86d5a6605828842c556e69760b0",
        "d38107c003c5082afa500d34de87107908423d44574addabdd80a24c771d9dd0",
    ),
}

#: sha256 of `gen chain --delta 3 --ell 4` stdout, an edge list
EDGELIST_STDOUT = "be164a0ecc72be15f2d6a265989faa3e82e85b5ed9472bef0db50fa3b4578413"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv, capsys):
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out.encode("ascii")


@pytest.mark.parametrize("name", sorted(CASES))
def test_gen_out_pinned(name, tmp_path, capsys):
    args, out_digest, file_digest = CASES[name]
    if "HEAD" in args:
        head = tmp_path / "head.el"
        assert cli.main(["gen", "reiman", "--q", "4", "--out", str(head)]) == 0
        args = [str(head) if a == "HEAD" else a for a in args]
    path = tmp_path / "g.out"
    stdout = _run(["gen", *args, "--out", str(path)], capsys)
    assert (_sha(stdout), _sha(path.read_bytes())) == (out_digest, file_digest)


def test_gen_edgelist_stdout_pinned(capsys):
    stdout = _run(["gen", "chain", "--delta", "3", "--ell", "4"], capsys)
    assert _sha(stdout) == EDGELIST_STDOUT
