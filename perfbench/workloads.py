"""Workload definitions, seeded input files and output checks.

A workload is a list of `avec gen` commands that make its input files
(the set-up) and a list of timed commands that read them.  Every
command is a real `python -m avec ...` process; file names in the
arguments are relative to the work directory the command runs in.

The input files are the generator's own output with a seeded vertex
permutation applied by this module, so the program under test only
ever sees files.  Seed 0 is the identity permutation and keeps the
generator's bytes.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import networkx as nx


@dataclass(frozen=True)
class Input:
    """One generated graph file: a family member in one file format."""

    family: str  # "chain" or "reiman"
    params: tuple  # (delta, ell) for chain, (q,) for reiman
    fmt: str = "edgelist"

    @property
    def name(self):
        ext = "g6" if self.fmt == "graph6" else "el"
        return f"{self.family}-{'-'.join(map(str, self.params))}.{ext}"

    @property
    def gen_args(self):
        if self.family == "chain":
            delta, ell = self.params
            fam = ("chain", "--delta", str(delta), "--ell", str(ell))
        else:
            fam = ("reiman", "--q", str(self.params[0]))
        return ("gen",) + fam + ("--out", self.name, "--format", self.fmt)

    def shape(self):
        """(n, m) in closed form, independent of avec."""
        q = self.params[0] - 1 if self.family == "chain" else self.params[0]
        points = q * q + q + 1
        n0, m0 = 2 * points, points * (q + 1)
        if self.family == "reiman":
            return n0, m0
        # ell copies; the ell - 2 middle copies lose one edge each and
        # ell - 1 joining edges link consecutive copies.
        ell = self.params[1]
        return ell * n0, ell * m0 + 1

    def ecc_sum_range(self):
        """Closed-form bounds on the sum of all eccentricities.

        reiman(q) has every eccentricity equal to 3.  chain(delta, ell)
        has diameter D = 6 ell - 5, so every eccentricity lies between
        ceil(D / 2) and D.
        """
        n, _ = self.shape()
        if self.family == "reiman":
            return 3 * n, 3 * n
        diameter = 6 * self.params[1] - 5
        return n * ((diameter + 1) // 2), n * diameter


@dataclass(frozen=True)
class Cmd:
    """One avec invocation and the files it writes besides stdout."""

    args: tuple
    outputs: tuple = ()

    @property
    def key(self):
        return " ".join(self.args)

    @property
    def verb(self):
        return self.args[0]

    @property
    def input_name(self):
        return self.args[1] if self.verb in ("analyze", "audit", "replay") else None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple
    timed: tuple

    @property
    def setup(self):
        return tuple(Cmd(i.gen_args, (i.name,)) for i in self.inputs)


def _analyze(inp, csv=False):
    return Cmd(("analyze", inp.name) + (("--csv",) if csv else ()))


def _replay(inp, variant):
    trace = f"trace-{variant}-{inp.name}.json"
    return Cmd(("replay", inp.name, "--variant", variant, "--trace", trace), (trace,))


def _analyze_chain():
    inputs = tuple(Input("chain", p) for p in ((3, 64), (3, 128), (5, 24), (5, 48)))
    big = (inputs[1], inputs[3])
    timed = (
        Cmd(("sweep", "--family", "chain", "--delta", "3", "--ell-range", "2..32",
             "--csv", "sweep.csv"), ("sweep.csv",)),
    )
    timed += tuple(_analyze(i) for i in inputs)
    timed += tuple(_analyze(i, csv=True) for i in big)
    return Workload(
        "analyze-chain",
        "long thin chains: all-pairs eccentricity is about 90% of the time; no replay or audit",
        inputs,
        timed,
    )


def _replay_chain():
    inputs = tuple(Input("chain", p) for p in ((3, 128), (3, 32), (4, 16)))
    c3_128, c3_32, c4_16 = inputs
    timed = (
        _replay(c3_128, "girth6"),  # n = 1792: the n^2 memory case
        _replay(c3_32, "maxdeg"),
        _replay(c4_16, "maxdeg"),
    )
    return Workload(
        "replay-chain",
        "every replay stage incl. the n x n structural checks; the only workload where peak RSS moves",
        inputs,
        timed,
    )


REIMAN_Q = (4, 7, 9, 16)


def _reiman_dense():
    el = tuple(Input("reiman", (q,)) for q in REIMAN_Q)
    g6 = tuple(Input("reiman", (q,), "graph6") for q in REIMAN_Q)
    timed = ()
    for a, b in zip(el, g6):
        timed += (_analyze(a), _analyze(b), Cmd(("audit", a.name)))
    return Workload(
        "reiman-dense",
        "dense diameter-3 graphs: worst case for eccentricity pruning; C5 scan, ball audit and graph6 decoding",
        el + g6,
        timed,
    )


WORKLOADS = {w.name: w for w in (_analyze_chain(), _replay_chain(), _reiman_dense())}


# ---------------------------------------------------------------- graph files
# Read and written without avec.io: the edge list by hand, graph6 with
# networkx.


def parse_edgelist(data: bytes):
    lines = data.decode("ascii").split("\n")
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, line.split())) for line in lines[1 : m + 1]]
    return n, edges


def format_edgelist(n, edges) -> bytes:
    rows = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    return ("\n".join(rows) + "\n").encode("ascii")


def read_input(inp, data: bytes):
    if inp.fmt == "graph6":
        g = nx.from_graph6_bytes(data.strip())
        return g.number_of_nodes(), sorted(g.edges)
    return parse_edgelist(data)


def write_input(inp, n, edges) -> bytes:
    if inp.fmt == "graph6":
        g = nx.empty_graph(n)
        g.add_edges_from(edges)
        return nx.to_graph6_bytes(g, nodes=range(n), header=False)
    return format_edgelist(n, sorted((u, v) if u < v else (v, u) for u, v in edges))


def permute_input(inp, workdir: Path, seed: int):
    """Check the generated file, then relabel it in place for `seed`.

    Returns a list of problems found in the generated file.  The
    permutation is drawn from (seed, file name), so it does not depend
    on the order in which files are set up.
    """
    path = workdir / inp.name
    data = path.read_bytes()
    n, edges = read_input(inp, data)
    problems = []
    if (n, len(edges)) != inp.shape():
        problems.append(f"{inp.name}: (n, m) = {(n, len(edges))}, expected {inp.shape()}")
    if seed:
        perm = list(range(n))
        random.Random(f"{seed}:{inp.name}").shuffle(perm)
        path.write_bytes(write_input(inp, n, [(perm[u], perm[v]) for u, v in edges]))
    return problems


# ---------------------------------------------------------------- checks


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def audit_invariant(doc) -> str:
    """Digest of the label-free part of an audit: the item multiset."""
    items = sorted(
        json.dumps([it["check"], it["size"], it["bound"], it["margin"]])
        for it in doc["items"]
    )
    return sha256("\n".join(items).encode())


def digests(cmd, stdout: bytes, workdir: Path):
    """Every digest recorded for a command at seed 0."""
    out = {"stdout": sha256(stdout)}
    for name in cmd.outputs:
        out[name] = sha256((workdir / name).read_bytes())
    if cmd.verb == "audit":
        out["audit_items"] = audit_invariant(json.loads(stdout))
    return out


def _digest_keys(verb, ref, seed):
    """Which recorded digests a run at `seed` must reproduce.

    Generator, analyze and sweep outputs do not depend on vertex labels,
    so they are checked at every seed; an audit keeps its item multiset.
    """
    if seed == 0 or verb in ("gen", "analyze", "sweep"):
        return tuple(ref)
    return ("audit_items",) if verb == "audit" else ()


def _check_ecc_sum(inp, num, den, n):
    lo, hi = inp.ecc_sum_range()
    if den != n or n != inp.shape()[0] or not lo <= num <= hi:
        return [f"avec {num}/{den} outside closed form [{lo}, {hi}]/{inp.shape()[0]}"]
    return []


def _csv_rows(stdout: bytes):
    header, *rows = stdout.decode().strip().split("\n")
    cols = header.split(",")
    return [dict(zip(cols, row.split(","))) for row in rows]


def _check_csv_rows(rows, inp_of_row):
    problems = []
    for row in rows:
        if row["pass"] != "true":
            problems.append(f"csv row fails: {row}")
        problems += _check_ecc_sum(
            inp_of_row(row), int(row["avec_num"]), int(row["avec_den"]), int(row["n"])
        )
    return problems


def check(cmd, rc, stdout: bytes, stderr: bytes, workdir: Path, seed, refs, inputs):
    """Problems with one command's outputs; an empty list means correct."""
    if rc != 0 or stderr:
        return [f"exit {rc}, stderr {stderr[:200]!r}"]
    problems = []
    ref = refs.get(cmd.key)
    if ref is None:
        problems.append("no reference digest recorded")
    else:
        got = digests(cmd, stdout, workdir)
        for k in _digest_keys(cmd.verb, ref, seed):
            if got.get(k) != ref[k]:
                problems.append(f"{k} digest differs from the seed-commit reference")
    inp = inputs.get(cmd.input_name)
    if cmd.verb == "analyze":
        if "--csv" in cmd.args:
            problems += _check_csv_rows(_csv_rows(stdout), lambda row: inp)
        else:
            doc = json.loads(stdout)
            if doc["violations"]:
                problems.append(f"violations {doc['violations']}")
            problems += _check_ecc_sum(inp, doc["avec"]["num"], doc["avec"]["den"], doc["n"])
    elif cmd.verb == "sweep":
        delta = int(cmd.args[cmd.args.index("--delta") + 1])
        rows = _csv_rows((workdir / cmd.outputs[0]).read_bytes())
        problems += _check_csv_rows(rows, lambda row: Input("chain", (delta, int(row["ell"]))))
    elif cmd.verb == "audit":
        doc = json.loads(stdout)
        n = inp.shape()[0]
        if not doc["pass"]:
            problems.append("audit did not pass")
        # In reiman(q) every radius-2 edge ball and radius-3 vertex ball
        # is the whole graph.
        if inp.family == "reiman" and any(it["size"] != n for it in doc["items"]):
            problems.append(f"audit ball size differs from n = {n}")
    elif cmd.verb == "replay":
        doc = json.loads((workdir / cmd.outputs[0]).read_bytes())
        if not doc["overall_pass"] or not stdout.endswith(b"overall: pass\n"):
            problems.append("replay did not pass")
    return problems
