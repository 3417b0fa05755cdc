"""Direct images and duality maps against an oracle that shares no code
with the package.

``perfbench/oracle.py`` recomputes every answer from closed forms with
dense ``Fraction`` arithmetic at two seeded specialisations of the ring
symbols; it computes f_! as D_Y^-1 f_* D_X, with no per-generator Gysin
formula.  It and ``perfbench/workloads.py`` are loaded by path, as the
benchmark runs them.  Each query runs through ``cli.main`` in all three
theories: seeded ``pushforward`` chains, among them projections to the
point, a projection that drops a middle factor and permutations, and
seeded ``to-hom`` and ``to-coh`` queries.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from orient_duality import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
THEORIES = ("additive", "multiplicative", "universal")

# generator chains in application order: (token, argument)
CHAINS = {
    "P2xP1": [("proj", ())],
    "P1xP2xP1": [("proj", (0, 2))],
    "P2xP1xP3": [("proj", (1,))],
    "P1xP2": [("perm", (1, 0)), ("proj", (1,))],
    "P2xP1xP1": [("perm", (2, 0, 1))],
    "P1xP1": [("diag", 0), ("perm", (2, 0, 1)), ("proj", (0, 2))],
    "P2": [("embed", (0, 3)), ("proj", ())],
    "P1xP0xP2": [("proj", (0, 2)), ("embed", (1, 3))],
}
DUALIZE_SPACES = ("P2", "P1xP2", "P0xP2xP1")


@pytest.fixture(scope="module")
def bench():
    """The oracle and workload modules; ``workloads`` imports ``oracle`` by name."""
    held = sys.modules.get("oracle")
    modules = {}
    for name in ("oracle", "workloads"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / ("%s.py" % name))
        modules[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules[name])
    for name in ("oracle", "workloads"):
        sys.modules.pop(name)
    if held is not None:
        sys.modules["oracle"] = held
    return modules["oracle"], modules["workloads"]


def chain_steps(source: tuple, chain: list) -> list:
    """The workloads' steps (kind, source, target, arg, token) of a chain."""
    steps, cur = [], source
    for kind, arg in chain:
        if kind == "proj":
            tgt, token = tuple(cur[t] for t in arg), "proj(%s)" % ",".join(map(str, arg))
        elif kind == "perm":
            tgt, token = tuple(cur[p] for p in arg), "perm(%s)" % ",".join(map(str, arg))
        elif kind == "diag":
            tgt, token = cur[: arg + 1] + (cur[arg],) + cur[arg + 1 :], "diag(%d)" % arg
        else:
            (t, m), token = arg, "embed(%d,%d)" % arg
            tgt, arg = cur[:t] + (m,) + cur[t + 1 :], t
        steps.append((kind, cur, tgt, arg, token))
        cur = tgt
    return steps


def pushforward_query(workloads, rng, theory: str, space: str, chain: list):
    dims = workloads.parse_space(space)
    steps = chain_steps(dims, chain)
    lit = workloads._literal(rng, theory, dims)
    cls = json.dumps({"terms": [{"zeta": e, "coeff": c} for e, c in lit]})
    argv = ["pushforward", "--theory", theory, "--space", space, "--format", "json"]
    argv += ["--morphism", ";".join(s[4] for s in reversed(steps)), "--class", cls]
    return workloads.Query(
        argv,
        "pushforward",
        theory=theory,
        dims=dims,
        literal=lit,
        steps=[s[:4] for s in steps],
        out_space=workloads.render_space(steps[-1][2]),
    )


def queries(workloads, theory: str, seed: int) -> list:
    rng = random.Random("closed-form|%s|%d" % (theory, seed))
    out = [pushforward_query(workloads, rng, theory, s, chain) for s, chain in CHAINS.items()]
    for space in ("P2xP1", "P1xP1xP1"):
        out.append(workloads._slot_query(rng, ("pushforward", theory, space, 5)))
    for op in ("to-hom", "to-coh"):
        out += [workloads._slot_query(rng, (op, theory, s)) for s in DUALIZE_SPACES]
    return out


@pytest.mark.parametrize("theory", THEORIES)
def test_outputs_match_the_closed_forms(bench, capsys, theory):
    oracle, workloads = bench
    for seed in (0, 1):
        check = oracle.Oracle(seed).check
        for q in queries(workloads, theory, seed):
            assert cli.main(q.argv) == 0, q.argv
            stdout = capsys.readouterr().out
            assert check(q, stdout) is None, (check(q, stdout), q.argv)
            flipped = oracle.flip_one_sign(stdout, q)  # the oracle can fail
            assert flipped is None or check(q, flipped) is not None


def test_the_queries_cover_the_projection_cases(bench):
    _, workloads = bench
    chains = [q.argv[q.argv.index("--morphism") + 1] for q in queries(workloads, "additive", 0) if q.op == "pushforward"]
    assert "proj()" in chains and "proj(0,2)" in chains and any("perm(" in c for c in chains)
