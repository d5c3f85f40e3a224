"""Workload definitions: instances, presentations and task lists.

Every instance is fixed by `expected.json` (a named construction or a
recorded draw seed), so its answers can be recorded once and checked on
every run.  The run's `--seed` chooses a *presentation* of each matrix: a
seeded row permutation and row scaling.  An invertible row transformation
keeps the matroid, its labels and every standard form [I | A] unchanged,
so the expected answers hold for every seed while the program is handed a
different matrix each time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cli_startup", "verify_gf2_minor", "verify_gfq_short", "girth_scale")

# Generator polynomial 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11 of the binary
# quadratic-residue (Golay) code of length 23; its shifts span the code.
GOLAY_G = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def import_program():
    """Import the package from the checkout's `src`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from gfmatroids import cli, generators, gf, gfmatrix, matroid, pipeline, setsystem
    return {"cli": cli, "generators": generators, "gf": gf, "gfmatrix": gfmatrix,
            "matroid": matroid, "pipeline": pipeline, "setsystem": setsystem}


# -- matrices ------------------------------------------------------------------


def draw_rows(q: int, rank: int, n: int, draw_seed: int) -> list[list[int]]:
    """One seeded draw of a rank x n matrix with no zero column.

    Over GF(2) the columns are distinct, so the matroid is simple; other
    properties (full rank, cosimplicity) were checked when the draw seed was
    recorded.
    """
    rng = random.Random(draw_seed)
    if q == 2:
        codes = rng.sample(range(1, 1 << rank), n)
        cols = [[c >> i & 1 for i in range(rank)] for c in codes]
    else:
        cols = []
        while len(cols) < n:
            col = [rng.randrange(q) for _ in range(rank)]
            if any(col):
                cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(rank)]


def golay_rows() -> list[list[int]]:
    k = 23 - (len(GOLAY_G) - 1)
    return [[0] * i + list(GOLAY_G) + [0] * (k - 1 - i) for i in range(k)]


def present(rows: list[list[int]], f, rng: random.Random) -> list[list[int]]:
    """A seeded row permutation and nonzero row scaling of `rows` over `f`.

    Adding rows to one another would also keep the matroid, but it fills in
    sparse matrices (graphs, projective geometries), and the search kernels
    slow down with density, so cost would depend on the seed.
    """
    rows = [list(r) for r in rows]
    rng.shuffle(rows)
    for i, row in enumerate(rows):
        c = rng.randrange(1, f.q)
        rows[i] = [f.mul(c, x) for x in row]
    return rows


def build_instance(spec: dict, lib: dict, rng: random.Random):
    """(factory, field, reference rows, labels) for an instance spec from
    expected.json.  The factory builds a fresh matroid from the seeded
    presentation, so no task sees caches filled by an earlier round.  The
    reference rows are the benchmark's own untransformed matrix, used by
    the oracle checks."""
    gf, gen, gfmatrix, matroid = lib["gf"], lib["generators"], lib["gfmatrix"], lib["matroid"]
    recipe = spec["make"]
    kind = recipe["kind"]
    if kind == "draw":
        f = gf.field_from_order(recipe["q"])
        rows = draw_rows(recipe["q"], recipe["rank"], recipe["n"], recipe["draw_seed"])
        labels = [f"e{j}" for j in range(recipe["n"])]
    elif kind == "graph":
        f = gf.field_from_order(2)
        m0 = gen.graphic(gen.named_graph(recipe["graph"]), f)
        rows, labels = [[int(x) for x in row] for row in m0.matrix.data], list(m0.labels)
    elif kind == "pg":
        f = gf.field_from_order(recipe["q"])
        m0 = gen.projective_geometry(recipe["rank"], f)
        rows, labels = [[int(x) for x in row] for row in m0.matrix.data], list(m0.labels)
    elif kind == "golay23":
        f = gf.field_from_order(2)
        rows, labels = golay_rows(), [f"g{j}" for j in range(23)]
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    shown = present(rows, f, rng)

    def factory():
        return matroid.RepMatroid(f, gfmatrix.GFMatrix(f, shown), labels)

    return factory, f, rows, labels


# -- tasks -----------------------------------------------------------------------


@dataclass
class Task:
    id: str
    run: Callable[[], object]
    # CLI tasks: `run` starts a child process, `inproc` calls cli.main here
    inproc: Optional[Callable[[], object]] = None


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    warmup: Task
    work_dir: Optional[Path] = None
    # id -> (field, rows, labels) that the checker compares against: the
    # untransformed matrix of a library instance, the file content of a CLI input
    instances: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)


def _rng(workload: str, seed: int, key: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{key}")


def _verify_workload(name: str, seed: int, lib: dict, expected: dict) -> Workload:
    spec = expected["workloads"][name]
    t, basis_mode = spec["t"], spec["basis"]
    pipeline = lib["pipeline"]
    tasks, refs = [], {}
    for inst in spec["instances"]:
        make, f, rows, labels = build_instance(inst, lib, _rng(name, seed, inst["id"]))
        refs[inst["id"]] = (f, rows, labels)

        def run(make=make, iid=inst["id"]):
            return pipeline.verify_dichotomy(make(), t, basis_mode=basis_mode, instance_id=iid)

        tasks.append(Task(inst["id"], run))
    warm = next(x for x in tasks if x.id == spec["warmup"])
    return Workload(name, tasks, warm, instances=refs)


def _girth_workload(seed: int, lib: dict, expected: dict) -> Workload:
    name = "girth_scale"
    spec = expected["workloads"][name]
    matroid = lib["matroid"]
    built, refs, tasks = {}, {}, []
    for inst in spec["instances"]:
        make, f, rows, labels = build_instance(inst, lib, _rng(name, seed, inst["id"]))
        built[inst["id"]] = make
        refs[inst["id"]] = (f, rows, labels)
    for task in spec["tasks"]:
        make = built[task["instance"]]

        def run(make=make, dualize=task["dual"], cutoff=task["cutoff"]):
            m = make()
            return matroid.girth(matroid.dual(m) if dualize else m, cutoff=cutoff)

        tasks.append(Task(task["id"], run))
    warm = next(x for x in tasks if x.id == spec["warmup"])
    return Workload(name, tasks, warm, instances=refs)


# -- the CLI workload ------------------------------------------------------------


def _gfm_text(q: int, rows: list[list[int]], labels) -> str:
    head = f"gfm q={q} rows={len(rows)} cols={len(labels)}"
    return "\n".join([head, "labels " + " ".join(labels)] + [" ".join(map(str, r)) for r in rows]) + "\n"


def _graph_text(g) -> str:
    return "\n".join([f"graph n={g.n} m={len(g.edges)}"] + [f"{u} {v}" for u, v in g.edges]) + "\n"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], env: dict, cwd: Path) -> dict:
    """One `python -m gfmatroids.cli` call; returns exit code, output and the
    child's own peak RSS (from wait4)."""
    err_path = cwd / f".stderr.{os.getpid()}"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "gfmatroids.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_bytes()
    err_path.unlink()
    return {"exit": proc.returncode, "stdout": out.decode(), "stderr": stderr.decode(errors="replace"),
            "maxrss_kb": usage.ru_maxrss}


def run_cli_inproc(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": buf.getvalue(), "stderr": ""}


def _cli_workload(seed: int, lib: dict, expected: dict, work_dir: Path) -> Workload:
    name = "cli_startup"
    spec = expected["workloads"][name]
    gf, gen = lib["gf"], lib["generators"]
    work_dir.mkdir(parents=True, exist_ok=True)
    refs = {}
    for fname, fspec in spec["files"].items():
        path = work_dir / fname
        kind = fspec["kind"]
        if kind == "draw":
            f = gf.field_from_order(fspec["q"])
            rows = draw_rows(fspec["q"], fspec["rank"], fspec["n"], fspec["draw_seed"])
            labels = [f"c{j}" for j in range(fspec["n"])]
            shown = present(rows, f, _rng(name, seed, fname))
            text = _gfm_text(fspec["q"], shown, labels)
            refs[fname] = (f, shown, labels)
        elif kind == "graph":
            text = _graph_text(gen.named_graph(fspec["graph"]))
        else:
            text = fspec["text"]
        path.write_text(text)
    env = cli_env()
    cli = lib["cli"]
    tasks = []
    for call in spec["calls"]:
        argv = [a.replace("{work}", str(work_dir)) for a in call["argv"]]
        tasks.append(Task(
            call["id"],
            run=lambda argv=argv: run_cli(argv, env, work_dir),
            inproc=lambda argv=argv: run_cli_inproc(cli, argv),
        ))
    warm = next(x for x in tasks if x.id == spec["warmup"])
    return Workload(name, tasks, warm, work_dir=work_dir, instances=refs)


def setup(name: str, seed: int, lib: dict, expected: dict, work_root: Path) -> Workload:
    if name == "cli_startup":
        return _cli_workload(seed, lib, expected, work_root / f"cli-{os.getpid()}")
    if name == "girth_scale":
        return _girth_workload(seed, lib, expected)
    return _verify_workload(name, seed, lib, expected)
