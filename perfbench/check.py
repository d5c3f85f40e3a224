"""The answer checker.  Runs after timing; every mismatch is a failed task.

A task fails when it raises, exits with an undocumented code, prints a
traceback, or answers differently from `expected.json`.  On every `verify`
report it also checks the paper's guarantee |C \\ B| <= 2, and it confirms
each reported circuit with the brute-force rank of tests/oracles.py.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from workloads import ROOT

VERIFY_KEYS = ("girth", "circuit", "circuit_size", "nonbasis_count", "min_sym_diff",
               "minors", "density", "bases")


def _oracles():
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles
    return oracles


class Checker:
    def __init__(self, workload, expected: dict):
        self.wl = workload
        self.spec = expected["workloads"][workload.name]
        self.by_id = {}
        for key in ("instances", "tasks", "calls"):
            for item in self.spec.get(key, ()):
                self.by_id[item["id"]] = item
        self._circuits: dict[tuple, bool] = {}
        self._seen: dict[tuple, list[str]] = {}

    def known_defect(self, task_id: str) -> bool:
        return "known_defect" in self.by_id[task_id]

    def check(self, task_id: str, output) -> list[str]:
        """Problems with one task's output; an empty list means it passed.
        `output` is the return value, or the exception the task raised."""
        if isinstance(output, BaseException):
            return [f"raised {type(output).__name__}: {output}"]
        key = (task_id, _fingerprint(output))
        if key not in self._seen:
            self._seen[key] = getattr(self, "_check_" + self.wl.name.split("_")[0])(task_id, output)
        return self._seen[key]

    # -- library workloads ------------------------------------------------------

    def _check_verify(self, task_id, report) -> list[str]:
        exp = self.by_id[task_id]["expect"]
        got = report.to_json_dict()
        basis = set(report.basis)
        problems = []
        outside = len(set(got["circuit"]) - basis)
        if outside > 2 or outside != got["nonbasis_count"]:
            problems.append(f"|C \\ B| = {outside}, reported {got['nonbasis_count']}: guarantee <= 2")
        for k in VERIFY_KEYS:
            if k == "circuit":
                continue
            if got[k] != exp[k]:
                problems.append(f"{k}: got {got[k]!r}, expected {exp[k]!r}")
        if not self._is_circuit(task_id, got["circuit"]):
            problems.append(f"{got['circuit']} is not a circuit (brute-force rank)")
        return problems

    def _is_circuit(self, instance_id, circuit) -> bool:
        key = (instance_id, tuple(circuit))
        if key not in self._circuits:
            self._circuits[key] = brute_is_circuit(*self.wl.instances[instance_id], circuit)
        return self._circuits[key]

    def _check_girth(self, task_id, value) -> list[str]:
        exp = self.by_id[task_id]["expect"]
        got = "infinity" if value == math.inf else value
        return [] if got == exp else [f"girth {got!r}, expected {exp!r}"]

    # -- the CLI -------------------------------------------------------------------

    def _check_cli(self, task_id, res) -> list[str]:
        call = self.by_id[task_id]
        exp = call["expect"]
        problems = []
        if "Traceback" in res["stderr"]:
            problems.append("printed a traceback")
        if res["exit"] != exp["exit"]:
            problems.append(f"exit {res['exit']}, expected {exp['exit']}")
        if "out_text" in exp:
            out = Path(self.wl.work_dir, call["out"])
            if not out.exists() or out.read_text() != exp["out_text"]:
                problems.append(f"{call['out']} differs from the recorded output")
            return problems
        # reports echo the instance path; the work directory differs per run
        stdout = res["stdout"].replace(str(self.wl.work_dir), "{work}")
        if "stdout" in exp:
            if stdout != exp["stdout"]:
                problems.append("stdout differs from the recorded output")
            return problems
        try:
            got = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not one JSON object"]
        if not isinstance(got, dict):
            return problems + ["stdout is not one JSON object"]
        if "error_type" in exp or exp.get("error"):
            err = got.get("error")
            if not (isinstance(err, dict) and isinstance(err.get("message"), str) and "type" in err):
                problems.append("no structured JSON error")
            elif "error_type" in exp and err["type"] != exp["error_type"]:
                problems.append(f"error type {err['type']}, expected {exp['error_type']}")
            return problems
        if got.get("command") == "verify" and "nonbasis_count" in got and got["nonbasis_count"] > 2:
            problems.append(f"|C \\ B| = {got['nonbasis_count']}: guarantee <= 2")
        if "json_subset" in exp:
            for k, v in exp["json_subset"].items():
                if got.get(k) != v:
                    problems.append(f"{k}: got {got.get(k)!r}, expected {v!r}")
            return problems
        want = exp["json"]
        if set(got) != set(want):
            problems.append(f"keys {sorted(got)}, expected {sorted(want)}")
            return problems
        for k, v in want.items():
            if k in exp["vary"]:
                problems += self._check_presented(call, k, got[k], v)
            elif got[k] != v:
                problems.append(f"{k}: got {got[k]!r}, expected {v!r}")
        return problems

    def _check_presented(self, call, key, got, recorded) -> list[str]:
        """A field that depends on the seeded presentation of the input file:
        a `.gfm` matrix whose columns must be the input's columns (simplify)."""
        if key != "gfm" or call["argv"][0] != "simplify":
            return [f"{key} differs between presentations; no structural check defined"]
        fname = Path(call["argv"][1]).name
        f, rows, labels = self.wl.instances[fname]
        got_lines = got.splitlines()
        rec_lines = recorded.splitlines()
        if got_lines[:2] != rec_lines[:2]:
            return [f"gfm header {got_lines[:2]}, expected {rec_lines[:2]}"]
        kept = got_lines[1].split()[1:]
        body = [line.split() for line in got_lines[2:]]
        for j, lab in enumerate(kept):
            col = [int(r[j]) for r in body]
            if col != [row[labels.index(lab)] for row in rows]:
                return [f"simplify column {lab} is not the input column"]
        return []


def _fingerprint(output):
    if isinstance(output, dict):
        return (output.get("exit"), output.get("stdout"), "Traceback" in output.get("stderr", ""))
    if hasattr(output, "to_json_dict"):
        return json.dumps(output.to_json_dict(), sort_keys=True) + repr(output.basis)
    return repr(output)


def field_ops(f):
    """add/mul on field codes from the schoolbook oracles, not from gf.py."""
    oracles = _oracles()
    if f.k == 1:
        return (lambda a, b: (a + b) % f.p), (lambda a, b: (a * b) % f.p)
    return (lambda a, b: oracles.poly_add_oracle(f.p, f.k, a, b),
            lambda a, b: oracles.poly_mul_oracle(f.p, f.k, f.modulus, a, b))


def brute_is_circuit(f, rows, labels, circuit) -> bool:
    """Dependent, and every one-smaller subset independent, by exhaustive
    coefficient search over the benchmark's own (untransformed) matrix."""
    oracles = _oracles()
    add, mul = field_ops(f)
    labels = list(labels)
    cols = [tuple(r[labels.index(x)] for r in rows) for x in circuit]
    if oracles.brute_independent(f.q, add, mul, cols):
        return False
    return all(oracles.brute_independent(f.q, add, mul, cols[:i] + cols[i + 1:])
               for i in range(len(cols)))
