"""Command-line front end: parse instances, dispatch analyses, emit JSON.

Exit codes: 0 on success, 1 when an analysis rejects its input (e.g. a
non-cosimple matroid handed to `verify`), 2 on input errors.  Reports go
to --out or stdout with a stable key order; every failure path produces a
structured error object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

from .gf import FieldSpec, field_from_order
from .matroid import (
    RepMatroid,
    dual,
    girth,
    has_minor,
    matroid_from_gfm,
    matroid_to_gfm,
    simplify,
)
from .pipeline import (
    NotCosimpleError,
    density_ratio,
    packing_ratios,
    verify_dichotomy,
)
from .setsystem import SetSystem, canonical_system, separation, shatter
from . import generators


class InputError(ValueError):
    """Anything wrong with the command line or the instance source."""


# -- option converters: argparse turns ArgumentTypeError into a usage error ----


def _field_arg(text: str) -> FieldSpec:
    q_part, _, mod_part = text.partition(":")
    try:
        return field_from_order(int(q_part), int(mod_part) if mod_part else None)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad field {text!r}: {exc}") from None


def _basis_arg(text: str) -> tuple[str, int]:
    """`all` or `sample:<n>`, as (mode, samples); `all` keeps the default
    sample count for instances too large to enumerate."""
    if text == "all":
        return "all", 20
    if text.startswith("sample:"):
        try:
            n = int(text[len("sample:"):])
        except ValueError:
            pass
        else:
            if n < 1:
                raise argparse.ArgumentTypeError(f"sample count must be >= 1, got {text!r}")
            return "sample", n
    raise argparse.ArgumentTypeError(f"expected `all` or `sample:<n>`, got {text!r}")


def _deltas_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from None


def resolve_instance(source: str, field: Optional[FieldSpec] = None) -> RepMatroid:
    """Load an instance from `<path>.gfm`, `<path>.graph[@gf<q>]`, or `gen:<id>`."""
    if source.startswith("gen:"):
        try:
            return generators.from_id(source[4:], default_field=field)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if source.endswith(".gfm"):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {source}: {exc}") from None
        m = matroid_from_gfm(text)
        if field is not None and field != m.field:
            raise InputError(f"--field {field} conflicts with file field {m.field}")
        return m
    if ".graph" in source:
        try:
            path, f = generators.split_field_suffix(source, field)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
        try:
            g = generators.parse_graph(text)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
        return generators.graphic(g, f or field_from_order(2))
    raise InputError(
        f"unrecognized instance {source!r}; expected <path>.gfm, <path>.graph[@gf<q>], or gen:<id>"
    )


# -- command handlers: each returns (exit code, report) ---------------------------


def _load(args: argparse.Namespace) -> tuple[RepMatroid, dict]:
    """The instance and the report header that names it."""
    m = resolve_instance(args.instance, args.field)
    return m, {"command": args.command, "instance": args.instance, "field": m.field.spec_string()}


def _cmd_girth(args: argparse.Namespace) -> tuple[int, dict]:
    m, rep = _load(args)
    g = girth(m, cutoff=args.cutoff)
    rep.update({"elements": m.size, "rank": m.rank})
    if g is None:
        rep["girth"] = None
        rep["exceeds_cutoff"] = args.cutoff
    else:
        rep["girth"] = "infinity" if g == math.inf else g
    return 0, rep


def _cmd_transform(args: argparse.Namespace) -> tuple[int, dict]:
    """`dual` and `simplify`: report the resulting matroid, .gfm included."""
    m, rep = _load(args)
    out = (dual if args.command == "dual" else simplify)(m)
    rep.update({
        "elements": out.size,
        "rank": out.rank,
        "labels": list(out.labels),
        "gfm": matroid_to_gfm(out),
    })
    return 0, rep


def _set_system_header(args: argparse.Namespace) -> tuple[SetSystem, dict]:
    m, rep = _load(args)
    sf, system = canonical_system(m)
    rep.update({
        "basis": list(sf.basis_order),
        "ground_size": len(system.ground),
        "family_size": len(system.members),
    })
    return system, rep


def _cmd_shatter(args: argparse.Namespace) -> tuple[int, dict]:
    system, rep = _set_system_header(args)
    res = shatter(system, args.m, trials=args.trials, seed=args.seed)
    rep.update({
        "m": res.m,
        "mode": "exact" if res.exact else "sampled",
        "value": res.value,
        "exact": res.exact,
        "subsets_checked": res.subsets_checked,
    })
    if not res.exact:
        rep["seed"] = args.seed
    return 0, rep


def _cmd_separation(args: argparse.Namespace) -> tuple[int, dict]:
    system, rep = _set_system_header(args)
    sep = separation(system)
    rep.update({
        "min_pair": list(sep.min_pair),
        "sym_diff": sep.sym_diff,
        "hamming": sep.hamming,
        "delta_separated_at": sep.sym_diff,
        "packings": packing_ratios(system, args.deltas),
    })
    return 0, rep


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    m, _ = _load(args)
    basis_mode, samples = args.basis
    try:
        report = verify_dichotomy(m, args.t, basis_mode=basis_mode, samples=samples,
                                  seed=args.seed, instance_id=args.instance)
    except NotCosimpleError as exc:
        kind, elements = exc.certificate
        return 1, {
            "command": args.command,
            "instance": args.instance,
            "cosimple": False,
            "certificate": {"kind": kind, "elements": sorted(elements)},
            "error": "not cosimple",
        }
    return 0, {"command": args.command, **report.to_json_dict()}


def _cmd_minor(args: argparse.Namespace) -> tuple[int, dict]:
    m, rep = _load(args)
    witness = has_minor(m, resolve_instance(args.target, args.field))
    rep["target"] = args.target
    rep["found"] = witness is not None
    if witness is not None:
        dels, cons = witness
        rep["delete"] = sorted(dels)
        rep["contract"] = sorted(cons)
    return 0, rep


def _cmd_density(args: argparse.Namespace) -> tuple[int, dict]:
    m, rep = _load(args)
    d = density_ratio(m)
    rep.update({"elements": d.elements, "rank": d.rank, "ratio": d.ratio})
    return 0, rep


def _cmd_gen(args: argparse.Namespace) -> tuple[int, str]:
    """Write a generator's matroid as .gfm, or its graph when --out ends in .graph."""
    gen_id = args.instance.removeprefix("gen:")
    if not (args.out and args.out.endswith(".graph")):
        return 0, matroid_to_gfm(resolve_instance("gen:" + gen_id, args.field))
    try:
        base, _ = generators.split_field_suffix(gen_id, args.field)
        return 0, generators.format_graph(generators.named_graph(base))
    except ValueError as exc:
        raise InputError(str(exc)) from None


_SEED = ("--seed", {"type": int, "default": 0})

# command -> (handler, options beyond the instance, --field and --out)
_COMMANDS = {
    "girth": (_cmd_girth, [("--cutoff", {"type": int})]),
    "dual": (_cmd_transform, []),
    "simplify": (_cmd_transform, []),
    "shatter": (_cmd_shatter, [
        ("--m", {"type": int, "required": True}),
        ("--trials", {"type": int, "help": "use seeded sampling instead of exact mode"}),
        _SEED,
    ]),
    "separation": (_cmd_separation, [("--deltas", {"type": _deltas_arg, "default": (1, 2, 3, 4)})]),
    "verify": (_cmd_verify, [
        ("--t", {"type": int, "required": True}),
        ("--basis", {"type": _basis_arg, "default": ("all", 20), "help": "all | sample:<n>"}),
        _SEED,
    ]),
    "minor": (_cmd_minor, [("--target", {"required": True})]),
    "density": (_cmd_density, []),
    "gen": (_cmd_gen, []),
}


class _Parser(argparse.ArgumentParser):
    # surface usage problems as InputError so main() can emit structured JSON
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gfmatroid",
        description="Finite-field matroid analyses: girth, duality, set systems, minors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("instance", help="<path>.gfm | <path>.graph[@gf<q>] | gen:<id>")
        p.add_argument("--field", type=_field_arg, help="q[:modulus-code]")
        p.add_argument("--out", help="write the report here instead of stdout")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def _write(out: Optional[str], report) -> None:
    text = report if isinstance(report, str) else json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _error(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def run(args: argparse.Namespace) -> int:
    """Run a parsed command line and write its report; returns the exit code."""
    try:
        code, report = args.handler(args)
    except ValueError as exc:  # every input and library error of the package
        code, report = 2, _error(exc)
    try:
        _write(args.out, report)
    except OSError as exc:
        _write(None, _error(InputError(f"cannot write {args.out}: {exc}")))
        return 2
    return code


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except InputError as exc:
        _write(None, _error(exc))
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
