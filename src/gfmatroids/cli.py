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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .gf import FieldSpec, field_from_order
from .gfmatrix import GfmParseError, NotABasisError
from .matroid import (
    RepMatroid,
    TooLargeError,
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
from .setsystem import canonical_system, separation, shatter
from . import generators


@dataclass
class RunConfig:
    command: str
    instance: Optional[str] = None
    field: Optional[FieldSpec] = None
    t: int = 4
    basis_mode: str = "all"
    samples: int = 20
    seed: int = 0
    budget: int = 10**7
    cutoff: Optional[int] = None
    m: Optional[int] = None
    trials: Optional[int] = None
    target: Optional[str] = None
    deltas: tuple[int, ...] = (1, 2, 3, 4)
    out: Optional[str] = None


class InputError(ValueError):
    """Anything wrong with the command line or the instance source."""


def _parse_field_flag(text: str) -> FieldSpec:
    q_part, _, mod_part = text.partition(":")
    try:
        q = int(q_part)
        mod = int(mod_part) if mod_part else None
        return field_from_order(q, mod)
    except ValueError as exc:
        raise InputError(f"bad --field value {text!r}: {exc}") from None


def _parse_basis_flag(text: str) -> tuple[str, int]:
    if text == "all":
        return "all", 0
    if text.startswith("sample:"):
        try:
            return "sample", int(text.split(":", 1)[1])
        except ValueError:
            pass
    raise InputError(f"--basis must be `all` or `sample:<n>`, got {text!r}")


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
            raise InputError(
                f"--field GF({field.q}) conflicts with file field GF({m.field.q})"
            )
        return m
    if ".graph" in source:
        path, _, suffix = source.partition("@gf")
        f = field
        if suffix:
            gf = field_from_order(int(suffix))
            if f is not None and f != gf:
                raise InputError(
                    f"--field GF({f.q}) conflicts with instance suffix @gf{suffix}"
                )
            f = gf
        if f is None:
            f = field_from_order(2)
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
        try:
            g = generators.parse_graph(text)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
        return generators.graphic(g, f)
    raise InputError(
        f"unrecognized instance {source!r}; expected <path>.gfm, <path>.graph[@gf<q>], or gen:<id>"
    )


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(config: RunConfig, obj: dict) -> None:
    _emit(config, json.dumps(obj, indent=2) + "\n")


def _instance_header(config: RunConfig, m: RepMatroid) -> dict:
    return {
        "command": config.command,
        "instance": config.instance,
        "field": m.field.spec_string(),
    }


def _cmd_girth(config: RunConfig, m: RepMatroid) -> int:
    g = girth(m, cutoff=config.cutoff)
    rep = _instance_header(config, m)
    rep.update({"elements": m.size, "rank": m.rank})
    if g is None:
        rep["girth"] = None
        rep["exceeds_cutoff"] = config.cutoff
    else:
        rep["girth"] = "infinity" if g == math.inf else g
    _emit_json(config, rep)
    return 0


def _matroid_payload(m: RepMatroid) -> dict:
    return {
        "elements": m.size,
        "rank": m.rank,
        "labels": list(m.labels),
        "gfm": matroid_to_gfm(m),
    }


def _cmd_dual(config: RunConfig, m: RepMatroid) -> int:
    rep = _instance_header(config, m)
    rep.update(_matroid_payload(dual(m)))
    _emit_json(config, rep)
    return 0


def _cmd_simplify(config: RunConfig, m: RepMatroid) -> int:
    rep = _instance_header(config, m)
    rep.update(_matroid_payload(simplify(m)))
    _emit_json(config, rep)
    return 0


def _cmd_shatter(config: RunConfig, m: RepMatroid) -> int:
    if config.m is None:
        raise InputError("shatter needs --m <int>")
    sf, system = canonical_system(m)
    mode = "sampled" if config.trials else "exact"
    res = shatter(
        system,
        config.m,
        mode=mode,
        trials=config.trials or 1000,
        seed=config.seed,
        budget=config.budget,
    )
    rep = _instance_header(config, m)
    rep.update(
        {
            "basis": list(sf.basis_order),
            "ground_size": len(system.ground),
            "family_size": len(system.members),
            "m": res.m,
            "mode": mode,
            "value": res.value,
            "exact": res.exact,
            "subsets_checked": res.subsets_checked,
        }
    )
    if mode == "sampled":
        rep["seed"] = config.seed
    _emit_json(config, rep)
    return 0


def _cmd_separation(config: RunConfig, m: RepMatroid) -> int:
    sf, system = canonical_system(m)
    rep = _instance_header(config, m)
    rep.update(
        {
            "basis": list(sf.basis_order),
            "ground_size": len(system.ground),
            "family_size": len(system.members),
        }
    )
    sep = separation(system)
    rep.update(
        {
            "min_pair": list(sep.min_pair),
            "sym_diff": sep.sym_diff,
            "hamming": sep.hamming,
            "delta_separated_at": sep.delta_separated_at,
            "packings": packing_ratios(system, config.deltas),
        }
    )
    _emit_json(config, rep)
    return 0


def _cmd_verify(config: RunConfig, m: RepMatroid) -> int:
    try:
        report = verify_dichotomy(
            m,
            config.t,
            basis_mode=config.basis_mode,
            samples=config.samples,
            seed=config.seed,
            instance_id=config.instance,
        )
    except NotCosimpleError as exc:
        kind, elements = exc.certificate
        _emit_json(
            config,
            {
                "command": config.command,
                "instance": config.instance,
                "cosimple": False,
                "certificate": {"kind": kind, "elements": sorted(elements)},
                "error": "not cosimple",
            },
        )
        return 1
    rep = {"command": config.command}
    rep.update(report.to_json_dict())
    _emit_json(config, rep)
    return 0


def _cmd_minor(config: RunConfig, m: RepMatroid) -> int:
    if not config.target:
        raise InputError("minor needs --target <instance>")
    target = resolve_instance(config.target, config.field)
    witness = has_minor(m, target)
    rep = _instance_header(config, m)
    rep["target"] = config.target
    if witness is None:
        rep["found"] = False
    else:
        dels, cons = witness
        rep["found"] = True
        rep["delete"] = sorted(dels)
        rep["contract"] = sorted(cons)
    _emit_json(config, rep)
    return 0


def _cmd_density(config: RunConfig, m: RepMatroid) -> int:
    d = density_ratio(m)
    rep = _instance_header(config, m)
    rep.update({"elements": d.elements, "rank": d.rank, "ratio": d.ratio})
    _emit_json(config, rep)
    return 0


def _cmd_gen(config: RunConfig) -> int:
    gen_id = config.instance
    if gen_id.startswith("gen:"):
        gen_id = gen_id[4:]
    if config.out and config.out.endswith(".graph"):
        base = gen_id.partition("@gf")[0]
        try:
            g = generators.named_graph(base)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        _emit(config, generators.format_graph(g))
        return 0
    try:
        m = generators.from_id(gen_id, default_field=config.field)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit(config, matroid_to_gfm(m))
    return 0


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
    for name in ("girth", "dual", "simplify", "shatter", "separation", "verify", "minor",
                 "density", "gen"):
        p = sub.add_parser(name)
        p.add_argument("instance", help="<path>.gfm | <path>.graph[@gf<q>] | gen:<id>")
        p.add_argument("--field", help="q[:modulus-code]")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the report here instead of stdout")
        if name == "girth":
            p.add_argument("--cutoff", type=int)
        if name == "shatter":
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--budget", type=int, default=10**7,
                           help="most subsets exact mode may enumerate")
            p.add_argument("--trials", type=int, help="use seeded sampling instead of exact mode")
        if name == "verify":
            p.add_argument("--t", type=int, required=True)
            p.add_argument("--basis", default="all", help="all | sample:<n>")
        if name == "minor":
            p.add_argument("--target", required=True)
        if name == "separation":
            p.add_argument("--deltas", default="1,2,3,4")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, instance=args.instance)
    if args.field:
        cfg.field = _parse_field_flag(args.field)
    cfg.seed = args.seed
    cfg.out = args.out
    cfg.cutoff = getattr(args, "cutoff", None)
    cfg.m = getattr(args, "m", None)
    cfg.trials = getattr(args, "trials", None)
    cfg.budget = getattr(args, "budget", cfg.budget)
    cfg.target = getattr(args, "target", None)
    if hasattr(args, "t"):
        cfg.t = args.t
    if hasattr(args, "basis"):
        cfg.basis_mode, cfg.samples = _parse_basis_flag(args.basis)
        if cfg.basis_mode == "all":
            cfg.samples = 20
    if hasattr(args, "deltas"):
        try:
            cfg.deltas = tuple(int(x) for x in args.deltas.split(","))
        except ValueError:
            raise InputError(f"--deltas must be comma-separated ints, got {args.deltas!r}")
    return cfg


_DISPATCH = {
    "girth": _cmd_girth,
    "dual": _cmd_dual,
    "simplify": _cmd_simplify,
    "shatter": _cmd_shatter,
    "separation": _cmd_separation,
    "verify": _cmd_verify,
    "minor": _cmd_minor,
    "density": _cmd_density,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed RunConfig; returns the process exit code."""
    try:
        if config.command == "gen":
            return _cmd_gen(config)
        m = resolve_instance(config.instance, config.field)
        return _DISPATCH[config.command](config, m)
    except (InputError, GfmParseError, NotABasisError, TooLargeError, ValueError) as exc:
        _emit_json(
            config,
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
        )
        return 2


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except InputError as exc:
        sys.stdout.write(
            json.dumps({"error": {"type": "InputError", "message": str(exc)}}, indent=2) + "\n"
        )
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
