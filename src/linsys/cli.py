"""Command-line front end.

Subcommands: ``construct`` (named systems to instance files), ``solve``
(transversal / 2-packing numbers with certificates), ``planarity`` (verdict
plus certificate), ``stats`` (degree and line-size profile), ``verify``
(claim harness with reports) and ``enumerate-c44``.

Exit codes: 0 success, 1 invalid instance input, 2 bad name or parameters,
3 claim failure, 4 internal inconsistency (a planarity certificate that does
not validate, or a solver that disagrees with its brute-force oracle).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

from .core import LinearSystemError, _degree_counts
from .constructions import (
    NamedSystem,
    c34_explicit,
    c_explicit,
    enumerate_c44,
    projective_plane,
)
from .files import InstanceFormatError, load_instance, save_instance
from .planarity import validate_verdict, incidence_graph, zykov_planar
from .solvers import transversal_number, two_packing_number
from .verify import (
    HarnessError,
    VerifyConfig,
    reports_to_json,
    reports_to_markdown,
    run_all,
)

EXIT_OK = 0
EXIT_BAD_INSTANCE = 1
EXIT_BAD_PARAMS = 2
EXIT_CLAIM_FAILURE = 3
EXIT_INTERNAL = 4


def _err(msg: str) -> None:
    print(f"error: {msg}", file=_sys.stderr)


def _symbol_comment(ns: NamedSystem) -> str | None:
    prov = ns.prov()
    table = prov.get("symbols")
    if table is None:
        return None
    return "point names: " + ", ".join(f"{i}={s}" for s, i in table)


def _named_system(name: str) -> NamedSystem | list[NamedSystem]:
    if name.startswith("pi:"):
        try:
            q = int(name.split(":", 1)[1])
        except ValueError:
            raise LinearSystemError(f"bad plane order in {name!r}")
        return projective_plane(q)
    if name == "c34":
        return c34_explicit()
    if name == "c":
        return c_explicit()
    if name == "c44":
        return list(enumerate_c44())
    raise LinearSystemError(
        f"unknown construction {name!r}; expected pi:<prime>, c34, c or c44"
    )


def _write_members(out_dir: Path, members) -> None:
    """One instance file per family member, named by its index."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, ns in enumerate(members):
        save_instance(out_dir / f"member_{i:02d}.json", ns.system, name=ns.name)


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        built = _named_system(args.name)
    except LinearSystemError as exc:
        _err(str(exc))
        return EXIT_BAD_PARAMS
    if isinstance(built, list):
        out_dir = Path(args.out) if args.out else Path("c44")
        _write_members(out_dir, built)
        print(f"wrote {len(built)} systems to {out_dir}/")
        return EXIT_OK
    out = Path(args.out) if args.out else Path(args.name.replace(":", "") + ".json")
    save_instance(out, built.system, name=built.name, comments=_symbol_comment(built))
    print(f"wrote {built.system.n_points} points, {built.system.n_lines} lines to {out}")
    return EXIT_OK


def _load(path: str):
    try:
        return load_instance(path)
    except FileNotFoundError:
        _err(f"no such file: {path}")
        return None
    except (InstanceFormatError, LinearSystemError) as exc:
        _err(str(exc))
        return None


def cmd_solve(args: argparse.Namespace) -> int:
    sys_ = _load(args.instance)
    if sys_ is None:
        return EXIT_BAD_INSTANCE
    doc: dict = {}
    if args.what in ("tau", "both"):
        cert = transversal_number(sys_)
        doc["tau"] = {"value": cert.value, "members": list(cert.members)}
    if args.what in ("nu2", "both"):
        cert = two_packing_number(sys_)
        doc["nu2"] = {"value": cert.value, "members": list(cert.members)}
    if args.format == "text":
        for key, val in doc.items():
            print(f"{key} = {val['value']}  witness {val['members']}")
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_planarity(args: argparse.Namespace) -> int:
    sys_ = _load(args.instance)
    if sys_ is None:
        return EXIT_BAD_INSTANCE
    verdict = zykov_planar(sys_)
    graph = incidence_graph(sys_)
    if not validate_verdict(graph, verdict):
        _err("planarity certificate failed validation")
        return EXIT_INTERNAL
    doc: dict = {"planar": verdict.planar}
    if verdict.planar:
        doc["embedding"] = {str(v): list(rot) for v, rot in verdict.embedding.items()}
    else:
        doc["witness"] = {
            "kind": verdict.witness.kind,
            "branch_vertices": list(verdict.witness.branch_vertices),
            "paths": [list(p) for p in verdict.witness.paths],
        }
    if args.format == "text":
        print("planar" if verdict.planar else f"non-planar ({doc['witness']['kind']} subdivision)")
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    sys_ = _load(args.instance)
    if sys_ is None:
        return EXIT_BAD_INSTANCE
    degrees = _degree_counts(sys_)
    deg_hist: dict[int, int] = {}
    for d in degrees:
        deg_hist[d] = deg_hist.get(d, 0) + 1
    size_hist: dict[int, int] = {}
    for line in sys_.lines:
        size_hist[len(line)] = size_hist.get(len(line), 0) + 1
    doc = {
        "n_points": sys_.n_points,
        "n_lines": sys_.n_lines,
        "max_degree": max(degrees, default=0),
        "degree_histogram": {str(k): v for k, v in sorted(deg_hist.items())},
        "line_size_histogram": {str(k): v for k, v in sorted(size_hist.items())},
        "points_degree_ge_3": sum(d >= 3 for d in degrees),
        "points_degree_ge_4": sum(d >= 4 for d in degrees),
    }
    if args.format == "text":
        for k, v in doc.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    bounds = None
    if args.exhaustive:
        try:
            p, l = (int(x) for x in args.exhaustive.split(","))
        except ValueError:
            _err(f'bad --exhaustive value {args.exhaustive!r}; expected "P,L"')
            return EXIT_BAD_PARAMS
        bounds = (p, l)
    config = VerifyConfig(
        seed=args.seed, n_random=args.random, include_fixtures=not args.no_fixtures
    )
    if bounds is not None:
        config.exhaustive_bounds = bounds
    try:
        reports = run_all(config)
    except LinearSystemError as exc:
        _err(str(exc))
        return EXIT_BAD_PARAMS
    except HarnessError as exc:
        _err(str(exc))
        return EXIT_INTERNAL
    out_dir = Path(args.out) if args.out else Path("verify-report")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(reports_to_json(reports) + "\n")
    (out_dir / "report.md").write_text(reports_to_markdown(reports) + "\n")
    failed = [r for r in reports if not r.passed]
    for r in failed:
        for i, ce in enumerate(r.counterexamples):
            path = out_dir / f"counterexample-{r.claim_id}-{i}.json"
            path.write_text(json.dumps(ce, indent=2) + "\n")
    if args.format == "markdown":
        print(reports_to_markdown(reports))
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{status:4s}  {r.claim_id}  ({r.instances_checked} instances)")
    print(f"reports written to {out_dir}/")
    return EXIT_OK if not failed else EXIT_CLAIM_FAILURE


def cmd_enumerate_c44(args: argparse.Namespace) -> int:
    members = enumerate_c44()
    if args.out:
        out_dir = Path(args.out)
        _write_members(out_dir, members)
        print(f"wrote {len(members)} members to {out_dir}/")
    else:
        doc = [
            {
                "name": ns.name,
                "n_points": ns.system.n_points,
                "n_lines": ns.system.n_lines,
            }
            for ns in members
        ]
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linsys",
        description="Exact transversal / 2-packing toolkit for point-line incidence systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named system and write an instance file")
    p.add_argument("name", help="pi:<prime>, c34, c or c44")
    p.add_argument("--out", help="output file (directory for c44)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("solve", help="compute tau and/or nu2 with witnesses")
    p.add_argument("instance")
    p.add_argument("--what", choices=("tau", "nu2", "both"), default="both")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("planarity", help="incidence-graph planarity with certificate")
    p.add_argument("instance")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_planarity)

    p = sub.add_parser("stats", help="degree and line-size profile")
    p.add_argument("instance")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="run the claim harness and write reports")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--random", type=int, default=200, metavar="N")
    p.add_argument("--exhaustive", metavar="P,L", help="exhaustive class bounds")
    p.add_argument("--no-fixtures", action="store_true", help="skip the named fixtures")
    p.add_argument("--out", help="report directory (default verify-report/)")
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate-c44", help="enumerate the c44 family")
    p.add_argument("--out", help="write member instance files to this directory")
    p.set_defaults(func=cmd_enumerate_c44)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
