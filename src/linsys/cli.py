"""Command-line front end.

Subcommands: ``construct`` (named systems to instance files), ``solve``
(transversal / 2-packing numbers with certificates), ``planarity`` (verdict
plus certificate), ``stats`` (degree and line-size profile), ``verify``
(claim harness with reports) and ``enumerate-c44``.

Exit codes: 0 success, 1 invalid or unreadable instance input, 2 bad name,
parameters or output path, a search past the recursion limit or a failed
stdout (a closed one exits quietly), 3 claim failure, 4 internal
inconsistency (a planarity certificate that does not validate, or a solver
that disagrees with its brute-force oracle).  The commands raise; ``main``
alone maps each error to its ``error:`` line and exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from collections import Counter
from pathlib import Path

from .core import LinearSystemError, _incidence
from .constructions import (
    NamedSystem,
    c34_explicit,
    c_explicit,
    enumerate_c44,
    projective_plane,
)
from .files import InstanceFormatError, load_instance, save_instance
from .planarity import incidence_graph, is_planar, validate_verdict
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


def _write_members(out_dir: Path, members, noun: str) -> int:
    """One instance file per family member, named by its index."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, ns in enumerate(members):
        save_instance(out_dir / f"member_{i:02d}.json", ns.system, name=ns.name)
    print(f"wrote {len(members)} {noun} to {out_dir}/")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    built = _named_system(args.name)
    if isinstance(built, list):
        return _write_members(Path(args.out or "c44"), built, "systems")
    out = Path(args.out or args.name.replace(":", "") + ".json")
    save_instance(out, built.system, name=built.name, comments=_symbol_comment(built))
    print(f"wrote {built.system.n_points} points, {built.system.n_lines} lines to {out}")
    return EXIT_OK


def _load(path: str):
    try:
        return load_instance(path)
    except OSError as exc:
        _err(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        _err(f"cannot read {path}: not UTF-8 text")
    except (InstanceFormatError, LinearSystemError) as exc:
        _err(str(exc))
    return None


def _print_doc(args: argparse.Namespace, doc: dict, text: str) -> int:
    """Print ``doc`` as indented JSON, or ``text`` under ``--format text``."""
    print(text if args.format == "text" else json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    doc: dict = {}
    for key, solver in (("tau", transversal_number), ("nu2", two_packing_number)):
        if args.what in (key, "both"):
            cert = solver(args.system)
            doc[key] = {"value": cert.value, "members": list(cert.members)}
    text = "\n".join(f"{k} = {v['value']}  witness {v['members']}" for k, v in doc.items())
    return _print_doc(args, doc, text)


def cmd_planarity(args: argparse.Namespace) -> int:
    graph = incidence_graph(args.system)
    verdict = is_planar(graph)
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
    text = "planar" if verdict.planar else f"non-planar ({verdict.witness.kind} subdivision)"
    return _print_doc(args, doc, text)


def cmd_stats(args: argparse.Namespace) -> int:
    sys_ = args.system
    degrees = [len(ls) for ls in _incidence(sys_)]

    def histogram(values) -> dict[str, int]:
        return {str(k): v for k, v in sorted(Counter(values).items())}

    doc = {
        "n_points": sys_.n_points,
        "n_lines": sys_.n_lines,
        "max_degree": max(degrees, default=0),
        "degree_histogram": histogram(degrees),
        "line_size_histogram": histogram(map(len, sys_.lines)),
        "points_degree_ge_3": sum(d >= 3 for d in degrees),
        "points_degree_ge_4": sum(d >= 4 for d in degrees),
    }
    return _print_doc(args, doc, "\n".join(f"{k}: {v}" for k, v in doc.items()))


def cmd_verify(args: argparse.Namespace) -> int:
    config = VerifyConfig(
        seed=args.seed, n_random=args.random, include_fixtures=not args.no_fixtures
    )
    if args.exhaustive:
        try:
            p, l = (int(x) for x in args.exhaustive.split(","))
        except ValueError:
            raise LinearSystemError(
                f'bad --exhaustive value {args.exhaustive!r}; expected "P,L"'
            ) from None
        config.exhaustive_bounds = (p, l)
    if args.random < 0:
        raise LinearSystemError(f"--random must be nonnegative, got {args.random}")
    # an unwritable report directory fails before the harness runs
    out_dir = Path(args.out) if args.out else Path("verify-report")
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        reports = run_all(config)
    except BaseException:
        # a run that wrote no report leaves no report directory behind
        for d in created:
            d.rmdir()
        raise
    failed = [r for r in reports if not r.passed]
    (out_dir / "report.json").write_text(reports_to_json(reports) + "\n")
    (out_dir / "report.md").write_text(reports_to_markdown(reports) + "\n")
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
        return _write_members(Path(args.out), members, "members")
    doc = [
        {"name": ns.name, "n_points": ns.system.n_points, "n_lines": ns.system.n_lines}
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

    for name, func, help_text in (
        ("solve", cmd_solve, "compute tau and/or nu2 with witnesses"),
        ("planarity", cmd_planarity, "incidence-graph planarity with certificate"),
        ("stats", cmd_stats, "degree and line-size profile"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance")
        if name == "solve":
            p.add_argument("--what", choices=("tau", "nu2", "both"), default="both")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run the claim harness and write reports")
    p.add_argument("--seed", type=int, default=VerifyConfig.seed)
    p.add_argument("--random", type=int, default=VerifyConfig.n_random, metavar="N")
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
    args = build_parser().parse_args(argv)
    # solve, planarity and stats take an instance file, loaded here for all three
    if hasattr(args, "instance"):
        args.system = _load(args.instance)
        if args.system is None:
            return EXIT_BAD_INSTANCE
    try:
        code = args.func(args)
        _sys.stdout.flush()
    except OSError as exc:
        if exc.filename is None:
            # stdout failed: point it at devnull so that the flush at exit
            # cannot fail again; a closed one (BrokenPipeError) leaves quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            _err(f"cannot write {exc.filename or '<stdout>'}: {exc.strerror}")
        return EXIT_BAD_PARAMS
    except (LinearSystemError, HarnessError) as exc:
        _err(str(exc))
        return EXIT_BAD_PARAMS if isinstance(exc, LinearSystemError) else EXIT_INTERNAL
    return code


if __name__ == "__main__":
    raise SystemExit(main())
