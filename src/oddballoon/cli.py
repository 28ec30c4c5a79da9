"""Command-line interface wiring every module together."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audits import AUDIT_NAMES, run_audit
from .balloon import analyze, build_balloon, load_spec, validate_good
from .codec import decode_graph6, encode_graph6, export_dot
from .construct import extremal_candidate
from .decomp import b_family, decomposition_family, decomposition_oracle
from .embed import contains_subgraph
from .formulas import turan_number
from .graphs import ParameterError
from .oracle import EdgeColoring, ex_bounded_degree_matching, ex_exact, f2_count_uncovered, f2_exact

# every domain error of the package subclasses ValueError; OSError is a
# missing or unreadable input file
DOMAIN_ERRORS = (ValueError, OSError)


def _cmd_analyze(args) -> int:
    tree, spec = load_spec(args.spec)
    good = validate_good(tree, spec)
    if not good.good:
        print("spec is NOT good:")
        for edge, reason in good.violations:
            print(f"  {tree.edge_name(edge)}: {reason}")
        return 1
    rep = analyze(tree, spec)
    if args.json:
        print(json.dumps(rep.to_dict()))
        return 0
    print(f"a = {rep.a}, |B| = {rep.b_size}")
    print(f"k = {rep.k}, k1 = {rep.k1}, selected u = {rep.u}")
    print(f"beta(T) = {rep.beta}, nu(T) = {rep.nu}")
    print(f"good = {rep.good}, branch = {rep.branch}")
    return 0


def _cmd_decompose(args) -> int:
    tree, spec = load_spec(args.spec)
    fam = decomposition_family(tree, spec)
    for line in sorted(encode_graph6(g) for g in fam):
        print(line)
    status = 0
    if args.oracle:
        orc = decomposition_oracle(tree, spec)
        agree = fam.iso_equal(orc)
        print(f"oracle agreement: {agree}")
        if not agree:
            print("oracle family:", file=sys.stderr)
            for line in sorted(encode_graph6(g) for g in orc):
                print(line, file=sys.stderr)
            status = 1
    if args.b:
        print("B family:")
        for line in sorted(encode_graph6(g) for g in b_family(tree, spec)):
            print(line)
    return status


def _cmd_turan(args) -> int:
    tree, spec = load_spec(args.spec)
    rep = turan_number(args.n, tree, spec)
    if args.json:
        print(json.dumps(rep.to_dict()))
    else:
        print(rep.render())
    return 0


def _cmd_construct(args) -> int:
    tree, spec = load_spec(args.spec)
    cand = extremal_candidate(args.n, tree, spec)
    balloon = build_balloon(tree, spec)
    free = not contains_subgraph(cand.graph, balloon)
    payload = {
        "graph6": encode_graph6(cand.graph),
        "edge_count": cand.graph.edge_count(),
        "roles": cand.roles(),
        "balloon_free": free,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(json.dumps(payload, indent=2))
    if args.dot:
        Path(args.dot).write_text(export_dot(cand.graph), encoding="utf-8")
        print(f"wrote {args.dot}")
    if args.coloring_out:
        coloring = EdgeColoring(args.n, frozenset(cand.graph.edges()))
        blob = {"n": coloring.n, "red": [list(e) for e in sorted(coloring.red)]}
        Path(args.coloring_out).write_text(json.dumps(blob) + "\n", encoding="utf-8")
        print(f"wrote {args.coloring_out}")
    print("T_o not contained" if free else "T_o CONTAINED")
    return 0 if free else 1


def _cmd_verify(args) -> int:
    text = Path(args.host).read_text(encoding="utf-8")
    # a .json host is what construct -o writes (load_spec's suffix rule); a
    # leading "{" is no guide, as it is the size byte of every 60-vertex graph6
    if Path(args.host).suffix == ".json":
        data = json.loads(text)
        if not isinstance(data, dict) or not isinstance(data.get("graph6"), str):
            raise ParameterError(f'host {args.host}: expected a JSON object with a string "graph6" field')
        text = data["graph6"]
    host = decode_graph6(text)
    tree, spec = load_spec(args.spec)
    balloon = build_balloon(tree, spec)
    contained = contains_subgraph(host, balloon)
    print("T_o contained" if contained else "T_o not contained")
    return 0


def _cmd_oracle_ex(args) -> int:
    if args.nu is not None or args.delta is not None:
        if args.nu is None or args.delta is None:
            raise ParameterError("--nu and --delta go together")
        value = ex_bounded_degree_matching(args.nu, args.delta)
        print(json.dumps({"value": value, "nu": args.nu, "delta": args.delta}))
        return 0
    if args.n is None or not args.forbid:
        raise ParameterError("oracle ex needs -n and --forbid (or --nu/--delta)")
    family = [decode_graph6(s) for s in args.forbid]
    res = ex_exact(args.n, family)
    print(
        json.dumps(
            {
                "value": res.value,
                "witness_graph6": encode_graph6(res.witness),
                "nodes_explored": res.nodes_explored,
                "elapsed_ms": round(res.elapsed_ms, 3),
            }
        )
    )
    return 0


def _read_coloring(path: str) -> EdgeColoring:
    def is_int(v) -> bool:  # JSON true/false load as bool, a subclass of int
        return isinstance(v, int) and not isinstance(v, bool)

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not {"n", "red"} <= data.keys():
        raise ParameterError(f'coloring {path}: expected an object with keys "n" and "red"')
    if not is_int(data["n"]) or data["n"] < 0 or not isinstance(data["red"], list):
        raise ParameterError(f'coloring {path}: "n" must be a nonnegative integer and "red" a list')
    for e in data["red"]:
        if not (isinstance(e, list) and len(e) == 2 and all(map(is_int, e))):
            raise ParameterError(f"coloring {path}: red edge {e!r} is not a pair of vertices")
    return EdgeColoring(data["n"], frozenset(tuple(sorted(e)) for e in data["red"]))


def _cmd_oracle_f2(args) -> int:
    target = Path(args.target)
    if target.suffix in (".spec", ".json"):
        tree, spec = load_spec(target)
        h = build_balloon(tree, spec)
    else:
        h = decode_graph6(args.target)
    if args.coloring:
        coloring = _read_coloring(args.coloring)
        value = f2_count_uncovered(coloring, h)
        print(json.dumps({"uncovered": value, "n": coloring.n}))
    else:
        if args.n is None:
            raise ParameterError("oracle f2 needs -n unless --coloring is given")
        value = f2_exact(args.n, h)
        print(json.dumps({"value": value, "n": args.n}))
    return 0


def _cmd_audit(args) -> int:
    result = run_audit(args.name, samples=args.samples, seed=args.seed)
    print(result.summary())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddballoon",
        description="Turan numbers and certificates for good odd-balloonings of trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bipartition, goodness and formula parameters")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("decompose", help="decomposition family as graph6 lines")
    p.add_argument("spec")
    p.add_argument("--oracle", action="store_true", help="cross-check with the embedding oracle")
    p.add_argument("--b", action="store_true", help="also emit the covering family")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("turan", help="closed-form Turan value report")
    p.add_argument("spec")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_turan)

    p = sub.add_parser("construct", help="build the candidate extremal graph")
    p.add_argument("spec")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--out", help="write the graph6/role-map payload to this file")
    p.add_argument("--dot", help="write a DOT rendering to this file")
    p.add_argument(
        "--coloring-out",
        help="also write the red/blue coloring witness as JSON {n, red}",
    )
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check containment of the ballooning in a host")
    p.add_argument("host", help="graph6 file, or the .json file that construct -o writes")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force ground-truth computations")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    pe = osub.add_parser(
        "ex",
        help="exact Turan numbers on small n",
        description="Prints JSON: value, witness_graph6, nodes_explored (candidates "
        "built, one per Aut(parent) orbit of neighbour sets that passes the edge "
        "floor and minimum-degree checks, each distinct candidate once per call) "
        "and elapsed_ms.",
    )
    pe.add_argument("-n", type=int)
    pe.add_argument("--forbid", nargs="+", help="graph6 strings of the forbidden family")
    pe.add_argument("--nu", type=int, help="bounded matching/degree variant")
    pe.add_argument("--delta", type=int)
    pe.set_defaults(func=_cmd_oracle_ex)

    pf = osub.add_parser("f2", help="monochromatic-copy coloring maxima")
    pf.add_argument("target", help="spec file or graph6 string for the pattern")
    pf.add_argument("-n", type=int)
    pf.add_argument("--coloring", help="JSON file {n, red: [[u,v],...]} to count instead")
    pf.set_defaults(func=_cmd_oracle_f2)

    p = sub.add_parser("audit", help="lemma audits (randomized or exhaustive)")
    p.add_argument("name", choices=AUDIT_NAMES)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
