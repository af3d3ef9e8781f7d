"""Command-line driver.

Every subcommand reads a document from a path (or - for standard input),
writes one canonical JSON report to standard output (or to -o PATH) and
exits 0.  Exit 1 means the input document failed to parse or validate;
exit 2 means the invocation itself was wrong (bad flags, unknown family,
unknown state label, a generated complex of more than MAX_GENERATED_CELLS
cells).  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import PrecubicalSet, skeleton, validate
from .document import FormatError, generate, parse, serialize
from .flow import LoopReport, enumerate_path_classes, realize_states, state_order
from .globular import globular_decomposition
from .homology import euler_characteristic, homology


# the most cells `generate` builds: cube 10 (59,049 cells, a 47 MB
# document) is the largest cube under it.  The library builders have no
# such bound.
MAX_GENERATED_CELLS = 100_000

# the closed-form cell count of each family that takes a size; exponents
# are clamped at 64, past which every count is over the bound anyway
_CELL_COUNTS = {
    "cube": lambda n: 3 ** min(n, 64),
    "boundary": lambda n: 3 ** min(n, 64) - 1,
    "torus": lambda d: 2 ** min(d, 64),
    "interval": lambda k: 2 * k + 1,
}


def _read(path: str) -> bytes:
    # parse decodes the bytes, so text that is not UTF-8 is a bad document
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _validate(K: PrecubicalSet, args) -> dict:
    violations = validate(K)
    return {
        "valid": not violations,
        "violations": [v.as_dict() for v in violations],
    }


def _info(K: PrecubicalSet, args) -> dict:
    counts = {str(d): K.n_cells(d) for d in range(K.top_dim + 1)}
    return {
        "top_dim": K.top_dim,
        "cells": counts,
        "total": sum(counts.values()),
    }


def _generate(K, args) -> str:
    count = _CELL_COUNTS.get(args.family)
    # checked before anything is built
    if count is not None and args.param is not None and count(args.param) > MAX_GENERATED_CELLS:
        raise ValueError(f"{args.family} {args.param} would have more than "
                         f"{MAX_GENERATED_CELLS} cells, the most generate builds")
    return serialize(generate(args.family, args.param))


def _paths(K: PrecubicalSet, args) -> dict:
    max_len = args.max_len if args.max_len is not None else max(K.n_cells(1), 1)
    classes = enumerate_path_classes(K, args.src, args.dst, max_len)
    return {
        "from": args.src,
        "to": args.dst,
        "max_len": max_len,
        "classes": [
            {
                "length": c.length,
                "representative": list(c.representative),
                "size": c.size,
            }
            for c in classes
        ],
    }


def _order(K: PrecubicalSet, args) -> dict:
    result = state_order(K)
    if isinstance(result, LoopReport):
        return {
            "loopless": False,
            "cycle": list(result.cycle),
            "cycle_states": list(result.states),
        }
    return {
        "loopless": True,
        "states": list(result.states),
        "pairs": sorted([a, b] for a, b in result.pairs),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precubical",
        description="inspect precubical-set documents: validation, states, "
                    "execution paths, homology and globular cell ledgers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, report, help_, with_path=True):
        p = sub.add_parser(name, help=help_)
        if with_path:
            p.add_argument("path", help="document path, or - for standard input")
        else:
            p.set_defaults(path=None)
        p.add_argument("-o", dest="output", metavar="PATH",
                       help="write the report here instead of standard output")
        p.set_defaults(report=report)
        return p

    add("validate", _validate, "check the precubical axioms, exit 1 on violations")
    add("info", _info, "cell counts per dimension")
    p = add("skeleton", lambda K, args: serialize(skeleton(K, args.dim)),
            "emit the document of the n-skeleton")
    p.add_argument("--dim", type=int, required=True, help="largest dimension to keep")
    add("homology", lambda K, args: homology(K).rows(),
        "integer homology (Betti numbers and torsion)")
    add("euler", lambda K, args: {"euler_characteristic": euler_characteristic(K)},
        "Euler characteristic")
    add("states", lambda K, args: {"states": sorted(realize_states(K))},
        "states of the realized flow")
    p = add("paths", _paths, "execution-path classes between two states")
    p.add_argument("--from", dest="src", required=True, metavar="STATE")
    p.add_argument("--to", dest="dst", required=True, metavar="STATE")
    p.add_argument("--max-len", dest="max_len", type=int, default=None,
                   help="path length bound (default: number of edges)")
    add("order", _order, "induced state order, or a cycle witness")
    add("globular", lambda K, args: globular_decomposition(K).as_dict(),
        "globular cell ledger")
    p = add("generate", _generate,
            "emit a named complex as a document", with_path=False)
    p.add_argument("family", help="cube, boundary, circle, torus, cylinder, interval")
    p.add_argument("param", nargs="?", type=int, default=None,
                   help="integer parameter where the family takes one")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    validating = args.command == "validate"
    try:
        K = None if args.path is None else parse(_read(args.path), check=not validating)
        payload = args.report(K, args)
        if isinstance(payload, str):
            text = payload  # already canonical document text
        else:
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.output and args.output != "-":
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if validating and not payload["valid"] else 0


if __name__ == "__main__":
    sys.exit(main())
