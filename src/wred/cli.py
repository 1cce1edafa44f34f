"""The wred command line: list, verify, squash, adversary, oracle."""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .adversaries import (
    Delta2Approx,
    cm_coloring,
    delta2_diagonalizer,
    qwwkl_cutter,
    rainbow_measure_coloring,
    rrt_column_splitter,
    ts1_diagonalizer,
)
from .catalog import ENTRIES, SQUASH_CONFIGS
from .combinators import squash_forward, squash_markers
from .harness import (
    EXIT_CONTRACT,
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_RESOURCE,
    SuiteConfig,
    load_instance,
    parse_document,
    run_suite,
)
from .kernel import ContractError, InputError, Point, ResourceError, identity_functional, pointwise
from .oracle import (
    SearchBudget,
    enumerate_paths,
    find_homogeneous,
    find_min_homogeneous,
    find_rainbow,
    find_thin,
)

# toy functionals addressable from the adversary subcommand
TOY_FORWARD = {
    "identity": identity_functional,
    "ones": lambda: pointwise(1, lambda ctx, x: 1, "ones"),
    "single": lambda: pointwise(1, lambda ctx, x: 1 if x == 0 else 0, "single"),
    "embed23": lambda: pointwise(
        1, lambda ctx, x: ((ctx.query(0, x // 2) % 2) >> (x % 2)) & 1, "embed23"),
}

TOY_BACKWARD = {
    "zero": lambda: pointwise(1, lambda ctx, x: 0, "zero"),
    "echo": lambda: pointwise(1, lambda ctx, x: ctx.query(0, x), "echo"),
    "echo-shift": lambda: pointwise(1, lambda ctx, x: ctx.query(0, x + 1), "echo+1"),
    "spin": lambda: pointwise(1, _spin, "spin"),
}

TOY_GUESSERS = {
    "empty": lambda: Delta2Approx(rule=lambda e, i, b, s: 0, limit=lambda e, b: 0),
    "evens": lambda: Delta2Approx(
        rule=lambda e, i, b, s: 1 if (s >= 8 and b % 2 == 0) else 0,
        limit=lambda e, b: 1 if b % 2 == 0 else 0),
}


# the --param keys each adversary reads
ADVERSARY_PARAMS = {
    "qwwkl-cutter": ("p", "q", "psi", "phi", "fuel"), "ts1": ("j", "k", "phi", "psi"),
    "delta2": ("k", "guesser"), "cm": ("phi",), "arb-bounds": ("phi", "q"),
    "column-splitter": ("phi", "columns"),
}


def _spin(ctx, x):
    while True:
        ctx.tick()


def _write(path, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InputError(f"--param expects key=value, got {pair!r}")
        k, v = pair.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _param(params: dict, key: str, default, read):
    """--param key (default when absent) through int, Fraction or a toy table.

    A value that does not parse, or a name not in the table, is an InputError.
    """
    raw = params.get(key, default)
    if isinstance(read, dict):
        if raw not in read:
            raise InputError(f"unknown --param {key}={raw}; known: {sorted(read)}")
        return read[raw]()
    try:
        return read(raw)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad --param {key}={raw}") from None


def cmd_list(args) -> int:
    for eid in sorted(ENTRIES):
        print(f"{eid:24s} {ENTRIES[eid].description}")
    print()
    print("squash configs: " + ", ".join(sorted(SQUASH_CONFIGS)))
    return EXIT_PASS


def cmd_verify(args) -> int:
    config = SuiteConfig(samples=args.samples, horizon=args.horizon, size=args.size,
                         fuel=args.fuel, seed=args.seed)
    report = run_suite(args.entry, config)
    _write(args.out, report.to_csv())
    counts = report.counts()
    print(f"# {args.entry}: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())),
          file=sys.stderr)
    return report.exit_code()


def cmd_squash(args) -> int:
    name = args.config
    if os.path.exists(name):
        # a config document names a registered configuration
        try:
            with open(name) as fh:
                for ln in fh:
                    ln = ln.strip()
                    if ln.startswith("config:"):
                        name = ln.split(":", 1)[1].strip()
                        break
                else:
                    raise InputError(f"{args.config}: no 'config:' line")
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read the --config file: {e}") from None
    if name not in SQUASH_CONFIGS:
        raise InputError(f"unknown squash config {name!r}; known: {sorted(SQUASH_CONFIGS)}")
    cfg = SQUASH_CONFIGS[name]()
    stages = args.stages if args.stages is not None else args.horizon + 6
    markers = squash_markers(cfg, stages)
    fam = Point.from_seed(args.seed)
    table = squash_forward(cfg, markers, fam, args.horizon, count=args.count)
    lines = ["marker: " + " ".join(str(m) for m in markers.markers)]
    for i, row in enumerate(table):
        lines.append(f"B_{i}: " + "".join(str(b) for b in row[: args.horizon]))
    lines.append("identity: checked exactly on the materialized rows")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_PASS


def cmd_adversary(args) -> int:
    if args.stages < 0:
        raise InputError(f"--stages must be >= 0, got {args.stages}")
    params, name = _parse_params(args.param), args.name
    if name not in ADVERSARY_PARAMS:
        raise InputError(f"unknown adversary {name!r}; known: {sorted(ADVERSARY_PARAMS)}")
    unread = sorted(set(params) - set(ADVERSARY_PARAMS[name]))
    if unread:
        raise InputError(f"{name} reads no --param {', '.join(unread)}; "
                         f"it reads {', '.join(ADVERSARY_PARAMS[name])}")
    note = None  # a summary line for stderr
    if name == "qwwkl-cutter":
        p = _param(params, "p", "1/2", Fraction)
        q = _param(params, "q", "3/4", Fraction)
        psi = _param(params, "psi", "zero", TOY_BACKWARD)
        phi = _param(params, "phi", "identity", TOY_FORWARD)
        fuel = _param(params, "fuel", 50_000, int)
        tree, log = qwwkl_cutter(phi, psi, p, q, stages=args.stages, fuel=fuel)
        text, note = log.to_csv(), f"# mu(T) = {tree.measure()}; digest {log.digest()}"
    elif name == "ts1":
        j, k = _param(params, "j", 2, int), _param(params, "k", 3, int)
        phi = _param(params, "phi", "embed23", TOY_FORWARD)
        psi = _param(params, "psi", "echo", TOY_BACKWARD)
        res = ts1_diagonalizer(phi, psi, j, k, stages=args.stages)
        text = res.log.to_csv()
        note = f"# actions={len(res.log.action_stages())} colors[:16]={res.colors[:16]}"
    elif name == "delta2":
        k = _param(params, "k", 3, int)
        guesser = _param(params, "guesser", "evens", TOY_GUESSERS)
        text = delta2_diagonalizer(k, guesser, stages=args.stages)[1].to_csv()
    elif name == "cm":
        res = cm_coloring(_param(params, "phi", "ones", TOY_FORWARD))
        text = "trigger: " + (str(res.trigger) if res.trigger else "none") + "\n"
    elif name == "arb-bounds":
        phi = _param(params, "phi", "ones", TOY_FORWARD)
        res = rainbow_measure_coloring(phi, _param(params, "q", "1/2", Fraction))
        lines = [f"cylinders: {len(res.cylinders)}", f"bound: {res.bound}"]
        lines += [f"set: measure={cyl.measure} strings={len(cyl.strings)}" for cyl in res.cylinders]
        text = "\n".join(lines) + "\n"
    else:  # column-splitter
        phi = _param(params, "phi", "ones", TOY_FORWARD)
        results = rrt_column_splitter(phi, columns=_param(params, "columns", 2, int))
        text = "\n".join(f"column {j}: cylinders={len(r.cylinders)} bound={r.bound}"
                         for j, r in enumerate(results)) + "\n"
    _write(args.out, text)
    if note:
        print(note, file=sys.stderr)
    return EXIT_PASS


# the document kind each oracle task searches
ORACLE_TASK_KINDS = {"homogeneous": "coloring", "thin": "coloring", "rainbow": "coloring",
                     "min-homogeneous": "coloring", "paths": "tree"}


def cmd_oracle(args) -> int:
    kind = ORACLE_TASK_KINDS.get(args.task)
    if kind is None:
        raise InputError(f"unknown oracle task {args.task!r}; known: {sorted(ORACLE_TASK_KINDS)}")
    try:
        with open(args.input) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read the --input file: {e}") from None
    doc = parse_document(text)
    if doc.kind != kind:
        raise InputError(f"oracle {args.task} needs a {kind} document, got a {doc.kind} document")
    loaded = load_instance(doc)
    budget = SearchBudget(horizon=args.horizon, size=args.size)
    if kind == "coloring":
        if args.task == "homogeneous":
            res = find_homogeneous(loaded, budget)
        elif args.task == "thin":
            res = find_thin(loaded, budget)
        elif args.task == "rainbow":
            res = find_rainbow(loaded, budget)
        else:
            res = find_min_homogeneous(loaded, budget)
        if res.found:
            omit = "" if res.omitted is None else f" omitted={res.omitted}"
            print(f"found ({res.mode}): {' '.join(map(str, res.members))}{omit}")
            return EXIT_PASS
        print("inconclusive: node budget exhausted" if res.inconclusive
              else "none: absence certified")
        return EXIT_RESOURCE if res.inconclusive else EXIT_PASS
    for m in enumerate_paths(loaded, args.depth):
        print("".join(str(b) for b in m.bits))
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error (exit 3); subparsers inherit the class."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="wred", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalog entries and squash configs").set_defaults(fn=cmd_list)

    v = sub.add_parser("verify", help="run the soundness suite for an entry")
    v.add_argument("entry")
    v.add_argument("--samples", type=int, default=25)
    v.add_argument("--horizon", type=int, default=16)
    v.add_argument("--size", type=int, default=4)
    v.add_argument("--fuel", type=int, default=4096)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default="")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("squash", help="markers and the materialized instance table")
    s.add_argument("--config", required=True)
    s.add_argument("--stages", type=int, default=None)
    s.add_argument("--horizon", type=int, default=16)
    s.add_argument("--count", type=int, default=4)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="")
    s.set_defaults(fn=cmd_squash)

    a = sub.add_parser("adversary", help="run a stage-based construction")
    a.add_argument("name")
    a.add_argument("--param", action="append", default=[])
    a.add_argument("--stages", type=int, default=32)
    a.add_argument("--out", default="")
    a.set_defaults(fn=cmd_adversary)

    o = sub.add_parser("oracle", help="brute-force searches over a document")
    o.add_argument("task")
    o.add_argument("--input", required=True)
    o.add_argument("--horizon", type=int, default=16)
    o.add_argument("--size", type=int, default=4)
    o.add_argument("--depth", type=int, default=6)
    o.set_defaults(fn=cmd_oracle)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as e:
        print(f"resource error: {e} {e.context}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ContractError, RecursionError) as e:
        print(f"contract error: {e}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
