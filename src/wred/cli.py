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
    failure,
    load_instance,
    parse_document,
    run_suite,
)
from .kernel import DEFAULT_FUEL, InputError, Point, identity_functional, pointwise
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
    "one": lambda: pointwise(1, lambda ctx, x: 1, "one"),
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


def _spin(ctx, x):
    while True:
        ctx.tick()


def _write(path, text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write the --out file: {e}") from None


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
    config = SuiteConfig(**{name: getattr(args, name) for name in SuiteConfig._fields})
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


def _qwwkl_cutter(a):
    tree, log = qwwkl_cutter(a["phi"], a["psi"], a["p"], a["q"], stages=a["stages"],
                             fuel=a["fuel"])
    return log.to_csv(), f"# mu(T) = {tree.measure()}; digest {log.digest()}"


def _ts1(a):
    res = ts1_diagonalizer(a["phi"], a["psi"], a["j"], a["k"], stages=a["stages"])
    return res.log.to_csv(), (f"# actions={len(res.log.action_stages())} "
                              f"colors[:16]={res.colors[:16]}")


def _delta2(a):
    return delta2_diagonalizer(a["k"], a["guesser"], stages=a["stages"])[1].to_csv(), None


def _cm(a):
    return f"trigger: {cm_coloring(a['phi']).trigger or 'none'}\n", None


def _arb_bounds(a):
    res = rainbow_measure_coloring(a["phi"], a["q"])
    lines = [f"cylinders: {len(res.cylinders)}", f"bound: {res.bound}"]
    lines += [f"set: measure={cyl.measure} strings={len(cyl.strings)}" for cyl in res.cylinders]
    return "\n".join(lines) + "\n", None


def _column_splitter(a):
    results = rrt_column_splitter(a["phi"], columns=a["columns"])
    return "\n".join(f"column {j}: cylinders={len(r.cylinders)} bound={r.bound}"
                     for j, r in enumerate(results)) + "\n", None


# each adversary's run, which maps its parsed inputs (`stages` included) to
# its text and an optional stderr note, and the --param keys it reads, in
# parse order, each with its default and its reader (see `_param`)
ADVERSARIES = {
    "qwwkl-cutter": (_qwwkl_cutter, {
        "p": ("1/2", Fraction), "q": ("3/4", Fraction), "psi": ("zero", TOY_BACKWARD),
        "phi": ("identity", TOY_FORWARD), "fuel": (DEFAULT_FUEL, int)}),
    "ts1": (_ts1, {"j": (2, int), "k": (3, int), "phi": ("embed23", TOY_FORWARD),
                   "psi": ("echo", TOY_BACKWARD)}),
    "delta2": (_delta2, {"k": (3, int), "guesser": ("evens", TOY_GUESSERS)}),
    "cm": (_cm, {"phi": ("ones", TOY_FORWARD)}),
    "arb-bounds": (_arb_bounds, {"phi": ("ones", TOY_FORWARD), "q": ("1/2", Fraction)}),
    "column-splitter": (_column_splitter, {"phi": ("ones", TOY_FORWARD),
                                           "columns": (2, int)}),
}


def cmd_adversary(args) -> int:
    if args.stages < 0:
        raise InputError(f"--stages must be >= 0, got {args.stages}")
    params, name = _parse_params(args.param), args.name
    if name not in ADVERSARIES:
        raise InputError(f"unknown adversary {name!r}; known: {sorted(ADVERSARIES)}")
    run, keys = ADVERSARIES[name]
    unread = sorted(set(params) - set(keys))
    if unread:
        raise InputError(f"{name} reads no --param {', '.join(unread)}; "
                         f"it reads {', '.join(keys)}")
    inputs = {key: _param(params, key, default, read) for key, (default, read) in keys.items()}
    text, note = run({**inputs, "stages": args.stages})
    _write(args.out, text)
    if note:
        print(note, file=sys.stderr)
    return EXIT_PASS


# each oracle task's document kind and its search (the tree task enumerates paths)
ORACLE_TASKS = {"homogeneous": ("coloring", find_homogeneous), "thin": ("coloring", find_thin),
                "rainbow": ("coloring", find_rainbow),
                "min-homogeneous": ("coloring", find_min_homogeneous),
                "paths": ("tree", enumerate_paths)}


def cmd_oracle(args) -> int:
    if args.task not in ORACLE_TASKS:
        raise InputError(f"unknown oracle task {args.task!r}; known: {sorted(ORACLE_TASKS)}")
    kind, search = ORACLE_TASKS[args.task]
    try:
        with open(args.input) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read the --input file: {e}") from None
    doc = parse_document(text)
    if doc.kind != kind:
        raise InputError(f"oracle {args.task} needs a {kind} document, got a {doc.kind} document")
    loaded = load_instance(doc)
    if kind == "coloring":
        res = search(loaded, SearchBudget(horizon=args.horizon, size=args.size))
        if res.found:
            omit = "" if res.omitted is None else f" omitted={res.omitted}"
            print(f"found ({res.mode}): {' '.join(map(str, res.members))}{omit}")
            return EXIT_PASS
        print("inconclusive: node budget exhausted" if res.inconclusive
              else "none: absence certified")
        return EXIT_RESOURCE if res.inconclusive else EXIT_PASS
    for m in search(loaded, args.depth):
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
    # --samples --horizon --size --fuel --seed
    for name, default in SuiteConfig._field_defaults.items():
        v.add_argument(f"--{name}", type=int, default=default)
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
    budget = SearchBudget()
    o.add_argument("--horizon", type=int, default=budget.horizon)
    o.add_argument("--size", type=int, default=budget.size)
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
    except Exception as e:
        kind, text = failure(e)
        print(f"{kind} error: {text}", file=sys.stderr)
        return EXIT_RESOURCE if kind == "resource" else EXIT_CONTRACT

if __name__ == "__main__":
    sys.exit(main())
