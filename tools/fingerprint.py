"""sha256 digests of what the `wred` command line prints, to show what a change moved.

    python3 tools/fingerprint.py [--size tiny] [CHECKOUT ...]

With no CHECKOUT it prints one JSON object for the checkout this file is
in; with one, for that checkout.  With two it prints the keys whose
digests differ, each with its two digests (null where a checkout lacks the
key), and exits 1 if any do.  A key is a `wred` command line, and its
digest covers the exit code, stdout and stderr of that run.  The runs:

* `wred verify all` at seeds 0 and 3;
* `wred squash` on each squash config at horizons 300 and 1200;
* each `wred adversary` with its defaults, and `qwwkl-cutter` and `ts1`
  with each toy backward (`--param psi=...`);
* each `wred oracle` task on the coloring or tree document of `DOCUMENTS`,
  written to a temporary directory; the key names the document
  (`--input <tree>`), not its path.

The configs, adversaries and toy backwards are the checkout's own.  Each
checkout runs in a fresh interpreter that imports `wred` from its `src/`.
`--size tiny` runs one verify sample, horizon 20 and 4 adversary stages,
for a quick check that the tool works.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent

SIZES = {
    "full": {"verify": [], "horizons": (300, 1200), "adversary": []},
    "tiny": {"verify": ["--samples", "1"], "horizons": (20,), "adversary": ["--stages", "4"]},
}

# the oracle tasks' documents: a pair coloring by the minimum mod 3, and a
# finite tree whose paths end at depth 3
DOCUMENTS = {
    "coloring": ("wred-instance v1\nkind: coloring\nrepresentation: rule\n"
                 "param rule: mod-min\nparam arity: 2\nparam colors: 3\n"),
    "tree": ("wred-instance v1\nkind: tree\nrepresentation: table\n"
             + "".join(f"entry: {e}\n" for e in
                       ("0", "1", "0 1", "1 0", "1 1", "0 1 0", "1 0 1", "1 1 0"))),
}

# the child interpreter's program; its argv is [-c, src, size, tools]
CHILD = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[3]]; import fingerprint; "
         "fingerprint.emit(sys.argv[1], sys.argv[2])")


def commands(size: str) -> list[list[str]]:
    from wred.catalog import SQUASH_CONFIGS
    from wred.cli import ADVERSARIES, ORACLE_TASKS, TOY_BACKWARD

    s = SIZES[size]
    runs = [["verify", "all", "--seed", str(seed), *s["verify"]] for seed in (0, 3)]
    runs += [["squash", "--config", name, "--horizon", str(h)]
             for name in sorted(SQUASH_CONFIGS) for h in s["horizons"]]
    for name in sorted(ADVERSARIES):
        runs.append(["adversary", name, *s["adversary"]])
        if name in ("qwwkl-cutter", "ts1"):
            runs += [["adversary", name, "--param", f"psi={psi}", *s["adversary"]]
                     for psi in sorted(TOY_BACKWARD)]
    for task in sorted(ORACLE_TASKS):
        kind = ORACLE_TASKS[task][0]
        runs.append(["oracle", task, "--input", f"<{kind}>",
                     *(["--depth", "3"] if kind == "tree" else [])])
    return runs


def emit(src: str, size: str) -> None:
    """Print the digests of this interpreter's `wred`, which must come from src."""
    import wred
    from wred.cli import main

    if not Path(wred.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"wred was imported from {wred.__file__}, not from {src}")
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {}
        for kind, text in DOCUMENTS.items():
            inputs[f"<{kind}>"] = path = str(Path(tmp) / f"{kind}.txt")
            Path(path).write_text(text)
        for argv in commands(size):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([inputs.get(a, a) for a in argv])
            text = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
            digests[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
    print(json.dumps(digests, indent=1, sort_keys=True))


def fingerprint(checkout: Path, size: str) -> dict[str, str]:
    src = str((checkout / "src").resolve())
    done = subprocess.run([sys.executable, "-c", CHILD, src, size, str(TOOLS)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, metavar="CHECKOUT")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give at most two checkouts")
    prints = [fingerprint(c, args.size) for c in args.checkouts or [TOOLS.parent]]
    if len(prints) == 1:
        print(json.dumps(prints[0], indent=1, sort_keys=True))
        return 0
    a, b = prints
    differ = {k: [a.get(k), b.get(k)] for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)}
    print(json.dumps(differ, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
