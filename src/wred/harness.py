"""Suite runner, instance documents, and deterministic reports.

Instances serialize to a self-describing line-oriented document (tables
as explicit entries, rules by registry name); reports are CSV with a
stable row order, so identical invocations are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .catalog import ENTRIES, run_entry
from .kernel import ContractError, InputError, Point, ResourceError
from .problems import HAND_TREES, Coloring, TreeByRule

EXIT_PASS, EXIT_FAIL, EXIT_RESOURCE, EXIT_INPUT, EXIT_CONTRACT = 0, 1, 2, 3, 4


# ---------------------------------------------------------------------------
# instance documents

def _int_param(params: dict, key: str, default: int) -> int:
    """A document parameter as an integer; anything else is an InputError."""
    value = params.get(key, default)
    try:
        return int(value)
    except ValueError:
        raise InputError(f"param {key}: expected an integer, got {value!r}") from None


POINT_RULES: dict[str, Callable] = {
    "zeros": lambda params: Point.zeros(),
    "ones": lambda params: Point.ones(),
    "alternating": lambda params: Point.alternating(),
    "seeded": lambda params: Point.from_seed(_int_param(params, "seed", 0)),
}

COLORING_RULES: dict[str, Callable] = {
    "parity-sum": lambda params: Coloring(
        _int_param(params, "arity", 2), _int_param(params, "colors", 2),
        lambda t, k=_int_param(params, "colors", 2): sum(t) % k, "parity-sum"),
    "constant": lambda params: Coloring(
        _int_param(params, "arity", 1), _int_param(params, "colors", 2),
        lambda t, c=_int_param(params, "value", 0): c, "constant"),
    "mod-min": lambda params: Coloring(
        _int_param(params, "arity", 2), _int_param(params, "colors", 3),
        lambda t, k=_int_param(params, "colors", 3): t[0] % k, "mod-min"),
    "identity": lambda params: Coloring(1, None, lambda t: t[0], "identity"),
}

TREE_RULES: dict[str, Callable] = {
    "full": lambda params: HAND_TREES["full"](),
    "no-11": lambda params: HAND_TREES["no-11"](),
    "first-bit": lambda params: HAND_TREES["first-bit"](_int_param(params, "value", 1),
                                                        "first-bit"),
}


@dataclass
class InstanceDocument:
    kind: str  # coloring | tree | point
    representation: str  # table | rule
    params: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)  # table payload

    def to_text(self) -> str:
        """The document as text, the inverse of `parse_document`
        (test_coloring_table_roundtrip)."""
        lines = ["wred-instance v1", f"kind: {self.kind}",
                 f"representation: {self.representation}"]
        for key in sorted(self.params):
            lines.append(f"param {key}: {self.params[key]}")
        for e in self.entries:
            lines.append("entry: " + " ".join(str(v) for v in e))
        return "\n".join(lines) + "\n"


def parse_document(text: str) -> InstanceDocument:
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or lines[0] != "wred-instance v1":
        raise InputError("line 1: expected header 'wred-instance v1'")
    doc = InstanceDocument(kind="", representation="")
    for no, ln in enumerate(lines[1:], start=2):
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("kind:"):
            doc.kind = ln.split(":", 1)[1].strip()
        elif ln.startswith("representation:"):
            doc.representation = ln.split(":", 1)[1].strip()
        elif ln.startswith("param "):
            head, colon, val = ln.partition(":")
            if not colon:
                raise InputError(f"line {no}: expected 'param <key>: <value>', got {ln!r}")
            doc.params[head[6:].strip()] = val.strip()
        elif ln.startswith("entry:"):
            parts = ln.split(":", 1)[1].split()
            try:
                doc.entries.append(tuple(int(p) for p in parts))
            except ValueError:
                raise InputError(f"line {no}: non-integer table entry {ln!r}")
        else:
            raise InputError(f"line {no}: unrecognized line {ln!r}")
    if doc.kind not in ("coloring", "tree", "point"):
        raise InputError(f"unknown document kind {doc.kind!r}")
    if doc.representation not in ("table", "rule"):
        raise InputError(f"unknown representation {doc.representation!r}")
    return doc


def load_instance(doc: InstanceDocument):
    """Resolve a document to a structured instance."""
    if doc.kind == "coloring":
        if doc.representation == "rule":
            name = doc.params.get("rule", "")
            if name not in COLORING_RULES:
                raise InputError(f"unknown coloring rule {name!r}; known: {sorted(COLORING_RULES)}")
            return COLORING_RULES[name](doc.params)
        arity = _int_param(doc.params, "arity", 1)
        if arity < 1:
            raise InputError(f"param arity: must be >= 1, got {arity}")
        colors = doc.params.get("colors")
        colors = None if colors in (None, "omega", "w") else _int_param(doc.params, "colors", 0)
        table = {}
        for e in doc.entries:
            if len(e) != arity + 1:
                raise InputError(f"table entry {e} does not match arity {arity}")
            t, c = e[:-1], e[-1]
            if c < 0 or (colors is not None and c >= colors):
                raise InputError(f"color {c} out of range in entry {e}")
            if t[0] < 0 or any(a >= b for a, b in zip(t, t[1:])):
                raise InputError(f"table entry {e}: {t} is not an increasing tuple of naturals")
            if t in table:
                raise InputError(f"table entry {e} repeats the tuple {t}")
            table[t] = c

        def rule(t):
            if t in table:
                return table[t]
            raise InputError(f"tuple {t} outside the declared table domain")

        return Coloring(arity, colors, rule, "table")
    if doc.kind == "tree":
        if doc.representation == "rule":
            name = doc.params.get("rule", "")
            if name not in TREE_RULES:
                raise InputError(f"unknown tree rule {name!r}; known: {sorted(TREE_RULES)}")
            return TREE_RULES[name](doc.params)
        members = {tuple(e) for e in doc.entries} | {()}
        for m in members:
            if any(b not in (0, 1) for b in m):
                raise InputError(f"table tree entry {m} is not a string of bits")
            if m and m[:-1] not in members:
                raise InputError(f"table tree is not downward closed at {m}")
        return TreeByRule(lambda s: s.bits in members, "table-tree")
    # point
    if doc.representation == "rule":
        name = doc.params.get("rule", "")
        if name not in POINT_RULES:
            raise InputError(f"unknown point rule {name!r}; known: {sorted(POINT_RULES)}")
        return POINT_RULES[name](doc.params)
    bits = [b for e in doc.entries for b in e]
    tail = _int_param(doc.params, "tail", 0)
    for b in [*bits, tail]:
        if b not in (0, 1):
            raise InputError(f"point bit {b} is not 0/1 (entries and tail are bits)")
    return Point.from_bits(bits, tail=tail)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ReportRow:
    case_id: str
    entry: str
    check: str
    status: str  # pass | fail | inconclusive | error
    detail: str
    seed: int
    horizon: int
    fuel: int


@dataclass
class Report:
    rows: list[ReportRow] = field(default_factory=list)

    HEADER = ("case_id", "entry", "check", "status", "detail", "seed", "horizon", "fuel")

    def add(self, row: ReportRow) -> None:
        self.rows.append(row)

    def sorted_rows(self) -> list[ReportRow]:
        return sorted(self.rows, key=lambda r: (r.entry, r.case_id, r.check))

    def to_csv(self) -> str:
        def esc(v: str) -> str:
            s = str(v)
            if any(c in s for c in ",\"\n"):
                return '"' + s.replace('"', '""') + '"'
            return s

        lines = [",".join(self.HEADER)]
        for r in self.sorted_rows():
            lines.append(",".join(esc(v) for v in (
                r.case_id, r.entry, r.check, r.status, r.detail, r.seed, r.horizon, r.fuel)))
        return "\n".join(lines) + "\n"

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.rows:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def exit_code(self) -> int:
        worst = EXIT_PASS
        for r in self.rows:
            if r.status == "fail":
                worst = max(worst, EXIT_FAIL)
            elif r.status == "error":
                worst = max(worst, EXIT_CONTRACT if r.detail.startswith("contract:")
                            else EXIT_RESOURCE)
        return worst


@dataclass(frozen=True)
class SuiteConfig:
    samples: int = 25
    horizon: int = 16
    size: int = 4
    fuel: int = 4096
    seed: int = 0


def run_suite(selector: str, config: SuiteConfig) -> Report:
    """Generic soundness plus entry-specific invariants for the selection.

    An entry that ends in a resource or a contract error becomes one
    `error` row, and the run goes on with the next entry.  A RecursionError
    counts as a contract error: no entry is meant to nest that deep.
    """
    if min(config.samples, config.fuel) < 0 or min(config.size, config.horizon) < 1:
        raise InputError(f"need samples and fuel >= 0 and size and horizon >= 1, got {config}")
    if selector == "all":
        ids = sorted(ENTRIES)
    elif selector in ENTRIES:
        ids = [selector]
    else:
        raise InputError(f"unknown selector {selector!r}; see `wred list`")
    report = Report()
    for entry_id in ids:
        rng = random.Random(config.seed)
        try:
            rows = run_entry(entry_id, rng, config.samples, config.horizon, config.size,
                             config.fuel)
        except (ResourceError, ContractError, RecursionError) as e:
            detail = (f"resource: {e} {e.context}" if isinstance(e, ResourceError)
                      else f"contract: {e}")
            report.add(ReportRow(entry_id, entry_id, "run", "error", detail, config.seed,
                                 config.horizon, config.fuel))
            continue
        for row in rows:
            report.add(ReportRow(row.case, entry_id, row.check, row.status, row.detail,
                                 config.seed, config.horizon, config.fuel))
    return report
