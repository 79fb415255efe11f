"""Instance file parsing, validation, and report serialization.

The on-disk format is a versioned JSON object with integer data only; the
implicit z >= 0 rows are never stored. parse_instance checks the document's
structure: a JSON object, a known format_version, the required fields, the
variant and the name. It hands the data fields to Instance as read, and
Instance checks them once, from their lists of rows to every entry.
Reports serialize with a fixed key order and all rationals in lowest terms
so equal runs produce identical bytes. report_to_dict gives a report's JSON
document; report_to_json writes the same document directly, byte for byte
the text of json.dumps(report_to_dict(report), indent=2) and a newline,
with no encoder.
"""
from __future__ import annotations

import json
from typing import Optional

from .cells import Instance
from .engine import MIXED, PURE, SolveReport
from .errors import ValidationError
from .rational import format_rat

_REQUIRED = ("n", "d", "A", "B", "C", "D", "c", "e", "psi", "u", "p")
_VARIANTS = (MIXED, PURE)


def parse_instance(text: str):
    """(Instance, meta) from JSON text; meta carries name and variant."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("bad-json", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("bad-format", "top level must be a JSON object")
    version = doc.get("format_version", 1)
    if type(version) is not int or version != 1:
        raise ValidationError("bad-format", f"unsupported format_version {version!r}")
    for key in _REQUIRED:
        if key not in doc:
            raise ValidationError("bad-format", f"missing field {key!r}")
    variant = doc.get("variant", MIXED)
    if variant not in _VARIANTS:
        raise ValidationError("bad-variant", f"variant must be one of {_VARIANTS}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ValidationError("bad-format", "name must be a string")
    inst = Instance(**{key: doc[key] for key in _REQUIRED})
    return inst, {"name": name, "variant": variant}


def load_instance(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # a missing file, or one not UTF-8
        raise ValidationError("unreadable", f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def parse_and_validate(path) -> Instance:
    """Validated Instance from a file; boundedness checks included."""
    return load_instance(path)[0]


def instance_to_json(inst: Instance, name: Optional[str] = None,
                     variant: str = MIXED) -> str:
    doc = {"format_version": 1}
    if name is not None:
        doc["name"] = name
    doc["variant"] = variant
    doc.update({
        "n": inst.n, "d": inst.d,
        "A": [list(row) for row in inst.A], "B": [list(row) for row in inst.B],
        "C": [list(row) for row in inst.C], "D": [list(row) for row in inst.D],
        "c": list(inst.c), "e": list(inst.e), "psi": list(inst.psi),
        "u": list(inst.u), "p": list(inst.p),
    })
    return json.dumps(doc, indent=2) + "\n"


def _solution_out(solution) -> Optional[dict]:
    if solution is None:
        return None
    x, z = solution
    return {"x": [int(v) for v in x], "z": [format_rat(f) for f in z.entries]}


def report_to_dict(report: SolveReport) -> dict:
    doc = {
        "status": report.status.lower(),
        "infimum": None if report.infimum is None else format_rat(report.infimum),
        "solution": _solution_out(report.solution),
        "eps_solution": None,
        "telemetry": report.telemetry.as_dict(),
    }
    if report.eps_solution is not None:
        es = report.eps_solution
        doc["eps_solution"] = {
            "x": [int(v) for v in es.x],
            "z": [format_rat(f) for f in es.z.entries],
            "value": format_rat(es.value),
            "eps": format_rat(es.eps),
        }
    if report.oracle_agreement is not None:
        doc["oracle_agreement"] = report.oracle_agreement
    return doc


def _json_block(open_: str, close: str, items: list, indent: str) -> str:
    """A JSON array or object whose items are already written, one per line
    at indent + 2 spaces, as json.dumps(indent=2) lays them out."""
    if not items:
        return open_ + close
    inner = indent + "  "
    return f"{open_}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{close}"


def _json_point(x, z, extra: list, indent: str) -> str:
    """The object {"x": [...], "z": [...]} and the written items `extra`."""
    inner = indent + "  "
    items = [f'"x": {_json_block("[", "]", [str(int(v)) for v in x], inner)}',
             f'"z": {_json_block("[", "]", [_quoted(f) for f in z.entries], inner)}']
    return _json_block("{", "}", items + extra, indent)


def _quoted(value) -> str:
    return f'"{format_rat(value)}"'  # digits, "-" and "/": nothing to escape


def report_to_json(report: SolveReport) -> str:
    """The bytes of json.dumps(report_to_dict(report), indent=2) + "\n",
    written directly: the schema is fixed and every string in it is a
    lower-case status or a format_rat rational, so nothing needs escaping,
    and the standard library serves indent=2 with its pure-Python encoder."""
    status = f'"{report.status.lower()}"'
    infimum = "null" if report.infimum is None else _quoted(report.infimum)
    solution = "null"
    if report.solution is not None:
        solution = _json_point(*report.solution, [], "  ")
    eps_solution = "null"
    if report.eps_solution is not None:
        es = report.eps_solution
        eps_solution = _json_point(es.x, es.z, [f'"value": {_quoted(es.value)}',
                                                f'"eps": {_quoted(es.eps)}'], "  ")
    telemetry = _json_block("{", "}", [f'"{key}": {value}' for key, value
                                       in report.telemetry.as_dict().items()], "  ")
    items = [f'"status": {status}', f'"infimum": {infimum}', f'"solution": {solution}',
             f'"eps_solution": {eps_solution}', f'"telemetry": {telemetry}']
    if report.oracle_agreement is not None:
        items.append(f'"oracle_agreement": {"true" if report.oracle_agreement else "false"}')
    return _json_block("{", "}", items, "") + "\n"


def render_text(report: SolveReport) -> str:
    lines = [f"status: {report.status.lower()}"]
    if report.infimum is not None:
        lines.append(f"infimum: {format_rat(report.infimum)}")
    if report.solution is not None:
        x, z = report.solution
        xs = ", ".join(str(int(v)) for v in x)
        zs = ", ".join(format_rat(f) for f in z.entries)
        lines.append(f"solution: x = ({xs}), z = ({zs})")
    if report.eps_solution is not None:
        es = report.eps_solution
        xs = ", ".join(str(int(v)) for v in es.x)
        zs = ", ".join(format_rat(f) for f in es.z.entries)
        lines.append(f"eps point: x = ({xs}), z = ({zs}), "
                     f"value = {format_rat(es.value)}, eps = {format_rat(es.eps)}")
    t = report.telemetry
    lines.append(f"telemetry: decision_queries={t.decision_queries} "
                 f"bisection_steps={t.bisection_steps} "
                 f"reconstruction_steps={t.reconstruction_steps} cells={t.cells}")
    if report.oracle_agreement is not None:
        lines.append(f"oracle agreement: {'yes' if report.oracle_agreement else 'no'}")
    return "\n".join(lines) + "\n"
