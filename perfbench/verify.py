"""Checks every answer of a run, outside the timed and traced regions.

Runs after the measured worker has exited, on instances it parses itself:

- attained: ``bilevel_feasible(x*, z*)``, objective at (x*, z*) equal to the
  infimum, infimum denominator at most ``denominator_cap``
- unattained with eps: the eps point is bilevel-feasible, its stated value is
  its objective, and it lies in (infimum, infimum + eps]
- mixed: status and infimum equal those of ``reference_oracle``
- decide: the answer is what the oracle's infimum and status imply

The answer digest hashes status, infimum, x*, z* and the eps point (or the
decide answer) of every op in plan order. Telemetry is left out on purpose:
a refactor may change the work done without changing any answer.
"""
from __future__ import annotations

import hashlib
import json

DIGEST_KEYS = ("status", "infimum", "solution", "eps_solution")

# ResourceLimitError messages name the cap only in words; map them to the
# SolverConfig field that was exceeded.
CAP_NAMES = (("cell enumeration cap", "cell_cap"), ("node cap", "node_cap"),
             ("integer point cap", "integer_point_cap"), ("basis cap", "basis_cap"))


def cap_name(message: str) -> str:
    for phrase, name in CAP_NAMES:
        if phrase in message:
            return name
    return "unknown cap"


def digest_line(op: dict, answer: str) -> str:
    if op["kind"] == "decide":
        return answer
    doc = json.loads(answer)
    return json.dumps({k: doc.get(k) for k in DIGEST_KEYS}, sort_keys=True)


def answer_digest(plan: dict, answers: list) -> str:
    h = hashlib.sha256()
    for i, (op, answer) in enumerate(zip(plan["ops"], answers)):
        line = "error" if answer is None else digest_line(op, answer)
        h.update(f"{i} {line}\n".encode())
    return h.hexdigest()


def check_ops(plan: dict, items: list) -> dict:
    """{op index: reason} for the wrong answers among (op index, answer) pairs."""
    verifier = Verifier(plan)
    bad = {}
    for i, answer in items:
        reason = verifier.check(plan["ops"][i], answer)
        if reason is not None:
            bad[i] = reason
    return bad


class Verifier:
    def __init__(self, plan: dict):
        import bilevel_exact as bx
        self.bx = bx
        self.plan = plan
        self._instances = {}
        self._oracle = {}

    def _instance(self, index: int):
        if index not in self._instances:
            self._instances[index] = self.bx.parse_and_validate(self.plan["files"][index])
        return self._instances[index]

    def oracle(self, index: int):
        if index not in self._oracle:
            self._oracle[index] = self.bx.reference_oracle(self._instance(index), "mixed")
        return self._oracle[index]

    def _value(self, inst, x, z):
        bx = self.bx
        return inst.objective_vector().dot(bx.QVector(list(x) + list(z.entries)))

    def check(self, op: dict, answer: str):
        """None when the answer is right, else the reason it is wrong."""
        bx = self.bx
        if op["kind"] == "decide":
            orc = self.oracle(op["file"])
            alpha = bx.parse_rat(op["alpha"])
            holds = orc.status != bx.INFEASIBLE and (
                orc.infimum < alpha or (orc.infimum == alpha and orc.status == bx.ATTAINED))
            expected = "0 true" if holds else "0 false"
            return None if answer == expected else f"decide gave {answer!r}, oracle implies {expected!r}"

        doc = json.loads(answer)
        inst = self._instance(op["file"])
        status = doc["status"]
        infimum = None if doc["infimum"] is None else bx.parse_rat(doc["infimum"])
        if op["kind"] == "mixed":
            orc = self.oracle(op["file"])
            if (status, infimum) != (orc.status.lower(), orc.infimum):
                return f"{status} {infimum} but the oracle says {orc.status.lower()} {orc.infimum}"
        if status == "attained":
            x = tuple(doc["solution"]["x"])
            z = bx.QVector([bx.parse_rat(s) for s in doc["solution"]["z"]])
            if op["kind"] == "pure" and not z.is_integral():
                return "pure solution has a fractional z"
            if not bx.bilevel_feasible(inst, x, z):
                return "solution is not bilevel feasible"
            if self._value(inst, x, z) != infimum:
                return "objective at the solution differs from the infimum"
            if infimum.denominator > bx.denominator_cap(inst):
                return "infimum denominator exceeds denominator_cap"
        elif status == "unattained":
            es = doc["eps_solution"]
            if op.get("eps") is not None:
                if es is None:
                    return "unattained without an eps point"
                eps = bx.parse_rat(op["eps"])
                x = tuple(es["x"])
                z = bx.QVector([bx.parse_rat(s) for s in es["z"]])
                value = bx.parse_rat(es["value"])
                if not bx.bilevel_feasible(inst, x, z):
                    return "eps point is not bilevel feasible"
                if self._value(inst, x, z) != value:
                    return "eps point value is misreported"
                if not infimum < value <= infimum + eps:
                    return "eps point is not within eps of the infimum"
        elif status != "infeasible":
            return f"unknown status {status!r}"
        return None

