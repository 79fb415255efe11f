"""Golden outputs of the two acceptance batches.

tests/golden/acceptance.json pins status, infimum, x* and z* of every solve
in conftest's session batches (mixed at MIXED_SEED, pure at PURE_SEED), so a
refactor that claims the same behaviour is checked against recorded answers.
Telemetry is left out: query counts may change while answers may not.

Regenerate (only when a change of answers is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import os
import random

from conftest import MIXED_SEED, PURE_SEED

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "acceptance.json")


def report_record(rep) -> dict:
    record = {"status": rep.status,
              "infimum": None if rep.infimum is None else str(rep.infimum)}
    if rep.solution is not None:
        x, z = rep.solution
        record["x"] = list(x)
        record["z"] = [str(v) for v in z.entries]
    return record


def batch_records(mixed_rows, pure_rows) -> dict:
    return {
        "mixed": {"seed": MIXED_SEED, "reports": [report_record(rep) for _, rep, _ in mixed_rows]},
        "pure": {"seed": PURE_SEED, "reports": [report_record(rep) for _, rep in pure_rows]},
    }


def test_acceptance_batches_match_golden(mixed_batch, pure_batch):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    got = batch_records(mixed_batch[0], pure_batch[0])
    for variant in ("mixed", "pure"):
        assert got[variant]["seed"] == golden[variant]["seed"]
        want = golden[variant]["reports"]
        have = got[variant]["reports"]
        assert len(have) == len(want)
        for i, (h, w) in enumerate(zip(have, want)):
            assert h == w, f"{variant} instance {i}: {h} != {w}"


def _write_golden():
    from bilevel_exact import random_instance, solve_mixed, solve_pure
    rng = random.Random(MIXED_SEED)
    mixed = [(None, solve_mixed(random_instance(rng)), None) for _ in range(220)]
    rng = random.Random(PURE_SEED)
    pure = [(None, solve_pure(random_instance(rng))) for _ in range(220)]
    doc = batch_records(mixed, pure)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n")
        for k, variant in enumerate(("mixed", "pure")):
            fh.write(f' "{variant}": {{"seed": {doc[variant]["seed"]}, "reports": [\n')
            fh.write(",\n".join("  " + json.dumps(r) for r in doc[variant]["reports"]))
            fh.write("\n ]}" + (",\n" if k == 0 else "\n"))
        fh.write("}\n")


if __name__ == "__main__":
    _write_golden()
