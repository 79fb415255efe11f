"""The mixed solve with one follower variable, which reads blocking-row
pieces, against the DecisionScan path that solved it before and still
solves n >= 2: infimum, lex_extract and eps_point on one scan stay the
judge. Also a counter ratchet at a box size that no cell listing reaches,
and the layers that such a solve must not reach."""
import random
import sys

import pytest

import support
from test_golden import BENCH, GRID_EPS, grid_instances
from bilevel_exact import (ATTAINED, UNATTAINED, bilevel_feasible, cells, decide,
                           denominator_cap, engine, linear, parse_instance, solve_mixed)
from bilevel_exact.errors import InfeasibleProblemError

DRAW_SHAPES = ((1, 2, 2, 8), (1, 2, 2, 16), (1, 3, 3, 3), (1, 6, 2, 2))


def draws(seed: int, shape: tuple, count: int) -> list:
    """`count` mixed grid_instance draws of one shape at one seed, as the
    benchmark's generator makes them."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import gen
    rng = random.Random(seed)
    return [parse_instance(gen.to_json(gen.grid_instance(rng, f"draw-{i}", shape, "mixed")))[0]
            for i in range(count)]


def _trace_fields(trace) -> tuple:
    if trace is None:
        return None
    return (trace.x_star, trace.r, trace.k, trace.vertices, trace.z_star,
            trace.delta_denominator)


def scan_answer(inst, eps) -> tuple:
    """status, infimum, solution, eps point and lex trace fields of the
    scan path: infimum, lex_extract and eps_point on one DecisionScan."""
    scan = decide.DecisionScan(inst)
    try:
        v_star = engine.infimum(scan)
    except InfeasibleProblemError:
        return "Infeasible", None, None, None, None
    trace = engine.lex_extract(scan, v_star)
    if trace is not None:
        return ATTAINED, v_star, (trace.x_star, trace.z_star), None, _trace_fields(trace)
    found = None if eps is None else engine.eps_point(scan, v_star, eps)
    return UNATTAINED, v_star, None, found, None


def solve_answer(inst, eps) -> tuple:
    rep = solve_mixed(inst, eps=eps)
    return rep.status, rep.infimum, rep.solution, rep.eps_solution, _trace_fields(rep.lex_trace)


def test_pieces_match_the_scan(mixed_batch):
    # every n = 1 instance of the mixed acceptance batch and of the
    # mixed-grid golden instances, with eps 1/8, and five draws at each of
    # seeds 7 and 1 of four shapes: equal reports, lex traces and eps points
    runs = [inst for inst, _, _ in mixed_batch[0]] + grid_instances()
    runs += [inst for shape in DRAW_SHAPES for seed in (7, 1) for inst in draws(seed, shape, 5)]
    runs = [inst for inst in runs if inst.n == 1]
    statuses = set()
    for i, inst in enumerate(runs):
        want = scan_answer(inst, GRID_EPS)
        assert solve_answer(inst, GRID_EPS) == want, f"run {i}"
        statuses.add(want[0])
    assert len(runs) == 265 and statuses == {ATTAINED, UNATTAINED, "Infeasible"}


def test_large_box_family_solves():
    # five seed-7 draws of (1, 2, 2, 10**6), solved with eps 1/8 under the
    # default caps, each answer checked by definition; 135 RhsFamily solves
    # when first measured, and it may only fall. A cell listing of these
    # draws would pass about K**3 cells
    insts = draws(7, (1, 2, 2, 10**6), 5)
    family_solve = linear.RhsFamily.solve
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear.RhsFamily, "solve",
                   lambda family, rhs: calls.append(family) or family_solve(family, rhs))
        reports = [solve_mixed(inst, eps=GRID_EPS) for inst in insts]
    assert len(calls) <= 135
    for inst, rep in zip(insts, reports):
        assert rep.status in (ATTAINED, UNATTAINED)
        assert rep.infimum.denominator <= denominator_cap(inst)
        if rep.status == ATTAINED:
            x, z = rep.solution
            assert bilevel_feasible(inst, x, z)
            assert inst.objective_value(x, z) == rep.infimum
        else:
            found = rep.eps_solution
            assert bilevel_feasible(inst, found.x, found.z)
            assert rep.infimum < inst.objective_value(found.x, found.z) <= rep.infimum + GRID_EPS


def test_one_variable_solve_reaches_no_cell_layer(mixed_batch):
    # with n = 1, solve_mixed with eps lists no cell: it reaches neither
    # the floor walk (valid_cells), the cell index, the integer walk of the
    # candidate x nor the leaf follower checks. Checked on the n = 1
    # instances of the mixed-grid golden set and the mixed acceptance batch
    insts = grid_instances() + [inst for inst, _, _ in mixed_batch[0]]
    insts = [inst for inst in insts if inst.n == 1]

    def refuse(real):
        def refused(*args):
            raise AssertionError(f"a solve with n = 1 reached {real.__name__}")
        return refused

    solved = 0
    with pytest.MonkeyPatch.context() as mp:
        for name in ("valid_cells", "cell_index", "integer_candidates", "_follower_improves"):
            support.plant(mp, cells, name, refuse)
        for inst in insts:
            solved += solve_mixed(inst, eps=GRID_EPS).infimum is not None
    assert solved > 120
