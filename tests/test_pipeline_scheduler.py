import json
import math
import threading
import time

import numpy as np
import pytest

from fieldkit.errors import CycleError, DuplicateProducer, FilterError, InputError, UnknownSlot
from fieldkit.pipeline_scheduler import (
    EMPTY,
    LOG_LIMIT,
    RunContext,
    compute_batches,
    parse_pipeline,
    run_frame,
    run_frames,
)


def doc(filters, sources=("frame",)):
    return json.dumps({"source_slots": list(sources), "filters": filters})


def passthrough(outputs):
    def fn(inputs):
        return {o: ("v", tuple(sorted(inputs))) for o in outputs}
    return fn


# --- parsing and validation --------------------------------------------------

def test_parse_linear_chain():
    spec = parse_pipeline(doc([
        {"name": "a", "inputs": ["frame"], "outputs": ["x"]},
        {"name": "b", "inputs": ["x"], "outputs": ["y"]},
        {"name": "c", "inputs": ["y"], "outputs": ["z"]},
    ]))
    assert [f.name for f in spec.filters] == ["a", "b", "c"]
    assert spec.by_name()["b"].frequency_divider == 1


def test_parse_cycle_names_the_cycle():
    with pytest.raises(CycleError) as err:
        parse_pipeline(doc([
            {"name": "a", "inputs": ["sb"], "outputs": ["sa"]},
            {"name": "b", "inputs": ["sa"], "outputs": ["sb"]},
        ]))
    assert set(err.value.cycle) >= {"a", "b"}


@pytest.mark.parametrize("tail", ["d", "_d"])  # "_d" sorts before the loop
def test_cycle_error_names_exactly_the_loop(tail):
    # a reads b's output, b reads c's and c reads a's; the tail only reads
    # the loop and e is independent, so neither belongs to the cycle
    with pytest.raises(CycleError) as err:
        parse_pipeline(doc([
            {"name": tail, "inputs": ["sc"], "outputs": ["sd"]},
            {"name": "a", "inputs": ["sb"], "outputs": ["sa"]},
            {"name": "b", "inputs": ["sc", "frame"], "outputs": ["sb"]},
            {"name": "c", "inputs": ["sa"], "outputs": ["sc"]},
            {"name": "e", "inputs": ["frame"], "outputs": ["se"]},
        ]))
    cycle = err.value.cycle
    assert cycle[0] == cycle[-1] and len(cycle) == 4
    rotations = [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]]
    assert cycle[:-1] in rotations
    assert tail not in cycle and "e" not in cycle
    assert str(err.value) == "dependency cycle: " + " -> ".join(cycle)


def test_parse_unknown_slot():
    with pytest.raises(UnknownSlot) as err:
        parse_pipeline(doc([{"name": "a", "inputs": ["foo"], "outputs": ["x"]}]))
    assert err.value.slot == "foo" and err.value.filter_name == "a"


def test_parse_duplicate_producer():
    with pytest.raises(DuplicateProducer) as err:
        parse_pipeline(doc([
            {"name": "a", "inputs": ["frame"], "outputs": ["x"]},
            {"name": "b", "inputs": ["frame"], "outputs": ["x"]},
        ]))
    assert err.value.slot == "x"


def test_parse_self_feeding_filter_rejected():
    with pytest.raises(InputError):
        parse_pipeline(doc([{"name": "a", "inputs": ["x"], "outputs": ["x"]}]))


def test_parse_bad_json():
    with pytest.raises(InputError):
        parse_pipeline("{nope")


# --- batch computation -------------------------------------------------------

def test_diamond_batches():
    spec = parse_pipeline(doc([
        {"name": "A", "inputs": ["frame"], "outputs": ["a"]},
        {"name": "B", "inputs": ["a"], "outputs": ["b"]},
        {"name": "C", "inputs": ["a"], "outputs": ["c"]},
        {"name": "D", "inputs": ["b", "c"], "outputs": ["d"]},
    ]))
    plan = compute_batches(spec)
    assert plan.batches == (("A",), ("B", "C"), ("D",))


def test_chain_gives_singletons():
    n = 7
    filters = [{"name": f"f{i}", "inputs": [f"s{i}"], "outputs": [f"s{i+1}"]}
               for i in range(n)]
    spec = parse_pipeline(doc(filters, sources=("s0",)))
    plan = compute_batches(spec)
    assert len(plan.batches) == n
    assert all(len(b) == 1 for b in plan.batches)


def test_independent_filters_one_batch():
    filters = [{"name": f"f{i}", "inputs": ["frame"], "outputs": [f"o{i}"]}
               for i in range(5)]
    plan = compute_batches(parse_pipeline(doc(filters)))
    assert len(plan.batches) == 1
    assert plan.batches[0] == tuple(sorted(f"f{i}" for i in range(5)))


def test_batches_deterministic():
    filters = [
        {"name": "zeta", "inputs": ["frame"], "outputs": ["z"]},
        {"name": "alpha", "inputs": ["frame"], "outputs": ["a"]},
        {"name": "mid", "inputs": ["z", "a"], "outputs": ["m"]},
    ]
    a = compute_batches(parse_pipeline(doc(filters)))
    b = compute_batches(parse_pipeline(doc(filters)))
    assert a.batches == b.batches == (("alpha", "zeta"), ("mid",))


def random_dag(rng, n_filters):
    """Random layered DAG over source slot 'frame'."""
    filters = []
    produced = ["frame"]
    for i in range(n_filters):
        k = int(rng.integers(1, min(3, len(produced)) + 1))
        ins = list(rng.choice(produced, size=k, replace=False))
        out = f"slot{i}"
        filters.append({"name": f"f{i:02d}", "inputs": ins, "outputs": [out]})
        produced.append(out)
    return parse_pipeline(doc(filters))


def longest_path_depth(spec):
    producer = spec.producer_of()
    memo = {}

    def depth(name):
        if name not in memo:
            f = spec.by_name()[name]
            deps = [producer[s] for s in f.inputs if s in producer]
            memo[name] = 1 + (max(map(depth, deps)) if deps else 0)
        return memo[name]

    return max(depth(f.name) for f in spec.filters)


def test_batch_count_equals_longest_path():
    rng = np.random.default_rng(0)
    for _ in range(30):
        spec = random_dag(rng, int(rng.integers(2, 14)))
        plan = compute_batches(spec)
        assert len(plan.batches) == longest_path_depth(spec)


# --- frame execution ---------------------------------------------------------

def test_divider_two_runs_even_frames_only():
    spec = parse_pipeline(doc([
        {"name": "a", "inputs": ["frame"], "outputs": ["x"], "divider": 2},
    ]))
    plan = compute_batches(spec)
    ctx = RunContext(max_workers=1)
    runs = []
    registry = {"a": lambda inputs: (runs.append(1), {"x": len(runs)})[1]}
    for k in range(4):
        ctx.sources = {"frame": k}
        run_frame(plan, registry, k, ctx)
    assert len(runs) == 2  # frames 0 and 2


def test_divider_counts_over_f_frames():
    for d in (1, 2, 3, 5):
        for frames in (1, 7, 10, 12):
            spec = parse_pipeline(doc([
                {"name": "a", "inputs": ["frame"], "outputs": ["x"], "divider": d},
            ]))
            plan = compute_batches(spec)
            ctx = RunContext(max_workers=1)
            count = [0]

            def fn(inputs, count=count):
                count[0] += 1
                return {"x": count[0]}

            run_frames(plan, {"a": fn}, frames, ctx, frame_sources=lambda k: {"frame": k})
            assert count[0] == math.ceil(frames / d)


def test_skipped_filter_retains_outputs_and_consumers_read_them():
    spec = parse_pipeline(doc([
        {"name": "slow", "inputs": ["frame"], "outputs": ["s"], "divider": 2},
        {"name": "fast", "inputs": ["s"], "outputs": ["out"]},
    ]))
    plan = compute_batches(spec)
    ctx = RunContext(max_workers=1)
    seen = []
    registry = {
        "slow": lambda inputs: {"s": f"slow@{inputs['frame']}"},
        "fast": lambda inputs: (seen.append(inputs["s"]), {"out": inputs["s"]})[1],
    }
    for k in range(4):
        ctx.sources = {"frame": k}
        store = run_frame(plan, registry, k, ctx)
    assert seen == ["slow@0", "slow@0", "slow@2", "slow@2"]
    assert store["out"] == "slow@2"


def test_consumer_of_never_run_filter_sees_empty():
    spec = parse_pipeline(doc([
        {"name": "rare", "inputs": ["frame"], "outputs": ["r"], "divider": 4},
        {"name": "user", "inputs": ["r"], "outputs": ["u"]},
    ]))
    plan = compute_batches(spec)
    ctx = RunContext(max_workers=1)
    got = []
    registry = {
        "rare": lambda inputs: {"r": "ready"},
        "user": lambda inputs: (got.append(inputs["r"]), {"u": 0})[1],
    }
    ctx.sources = {"frame": 1}
    run_frame(plan, registry, 1, ctx)  # frame 1: rare skipped, never ran
    assert got == [EMPTY]


def test_dependency_timestamps_on_random_dags():
    rng = np.random.default_rng(1)
    for _ in range(20):
        spec = random_dag(rng, int(rng.integers(3, 10)))
        plan = compute_batches(spec)
        ctx = RunContext(max_workers=4)
        registry = {f.name: passthrough(f.outputs) for f in spec.filters}
        ctx.sources = {"frame": 0}
        try:
            run_frame(plan, registry, 0, ctx)
        finally:
            ctx.close()
        ends = {r.filter_name: r.end for r in ctx.log}
        starts = {r.filter_name: r.start for r in ctx.log}
        producer = spec.producer_of()
        for f in spec.filters:
            for slot in f.inputs:
                if slot in producer:
                    assert ends[producer[slot]] <= starts[f.name]


def test_parallel_batch_beats_serial():
    filters = [{"name": f"sleep{i}", "inputs": ["frame"], "outputs": [f"o{i}"]}
               for i in range(4)]
    spec = parse_pipeline(doc(filters))
    plan = compute_batches(spec)

    def sleeper(inputs):
        time.sleep(0.05)
        return {}

    registry = {f["name"]: (lambda o: lambda inputs: (time.sleep(0.05), {o: 1})[1])(f["outputs"][0])
                for f in filters}
    ctx_par = RunContext(max_workers=4)
    ctx_par.sources = {"frame": 0}
    try:
        t0 = time.perf_counter()
        run_frame(plan, registry, 0, ctx_par)
        parallel = time.perf_counter() - t0
    finally:
        ctx_par.close()

    ctx_ser = RunContext(max_workers=1)
    ctx_ser.sources = {"frame": 0}
    t0 = time.perf_counter()
    run_frame(plan, registry, 0, ctx_ser)
    serial = time.perf_counter() - t0
    assert serial >= 0.2
    assert parallel <= 0.12  # roughly one sleep + pool overhead


def test_filter_error_stops_later_batches():
    spec = parse_pipeline(doc([
        {"name": "boom", "inputs": ["frame"], "outputs": ["x"]},
        {"name": "after", "inputs": ["x"], "outputs": ["y"]},
    ]))
    plan = compute_batches(spec)
    ran = []

    def boom(inputs):
        raise RuntimeError("kaput")

    registry = {"boom": boom, "after": lambda inputs: (ran.append(1), {"y": 1})[1]}
    ctx = RunContext(max_workers=1)
    ctx.sources = {"frame": 0}
    with pytest.raises(FilterError) as err:
        run_frame(plan, registry, 0, ctx)
    assert err.value.filter_name == "boom"
    assert ran == []


def test_output_contract_enforced():
    spec = parse_pipeline(doc([
        {"name": "bad", "inputs": ["frame"], "outputs": ["x", "y"]},
    ]))
    plan = compute_batches(spec)
    ctx = RunContext(max_workers=1)
    ctx.sources = {"frame": 0}
    with pytest.raises(InputError):
        run_frame(plan, {"bad": lambda inputs: {"x": 1}}, 0, ctx)


def three_filter_batch():
    spec = parse_pipeline(doc([{"name": n, "inputs": ["frame"], "outputs": [f"o_{n}"]}
                               for n in "abc"]))
    plan = compute_batches(spec)
    assert plan.batches == (("a", "b", "c"),)
    return plan


def test_one_worker_runs_inline_without_a_pool():
    plan = three_filter_batch()
    threads = []

    def record(out):
        def fn(inputs):
            threads.append(threading.current_thread())
            return {out: 1}
        return fn

    ctx = RunContext(max_workers=1)
    for k in range(3):
        ctx.sources = {"frame": k}
        run_frame(plan, {n: record(f"o_{n}") for n in "abc"}, k, ctx)
    assert threads == [threading.current_thread()] * 9
    assert ctx._pool is None


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failure_in_batch_order_is_blamed(workers):
    plan = three_filter_batch()
    ran = []

    def a(inputs):
        raise RuntimeError("kaput")

    def b(inputs):
        ran.append("b")
        return {"wrong": 1}  # breaks the output contract: an InputError

    def c(inputs):
        ran.append("c")
        return {"o_c": 1}

    ctx = RunContext(max_workers=workers)
    ctx.sources = {"frame": 0}
    try:
        with pytest.raises(FilterError) as err:
            run_frame(plan, {"a": a, "b": b, "c": c}, 0, ctx)
    finally:
        ctx.close()
    assert err.value.filter_name == "a"
    assert isinstance(err.value.__cause__, RuntimeError)
    # inline, the batch stops at the failure; pooled, the whole batch ran
    assert sorted(ran) == ([] if workers == 1 else ["b", "c"])
    assert ctx.store["o_c"] is EMPTY  # nothing of a failed batch is published


def test_parallel_frames_reuse_one_pool():
    spec = parse_pipeline(doc([{"name": f"f{i}", "inputs": ["frame"], "outputs": [f"o{i}"]}
                               for i in range(3)]))
    plan = compute_batches(spec)
    threads = set()

    def record(outputs):
        def fn(inputs):
            threads.add(threading.current_thread().name)
            return {o: 1 for o in outputs}
        return fn

    registry = {f.name: record(f.outputs) for f in spec.filters}
    # compare thread sets, not counts: pools of earlier tests may still be exiting
    before = set(threading.enumerate())
    ctx = RunContext(max_workers=2)
    try:
        for k in range(100):
            ctx.sources = {"frame": k}
            run_frame(plan, registry, k, ctx)
            assert len(set(threading.enumerate()) - before) <= 2
    finally:
        ctx.close()
    assert len(threads) <= 2
    assert not set(threading.enumerate()) - before


def test_batch_finishes_before_raising():
    spec = parse_pipeline(doc([
        {"name": "a_bad", "inputs": ["frame"], "outputs": ["x"]},
        {"name": "b_slow", "inputs": ["frame"], "outputs": ["y"]},
    ]))
    plan = compute_batches(spec)
    done = []

    def slow(inputs):
        time.sleep(0.1)
        done.append(1)
        return {"y": 1}

    ctx = RunContext(max_workers=2)
    ctx.sources = {"frame": 0}
    try:
        with pytest.raises(InputError):  # a_bad breaks the output contract
            run_frame(plan, {"a_bad": lambda inputs: {}, "b_slow": slow}, 0, ctx)
        assert done == [1]
    finally:
        ctx.close()


def test_log_stays_bounded_over_long_runs():
    spec = parse_pipeline(doc([
        {"name": "a", "inputs": ["frame"], "outputs": ["x"]},
        {"name": "b", "inputs": ["x"], "outputs": ["y"]},
    ]))
    plan = compute_batches(spec)
    registry = {f.name: passthrough(f.outputs) for f in spec.filters}
    ctx = RunContext(max_workers=1)
    run_frames(plan, registry, 10_000, ctx, frame_sources=lambda k: {"frame": k})
    assert len(ctx.log) == LOG_LIMIT
    assert [(r.filter_name, r.frame_index) for r in list(ctx.log)[-2:]] == \
        [("a", 9999), ("b", 9999)]


# --- dataflow dispatch and frame publishing ---------------------------------

def failing(exc_type, record, name):
    def fn(inputs):
        record[name] = time.perf_counter()
        raise exc_type("kaput")
    return fn


def sleeping(seconds, outputs):
    def fn(inputs):
        time.sleep(seconds)
        return {o: ("v", tuple(sorted(inputs))) for o in outputs}
    return fn


def test_late_fast_failure_waits_for_an_earlier_ranked_failure():
    # ranks: a_slow 0, b_quick 1, c_early 2, d_quick 3, e_late 4; e_late fails
    # first in time, while c_early still waits for a_slow, but c_early ranks first
    spec = parse_pipeline(doc([
        {"name": "a_slow", "inputs": ["frame"], "outputs": ["x"]},
        {"name": "b_quick", "inputs": ["frame"], "outputs": ["q0"]},
        {"name": "c_early", "inputs": ["x"], "outputs": ["y"]},
        {"name": "d_quick", "inputs": ["q0"], "outputs": ["q1"]},
        {"name": "e_late", "inputs": ["q1"], "outputs": ["z"]},
    ]))
    plan = compute_batches(spec)
    assert plan.batches == (("a_slow", "b_quick"), ("c_early", "d_quick"), ("e_late",))
    failed_at = {}
    registry = {"a_slow": sleeping(0.1, ["x"]), "b_quick": passthrough(["q0"]),
                "c_early": failing(RuntimeError, record=failed_at, name="c_early"),
                "d_quick": passthrough(["q1"]),
                "e_late": failing(ValueError, record=failed_at, name="e_late")}
    ctx = RunContext(max_workers=2)
    ctx.sources = {"frame": 0}
    try:
        with pytest.raises(FilterError) as err:
            run_frame(plan, registry, 0, ctx)
    finally:
        ctx.close()
    assert failed_at["e_late"] < failed_at["c_early"]  # the late filter did fail first
    assert err.value.filter_name == "c_early"
    assert isinstance(err.value.__cause__, RuntimeError)


def test_filter_starts_when_its_producers_end_not_its_batch():
    spec = parse_pipeline(doc([
        {"name": "a_fast", "inputs": ["frame"], "outputs": ["x"]},
        {"name": "b_slow", "inputs": ["frame"], "outputs": ["y"]},
        {"name": "c", "inputs": ["x"], "outputs": ["z"]},
    ]))
    plan = compute_batches(spec)
    assert plan.batches == (("a_fast", "b_slow"), ("c",))
    registry = {"a_fast": passthrough(["x"]), "b_slow": sleeping(0.1, ["y"]),
                "c": passthrough(["z"])}
    ctx = RunContext(max_workers=2)
    ctx.sources = {"frame": 0}
    try:
        run_frame(plan, registry, 0, ctx)
    finally:
        ctx.close()
    records = {r.filter_name: r for r in ctx.log}
    assert records["a_fast"].end <= records["c"].start < records["b_slow"].end


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_frame_publishes_nothing(workers):
    # a and b succeed on frame 1 before c fails; the store keeps frame 0
    spec = parse_pipeline(doc([
        {"name": "a", "inputs": ["frame"], "outputs": ["x"]},
        {"name": "b", "inputs": ["frame"], "outputs": ["y"]},
        {"name": "c", "inputs": ["x", "y"], "outputs": ["z"]},
    ]))
    plan = compute_batches(spec)

    def c(inputs):
        if inputs["x"] == 1:
            raise RuntimeError("kaput")
        return {"z": inputs["x"]}

    registry = {"a": lambda inputs: {"x": inputs["frame"]},
                "b": lambda inputs: {"y": inputs["frame"]}, "c": c}
    ctx = RunContext(max_workers=workers)
    try:
        ctx.sources = {"frame": 0}
        run_frame(plan, registry, 0, ctx)
        frame0 = dict(ctx.store)
        ctx.sources = {"frame": 1}
        with pytest.raises(FilterError):
            run_frame(plan, registry, 1, ctx)
    finally:
        ctx.close()
    assert [r.filter_name for r in ctx.log if r.frame_index == 1] in (["a", "b"], ["b", "a"])
    assert ctx.store == frame0 == {"frame": 0, "x": 0, "y": 0, "z": 0}
