"""Dataflow dispatch under random pipelines: random DAGs with dividers,
random per-filter sleeps of 0-2 ms and random failing filters. Whatever
the worker count, each frame must leave the same store, or the run must
blame the same filter with the same exception type. The draws are
derandomized, so the suite stays deterministic.
"""

import json
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fieldkit.errors import FilterError, InputError  # noqa: E402
from fieldkit.pipeline_scheduler import RunContext, compute_batches, parse_pipeline, run_frame  # noqa: E402

FRAMES = 3


@st.composite
def pipelines(draw):
    """A pipeline document, each filter's sleep, and the (frame, exception
    type) at which some filters fail. Names are a permutation of the
    creation order, so rank and wiring order differ."""
    n = draw(st.integers(1, 8))
    names = [f"f{i}" for i in draw(st.permutations(range(n)))]
    filters, produced = [], ["frame"]
    for name in names:
        inputs = draw(st.lists(st.sampled_from(produced), max_size=3, unique=True))
        filters.append({"name": name, "inputs": inputs, "outputs": [f"s_{name}"],
                        "divider": draw(st.integers(1, 2))})
        produced.append(f"s_{name}")
    sleeps = {name: draw(st.floats(0.0, 0.002)) for name in names}
    failures = draw(st.dictionaries(st.sampled_from(names),
                                    st.tuples(st.integers(0, FRAMES - 1),
                                              st.sampled_from([RuntimeError, InputError])),
                                    max_size=3))
    return json.dumps({"source_slots": ["frame"], "filters": filters}), sleeps, failures


def filter_fn(name, output, sleep, failure):
    def fn(inputs):
        time.sleep(sleep)
        if failure is not None and failure[0] == inputs["frame"]:
            raise failure[1](name)
        return {output: (name, tuple(sorted(inputs.items())))}
    return fn


def outcomes(plan, registry, workers):
    """Per frame, the store it left, or the blamed filter and exception type."""
    ctx = RunContext(max_workers=workers)
    seen = []
    try:
        for k in range(FRAMES):
            ctx.sources = {"frame": k}
            try:
                seen.append(dict(run_frame(plan, registry, k, ctx)))
            except FilterError as err:
                seen.append((err.filter_name, type(err.__cause__)))
                break
            except InputError as err:
                seen.append((str(err), InputError))
                break
    finally:
        ctx.close()
    return seen


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pipelines())
def test_worker_count_changes_neither_store_nor_blame(drawn):
    document, sleeps, failures = drawn
    spec = parse_pipeline(document)
    plan = compute_batches(spec)
    registry = {f.name: filter_fn(f.name, f.outputs[0], sleeps[f.name], failures.get(f.name))
                for f in spec.filters}
    inline = outcomes(plan, registry, 1)
    assert outcomes(plan, registry, 2) == inline
    assert outcomes(plan, registry, 4) == inline
