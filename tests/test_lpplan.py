"""The plan writer: its chunks against the reference writer, and its memory."""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_instance, make_rates, random_probs, wide_single_triple
from qres.extform import build_extensive_form, render_lp
from qres.lpplan import _CHUNK_LINES, plan_form, plan_lp_chunks

# The scenarios whose lines fill one chunk in the objective and the rows.
_BATCH = _CHUNK_LINES // 3


def written_or_uniform(n: int) -> st.SearchStrategy:
    """Uniform (None) or n six-decimal probabilities; 1/n masses have no LP text."""
    written = st.randoms(use_true_random=False).map(lambda rng: random_probs(rng, n))
    return st.one_of(st.none(), written)


@st.composite
def instances_past_one_batch(draw):
    """One circuit on up to 2 x 2 machines, of more scenarios than one batch."""
    waits = draw(st.integers(1, 6))
    demands = _BATCH // waits + draw(st.integers(1, 60))
    micro = st.integers(0, 10_000_000)
    return make_instance(
        demand=range(lo := draw(st.integers(0, 5)), lo + 2 * demands, 2),
        wait=range(0, 1000 * waits, 1000),
        rates=make_rates(draw(micro), draw(micro), draw(micro), draw(micro)),
        capacity=draw(st.integers(0, 2 * demands)),
        exec_time=draw(st.integers(0, 1000 * waits)),
        providers=draw(st.integers(1, 2)),
        machines_per_provider=draw(st.integers(1, 2)),
        demand_probs=draw(written_or_uniform(demands)),
        wait_probs=draw(written_or_uniform(waits)),
    )


@settings(derandomize=True, max_examples=10, deadline=None)
@given(instance=instances_past_one_batch())
def test_the_chunks_join_to_the_reference_text(instance):
    plans = plan_form(instance)
    assert max(len(plan.space) for plan in plans) > _BATCH
    chunks = list(plan_lp_chunks(plans))
    assert "".join(chunks) == render_lp(build_extensive_form(instance))
    for chunk in chunks:
        assert chunk.endswith("\n")
        assert chunk.count("\n") <= _CHUNK_LINES


def test_writing_a_wide_triple_holds_its_plan_and_a_few_chunks():
    # 200,000 scenarios make about 60 MiB of text; the writer holds one
    # batch of lines and the chunk it makes, never a triple's lines.
    plans = plan_form(wide_single_triple())
    longest = 0
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for chunk in plan_lp_chunks(plans):
            longest = max(longest, len(chunk))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < longest < 2**20
    assert peak - start < 6 * longest
