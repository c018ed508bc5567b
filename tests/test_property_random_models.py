"""Property tests over randomly generated CNN graphs.

Hypothesis builds small random models (chains with optional branches,
pooling, upsampling, concats and residual adds), and the whole compiler
stack must uphold its invariants on every one of them:

* schedules are dependency- and resource-valid;
* CLSA-CIM never loses to layer-by-layer;
* busy cycles (total work) are conserved across configurations;
* the duplication rewrite preserves numerical semantics;
* Eq. 3 links utilizations and speedups exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import CrossbarSpec, paper_case_study
from repro.core import ScheduleOptions, SetGranularity, compile_model
from repro.frontend import preprocess
from repro.ir import Executor, GraphBuilder
from repro.mapping import minimum_pe_requirement
from repro.sim import evaluate, speedup_eq3
from repro.verify import assert_schedule


@st.composite
def random_models(draw):
    """A small random CNN with realistic structural variety."""
    b = GraphBuilder("random")
    size = draw(st.sampled_from([8, 12, 16]))
    x = b.input((size, size, 2), name="in")
    current_size = size
    num_blocks = draw(st.integers(1, 3))
    for _ in range(num_blocks):
        choice = draw(st.sampled_from(["conv", "conv_pool", "branch", "residual"]))
        channels = draw(st.sampled_from([2, 4, 6]))
        kernel = draw(st.sampled_from([1, 3]))
        if choice == "conv":
            x = b.conv2d(x, channels, kernel=kernel, padding="same", use_bias=True)
            x = b.relu(x)
        elif choice == "conv_pool" and current_size >= 4:
            x = b.conv2d(x, channels, kernel=kernel, padding="same", use_bias=True)
            x = b.maxpool(x, 2)
            current_size //= 2
        elif choice == "branch":
            left = b.conv2d(x, channels, kernel=kernel, padding="same", use_bias=True)
            right = b.conv2d(x, channels, kernel=1, padding="same", use_bias=True)
            x = b.concat([left, right])
        else:  # residual
            inner = b.conv2d(x, channels, kernel=kernel, padding="same", use_bias=True)
            skip = b.conv2d(x, channels, kernel=1, padding="same", use_bias=True)
            x = b.add([inner, skip])
            x = b.relu(x)
    return b.graph


@settings(max_examples=25, deadline=None)
@given(model=random_models())
def test_property_compiler_invariants(model):
    canonical = preprocess(model, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    arch = paper_case_study(min_pes + 4)

    compiled = {}
    for mapping in ("none", "wdup"):
        for scheduling in ("layer-by-layer", "clsa-cim"):
            options = ScheduleOptions(mapping=mapping, scheduling=scheduling)
            compiled[options.paper_name] = compile_model(
                canonical, arch, options, assume_canonical=True
            )

    # 1. schedule validity (resource + data dependencies)
    for result in compiled.values():
        result.schedule.validate_intra_layer_order()
        if result.dependencies is not None:
            assert_schedule(result.schedule, result.dependencies)

    # 2. cross-layer never loses to layer-by-layer at equal mapping
    assert (
        compiled["xinf"].latency_cycles
        <= compiled["layer-by-layer"].latency_cycles
    )
    assert compiled["wdup+xinf"].latency_cycles <= compiled["wdup"].latency_cycles

    # 3. total work conserved
    totals = set()
    for result in compiled.values():
        busy = result.schedule.busy_cycles()
        totals.add(
            sum(
                result.placement.tilings[layer].num_pes * cycles
                for layer, cycles in busy.items()
            )
        )
    assert len(totals) == 1

    # 4. Eq. 3 is exact
    baseline = evaluate(compiled["layer-by-layer"])
    for name in ("wdup", "xinf", "wdup+xinf"):
        metrics = evaluate(compiled[name])
        assert speedup_eq3(metrics, baseline) == pytest.approx(
            metrics.speedup_over(baseline), rel=1e-9
        )


@settings(max_examples=15, deadline=None)
@given(model=random_models(), batch_size=st.integers(2, 4))
def test_property_csr_and_python_engines_identical(model, batch_size):
    """The columnar kernels match the reference schedulers set-for-set.

    For every random graph: static, dynamic and batch schedules are
    identical point-wise between ``engine='csr'`` and
    ``engine='python'``, and the array-backed simulator replay
    reproduces the analytical makespan of both.
    """
    from repro.core import cross_layer_schedule_batch
    from repro.sim import simulate

    canonical = preprocess(model, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    arch = paper_case_study(min_pes + 4)

    def keys(schedule):
        return sorted(
            (t.layer, t.set_index, t.image, t.start, t.end, t.rect)
            for t in schedule.tasks
        )

    for order_mode in ("static", "dynamic"):
        compiled = {}
        for engine in ("csr", "python"):
            compiled[engine] = compile_model(
                canonical,
                arch,
                ScheduleOptions(order_mode=order_mode, engine=engine),
                assume_canonical=True,
            )
        assert keys(compiled["csr"].schedule) == keys(compiled["python"].schedule)
        assert_schedule(compiled["csr"].schedule, compiled["csr"].dependencies)

    csr, ref = compiled["csr"], compiled["python"]
    fast = cross_layer_schedule_batch(
        csr.mapped, csr.dependencies, batch_size, engine="csr"
    )
    slow = cross_layer_schedule_batch(
        ref.mapped, ref.dependencies, batch_size, engine="python"
    )
    assert keys(fast.schedule) == keys(slow.schedule)
    assert fast.image_spans == slow.image_spans

    for result in (csr, ref):
        replay = simulate(result)
        assert replay.finish_cycles == result.schedule.makespan


@settings(max_examples=25, deadline=None)
@given(
    model=random_models(),
    granularity=st.sampled_from(
        [
            SetGranularity(),
            SetGranularity(rows_per_set=3),
            SetGranularity(rows_per_set=None, target_sets=5),
        ]
    ),
    mapping=st.sampled_from(["none", "wdup"]),
)
def test_property_stage2_array_pass_matches_reference(model, granularity, mapping):
    """Stage II's array pass writes the reference walk's CSR exactly."""
    from repro.core import determine_dependencies, determine_sets, duplication_stage

    canonical = preprocess(model, quantization=None).graph
    graph = canonical
    if mapping == "wdup":
        arch = paper_case_study(minimum_pe_requirement(canonical, CrossbarSpec()) + 4)
        graph = duplication_stage(canonical, arch, ScheduleOptions(mapping="wdup"))[1].graph
    sets = determine_sets(graph, granularity)
    fast = determine_dependencies(graph, sets).arrays
    slow = determine_dependencies(graph, sets, use_index=False).arrays
    np.testing.assert_array_equal(fast.indptr, slow.indptr)
    np.testing.assert_array_equal(fast.indices, slow.indices)


@settings(max_examples=15, deadline=None)
@given(model=random_models(), seed=st.integers(0, 10_000))
def test_property_duplication_preserves_semantics(model, seed):
    """The wdup rewrite never changes the network's function."""
    model.initialize_weights(seed=seed)
    canonical = preprocess(model, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    arch = paper_case_study(min_pes + 3)
    compiled = compile_model(
        canonical, arch, ScheduleOptions(mapping="wdup"), assume_canonical=True
    )
    in_shape = canonical.shape_of(canonical.input_names()[0]).hwc
    image = np.random.default_rng(seed).normal(size=in_shape)
    expected = Executor(canonical).run(image)
    actual = Executor(compiled.mapped).run(image)
    expected_list = sorted(expected.values(), key=lambda a: a.shape)
    actual_list = sorted(actual.values(), key=lambda a: a.shape)
    for exp, act in zip(expected_list, actual_list):
        np.testing.assert_allclose(act, exp, atol=1e-10)
