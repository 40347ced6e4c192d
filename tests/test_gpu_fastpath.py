"""The fast simulator backend: bitwise parity, fallback, selection, and
the content-keyed profile cache.

Parity is the whole contract: the ``fast`` backend must produce a
:class:`KernelProfile` whose counters are *bitwise identical* to the
reference interpreter's on every launch — including the order-sensitive
cache-hierarchy counters (``dram_writes`` depends on raw-``set``
iteration order inside :func:`repro.gpu.memory.warp_access`).
"""

import copy
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codegen.ast import Guard, Loop, Seq, StatementCall
from repro.codegen.cuda import MappedDim, MappedKernel
from repro.gpu.arch import V100
from repro.gpu.backend import (
    DEFAULT_SIMULATOR,
    available_simulators,
    resolve_simulator,
)
from repro.gpu.fastpath import _FastSimulator
from repro.gpu.profile_cache import (
    ProfileCache,
    get_profile_cache,
    use_profile_cache,
)
from repro.gpu.simulator import simulate_kernel
from repro.ir import Kernel
from repro.ir.kparser import parse_kernel
from repro.obs import MetricsRegistry, Obs, use_obs
from repro.pipeline.akg import VARIANTS, AkgPipeline
from repro.solver.problem import Constraint, LinExpr
from repro.workloads import operators
from repro.workloads.generator import generate_network_suite

from tests.test_gpu_simulator import compile_mapped, copy_kernel

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _parity(mapped, sample_blocks=4, arch=None):
    """Assert fast == reference counters; return the fast profile."""
    kwargs = {"sample_blocks": sample_blocks}
    if arch is not None:
        kwargs["arch"] = arch
    fast = simulate_kernel(mapped, sim="fast", **kwargs)
    reference = simulate_kernel(mapped, sim="reference", **kwargs)
    assert fast.counters() == reference.counters()
    return fast


ZOO = {
    "copy": lambda: copy_kernel(64, 96),
    "transpose": lambda: operators.transpose2d_op("fp_tr", 96, 64),
    "reduce": lambda: operators.reduce_producer_op("fp_red", 128, 8),
    "softmax": lambda: operators.softmax_like_op("fp_sm", 64, 32),
    "broadcast": lambda: operators.broadcast_bias_op("fp_bb"),
    "strided_pool": lambda: operators.strided_pool_op("fp_sp"),
    "layout4d": lambda: operators.layout_conversion_op("fp_lc", 2, 16, 8, 8),
    # The families below all run partial warps (40, 40, 3, 1 and 1
    # threads per block); fused, they are union loops whose statement
    # guards the fast path folds into loop segments.
    "attention_block": lambda: operators.attention_block_op(
        "fp_attn", seq=40, dmodel=12),
    "softmax_partial": lambda: operators.softmax_like_op("fp_smp", 40, 20),
    "depthwise_conv": lambda: operators.depthwise_conv_op(
        "fp_dw", channels=3, height=10, width=10, kernel_size=3),
    "stencil2d_jacobi": lambda: operators.stencil2d_op("fp_jac", 12),
    "stencil2d_heat": lambda: operators.stencil2d_op("fp_heat", 12, "heat"),
}


class TestParity:
    @pytest.mark.parametrize("influenced", [False, True])
    @pytest.mark.parametrize("family", list(ZOO))
    def test_operator_zoo(self, family, influenced):
        mapped = compile_mapped(ZOO[family](), influenced=influenced)
        _parity(mapped)

    def test_without_vectorization(self):
        mapped = compile_mapped(operators.transpose2d_op("fp_nv", 64, 64),
                                influenced=True, enable_vec=False)
        _parity(mapped)

    def test_partial_warps(self):
        # 48 threads/block: one full warp plus a 16-lane partial warp.
        for influenced in (False, True):
            mapped = compile_mapped(copy_kernel(64, 96),
                                    influenced=influenced, max_threads=48)
            assert mapped.n_threads_per_block % 32 != 0
            _parity(mapped)

    def test_odd_extents(self):
        # Odd trip counts exercise trailing guards and masked lanes.
        _parity(compile_mapped(copy_kernel(63, 37)))
        _parity(compile_mapped(operators.transpose2d_op("fp_odd", 61, 43),
                               influenced=True))

    def test_network_suite_all_variants(self):
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        for _, kernel in generate_network_suite("LSTM", seed=0, limit=2):
            for variant in VARIANTS:
                compiled = pipeline.compile(kernel, variant)
                for launch in compiled.launches:
                    _parity(launch, sample_blocks=2)

    def test_corpus_replay(self):
        """Every committed fuzz reproducer stays backend-invariant."""
        names = sorted(n for n in os.listdir(CORPUS_DIR)
                       if n.endswith(".kernel"))
        assert names, "corpus must not be empty"
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        for name in names:
            with open(os.path.join(CORPUS_DIR, name)) as handle:
                kernel_text = handle.read()
            for variant in ("isl", "infl"):
                kernel = parse_kernel(kernel_text)
                compiled = pipeline.compile(kernel, variant)
                for launch in compiled.launches:
                    _parity(launch, sample_blocks=2)

    def test_repeated_simulation_stays_identical(self):
        """Warm per-kernel signature caches must not drift the counters."""
        mapped = compile_mapped(operators.transpose2d_op("fp_rep", 64, 64))
        first = simulate_kernel(mapped, sample_blocks=4, sim="fast")
        for _ in range(3):
            again = simulate_kernel(mapped, sample_blocks=4, sim="fast")
            assert again.counters() == first.counters()

    @given(rows=st.integers(3, 80), cols=st.integers(3, 80),
           max_threads=st.sampled_from([32, 48, 64]),
           influenced=st.booleans(), enable_vec=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_property(self, rows, cols, max_threads, influenced, enable_vec):
        mapped = compile_mapped(copy_kernel(rows, cols),
                                influenced=influenced,
                                enable_vec=enable_vec,
                                max_threads=max_threads)
        _parity(mapped, sample_blocks=2)


# -- loop segmentation ---------------------------------------------------------
#
# Hand-built mapped ASTs around one sequential loop ``v`` (inside an outer
# sequential loop ``o``, a thread-mapped ``tx`` and a block-mapped ``bx``),
# whose body mixes guard chains the fast path folds into loop segments with
# children it must not fold.  A condition spec is ``(a, b, t, p, d, sense)``
# for ``a*v + b*o + t*tx + p*P + d (sense) 0``; ``t != 0`` makes it a
# thread-variable (lane-variant) condition.

_SEG_GRID = 3


def _seg_kernel():
    kernel = Kernel("seg", params={"P": 3})
    for name in ("A", "B", "C"):
        kernel.add_tensor(name, (_SEG_GRID * 40, 64))
    kernel.add_statement("S0", [("i", 0, _SEG_GRID * 40), ("j", 0, 64)],
                         writes=[("B", ["i", "j"])], reads=[("A", ["i", "j"])])
    kernel.add_statement("S1", [("i", 0, _SEG_GRID * 40), ("j", 0, 64)],
                         writes=[("C", ["i", "j"])], reads=[("B", ["i", "j"])])
    return kernel


def _seg_call(kernel, index, threads, extra=None):
    """A statement instance at ``(tx + threads*bx, v + o + 24 [+ extra])``
    — distinct children touch distinct statements and columns."""
    j = {"v": 1, "o": 1}
    if extra:
        j[extra] = 1
    return StatementCall(
        kernel.statements[index % 2],
        {"i": LinExpr({"tx": 1, "bx": threads}),
         "j": LinExpr(j, const=24 + index % 3)})


def _seg_condition(spec):
    a, b, t, p, d, sense = spec
    return Constraint(LinExpr({"v": a, "o": b, "tx": t, "P": p}, const=d),
                      sense)


def _seg_child(kernel, spec, index, threads):
    kind = spec[0]
    if kind == "call":
        return _seg_call(kernel, index, threads)
    if kind == "loop":
        return Loop("w", [LinExpr(const=0)], [LinExpr(const=1)],
                    Seq([_seg_call(kernel, index, threads, extra="w")]))
    # ("chain", [[condition spec, ...] per guard, outermost first], n_calls)
    _, guards, n_calls = spec
    node = Seq([_seg_call(kernel, index + k, threads)
                for k in range(n_calls)])
    for conditions in reversed(guards):
        node = Seq([Guard([_seg_condition(c) for c in conditions], node)])
    return node.children[0]


def _seg_mapped(threads, lo, hi, lane_variant, children, body=None):
    """The mapped kernel ``bx { tx { o { v in [lo, hi(-tx)] { ... } } } }``."""
    kernel = _seg_kernel()
    upper = LinExpr({"tx": -1} if lane_variant else {}, const=hi)
    loop = Loop("v", [LinExpr(const=lo)], [upper], Seq(
        body if body is not None else
        [_seg_child(kernel, spec, index, threads)
         for index, spec in enumerate(children)]))
    ast = Seq([Loop("bx", [LinExpr(const=0)], [LinExpr(const=_SEG_GRID - 1)],
                    Seq([Loop("tx", [LinExpr(const=0)],
                              [LinExpr(const=threads - 1)],
                              Seq([Loop("o", [LinExpr(const=0)],
                                        [LinExpr(const=1)], Seq([loop]))]),
                              mapping="threadIdx.x")]),
                    mapping="blockIdx.x")])
    return MappedKernel(kernel, None, ast,
                        grid=[MappedDim("bx", _SEG_GRID, "blockIdx.x")],
                        block=[MappedDim("tx", threads, "threadIdx.x")]), loop


_COEFFS = [-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]

_condition = st.tuples(
    st.sampled_from(_COEFFS),                             # a: loop variable
    st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]),       # b: outer variable
    st.sampled_from([0, 0, 0, 1]),                        # t: thread variable
    st.sampled_from([0, 1]),                              # p: parameter
    st.one_of(st.integers(-12, 12),
              st.sampled_from([Fraction(1, 2), Fraction(-7, 3)])),
    st.sampled_from(["<=", ">=", "=="]))

_child = st.one_of(
    st.just(("call",)), st.just(("loop",)),
    st.tuples(st.just("chain"),
              st.lists(st.lists(_condition, min_size=1, max_size=2),
                       min_size=1, max_size=3),
              st.integers(1, 2)))

# Every case the segmentation must get right, pinned as explicit examples
# (the random draws cover their combinations).
_SEG_EXAMPLES = [
    # positive / negative coefficient window, a non-guard child between
    [("chain", [[(1, 0, 0, 0, -3, ">="), (1, 0, 0, 0, -8, "<=")]], 1),
     ("call",),
     ("chain", [[(-1, 0, 0, 0, 5, ">=")]], 2)],
    # zero coefficient: an outer-variable-only verdict
    [("chain", [[(0, 1, 0, 0, -1, "==")]], 1), ("loop",)],
    # rational coefficient, == with integral and non-integral roots
    [("chain", [[(Fraction(1, 2), 0, 0, 0, -2, ">=")]], 1),
     ("chain", [[(2, 0, 0, 0, -6, "==")]], 1),
     ("chain", [[(2, 0, 0, 0, -5, "==")]], 1)],
    # nested single-child chain whose inner guard is on the outer variable,
    # then a thread-variable guard next to foldable ones
    [("chain", [[(1, 0, 0, 0, -2, ">=")], [(0, -1, 0, 0, 0, ">=")]], 2),
     ("chain", [[(0, 0, 1, 0, -3, "<=")]], 1),
     ("chain", [[(1, 0, 0, 1, -9, "<=")], [(0, 0, 1, 0, -2, ">=")]], 1)],
]


class TestLoopSegmentation:
    @given(threads=st.sampled_from([5, 32, 40]),
           lo=st.integers(-6, 6), span=st.integers(-2, 12),
           lane_variant=st.booleans(),
           children=st.lists(_child, min_size=1, max_size=5))
    @example(threads=40, lo=0, span=10, lane_variant=False,
             children=_SEG_EXAMPLES[0])
    @example(threads=5, lo=-3, span=6, lane_variant=False,
             children=_SEG_EXAMPLES[1])
    @example(threads=32, lo=0, span=8, lane_variant=False,
             children=_SEG_EXAMPLES[2])
    @example(threads=40, lo=-2, span=9, lane_variant=False,
             children=_SEG_EXAMPLES[3])
    @example(threads=40, lo=2, span=-1, lane_variant=False,      # empty
             children=_SEG_EXAMPLES[0])
    @example(threads=5, lo=3, span=0, lane_variant=False,        # one value
             children=_SEG_EXAMPLES[0])
    @example(threads=40, lo=0, span=10, lane_variant=True,
             children=_SEG_EXAMPLES[3])
    @settings(max_examples=60, deadline=None)
    def test_parity(self, threads, lo, span, lane_variant, children):
        mapped, _ = _seg_mapped(threads, lo, lo + span, lane_variant,
                                children)
        _parity(mapped, sample_blocks=2)

    def test_folded_guards_are_not_evaluated(self, monkeypatch):
        """Folded chains run without a `_guard_mask` call per value; the
        thread-variable guard still takes one per value its parent runs."""
        mapped, loop = _seg_mapped(40, 0, 20, False, _SEG_EXAMPLES[3])
        plan = _FastSimulator(mapped, V100)._fold_plan(loop)
        assert [conditions is not None for _, conditions in plan] \
            == [True, False, True]
        calls = []
        original = _FastSimulator._guard_mask

        def counting(sim, guard, mask):
            calls.append(guard)
            return original(sim, guard, mask)

        monkeypatch.setattr(_FastSimulator, "_guard_mask", counting)
        _parity(mapped, sample_blocks=2)
        thread_guard = loop.body.children[1]
        inner_thread_guard = loop.body.children[2].body.children[0]
        assert set(map(id, calls)) \
            == {id(thread_guard), id(inner_thread_guard)}

    def test_loop_containing_mapped_loop_is_not_folded(self):
        """A mapped loop shifts its variable's env entry on every entry, so
        a body containing one is never segmented."""
        kernel = _seg_kernel()
        body = [_seg_child(kernel, ("chain", [[(1, 0, 0, 0, -2, ">=")]], 1),
                           0, 32),
                Loop("ty", [LinExpr(const=1)], [LinExpr(const=1)],
                     Seq([_seg_call(kernel, 1, 32, extra="ty")]),
                     mapping="threadIdx.y")]
        mapped, loop = _seg_mapped(32, 0, 6, False, (), body=body)
        mapped.block.append(MappedDim("ty", 1, "threadIdx.y"))
        sim = _FastSimulator(mapped, V100)
        assert sim._fold_plan(loop) is None
        # The same chain without the mapped sibling folds.
        assert sim._fold_plan(Loop("v", loop.lowers, loop.uppers,
                                   Seq(body[:1]))) is not None
        _parity(mapped, sample_blocks=2)


def _lane_variant_mutant():
    """A mapped kernel whose block-mapped loop lower bound carries a
    thread-variable coefficient — lane-variant, outside the fast model."""
    mapped = compile_mapped(copy_kernel(64, 64), max_threads=64)
    mutant = copy.deepcopy(mapped)
    thread_var = mutant.block[0].loop_var
    from repro.codegen.ast import Loop, walk
    for node in walk(mutant.ast):
        if isinstance(node, Loop) and node.mapping \
                and node.mapping.startswith("blockIdx"):
            node.lowers = [LinExpr({thread_var: 1})]
            return mutant
    raise AssertionError("no block-mapped loop found")


class TestFallback:
    def test_lane_variant_mapped_lower_falls_back(self):
        mutant = _lane_variant_mutant()
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            fast = simulate_kernel(mutant, sample_blocks=4, sim="fast")
        reference = simulate_kernel(copy.deepcopy(mutant), sample_blocks=4,
                                    sim="reference")
        assert fast.counters() == reference.counters()
        assert obs.metrics.counters["sim.fastpath.fallback"] == 1
        # A fallen-back launch reports no fast-path work.
        assert "sim.fastpath.memo_hits" not in obs.metrics.counters

    def test_supported_launch_reports_fastpath_counters(self):
        mapped = compile_mapped(operators.transpose2d_op("fp_ctr", 96, 96))
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            simulate_kernel(mapped, sample_blocks=4, sim="fast")
        counters = obs.metrics.counters
        assert counters.get("sim.fastpath.memo_hits", 0) > 0
        assert counters.get("sim.fastpath.analytic", 0) > 0
        assert "sim.fastpath.fallback" not in counters

    def test_reference_backend_reports_none(self):
        mapped = compile_mapped(copy_kernel(32, 32))
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            simulate_kernel(mapped, sample_blocks=2, sim="reference")
        assert not any(name.startswith("sim.fastpath.")
                       for name in obs.metrics.counters)


class TestSelection:
    def test_registry_lists_both(self):
        assert {"fast", "reference"} <= set(available_simulators())
        assert DEFAULT_SIMULATOR == "fast"

    def test_explicit_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM", "fast")
        assert resolve_simulator("reference").name == "reference"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM", "reference")
        assert resolve_simulator().name == "reference"
        assert resolve_simulator("").name == "reference"
        monkeypatch.delenv("REPRO_SIM")
        assert resolve_simulator().name == DEFAULT_SIMULATOR

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown simulator"):
            resolve_simulator("bogus")

    def test_pipeline_threads_choice_through(self):
        from repro.schedule.scheduler import SchedulerOptions
        assert AkgPipeline(sim="reference").sim == "reference"
        options = SchedulerOptions(sim="reference")
        assert AkgPipeline(scheduler_options=options).sim == "reference"
        # Explicit argument beats the options field.
        assert AkgPipeline(scheduler_options=options, sim="fast").sim == "fast"

    def test_cli_accepts_sim(self):
        from repro.cli import build_arg_parser, main
        args = build_arg_parser().parse_args(
            ["compile", "x.k", "--sim", "reference"])
        assert args.sim == "reference"
        # An unknown backend fails fast (before the file is even opened).
        assert main(["compile", "missing.k", "--sim", "bogus"]) == 2


class TestProfileCache:
    def test_renamed_identical_kernel_hits(self):
        first = compile_mapped(copy_kernel(64, 64))
        second = compile_mapped(copy_kernel(64, 64))
        second.kernel.name = "copy_renamed"
        cache = ProfileCache()
        with use_profile_cache(cache):
            a = simulate_kernel(first, sample_blocks=2)
            b = simulate_kernel(second, sample_blocks=2)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        # The replayed profile carries the requester's name, same counters.
        assert b.name == "copy_renamed"
        assert a.name == first.kernel.name
        assert {k: v for k, v in a.counters().items()} == b.counters()

    def test_different_content_misses(self):
        cache = ProfileCache()
        with use_profile_cache(cache):
            simulate_kernel(compile_mapped(copy_kernel(64, 64)),
                            sample_blocks=2)
            simulate_kernel(compile_mapped(copy_kernel(64, 96)),
                            sample_blocks=2)
            # Same content, different sampling width: a distinct key.
            simulate_kernel(compile_mapped(copy_kernel(64, 64)),
                            sample_blocks=4)
        assert cache.hits == 0 and cache.misses == 3

    def test_scope_is_explicit(self):
        assert get_profile_cache() is None
        with use_profile_cache(ProfileCache()) as cache:
            assert get_profile_cache() is cache
        assert get_profile_cache() is None

    def test_metrics_stream(self):
        obs = Obs(metrics=MetricsRegistry())
        mapped = compile_mapped(copy_kernel(64, 64))
        with use_obs(obs), use_profile_cache(ProfileCache()):
            simulate_kernel(mapped, sample_blocks=2)
            simulate_kernel(mapped, sample_blocks=2)
        assert obs.metrics.counters["sim.profile_cache.misses"] == 1
        assert obs.metrics.counters["sim.profile_cache.hits"] == 1

    def test_no_metrics_without_cache(self):
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            simulate_kernel(compile_mapped(copy_kernel(32, 32)),
                            sample_blocks=2)
        assert not any(name.startswith("sim.profile_cache.")
                       for name in obs.metrics.counters)

    def test_compile_and_measure_installs_per_call_scope(self):
        """Without an ambient cache the pipeline installs one per call —
        and it must not outlive the call (cross-call hits would make
        serial and parallel evaluation metrics diverge)."""
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        kernel = operators.transpose2d_op("fp_cm", 63, 33)
        pipeline.compile_and_measure(kernel, "isl")
        counters = pipeline.context.counters
        assert counters.get("sim.profile_cache.misses", 0) > 0
        pipeline.compile_and_measure(kernel, "isl")
        assert pipeline.context.counters.get("sim.profile_cache.hits", 0) == 0

    def test_operator_scope_hits_across_variants(self):
        """The evaluation runner's per-operator scope: with odd extents
        vectorization cannot fire, the `novec` and `infl` variants lower
        to the same mapped kernel, and the second one replays."""
        pipeline = AkgPipeline(sample_blocks=2, max_threads=64)
        kernel = operators.transpose2d_op("fp_scope", 63, 33)
        with use_profile_cache(ProfileCache()) as cache:
            a = pipeline.compile_and_measure(kernel, "novec")
            b = pipeline.compile_and_measure(kernel, "infl")
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert [p.counters() for p in a.profiles] \
            == [p.counters() for p in b.profiles]

    def test_lru_bound(self):
        cache = ProfileCache(max_entries=2)
        for index in range(3):
            cache.store(("key", index), index)
        assert len(cache) == 2
        assert cache.lookup(("key", 0)) is not None  # evicted -> miss
        assert cache.misses == 1
