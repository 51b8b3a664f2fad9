"""The JIT tier (:mod:`repro.gpusim.jit`): mode knob, caching, fallback
taxonomy, codegen determinism, error fidelity, and the verify mode's
ability to actually catch a broken JIT.

The differential-correctness suite lives in
``test_jit_differential.py``; this file pins the machinery around it.
"""

import numpy as np
import pytest

from tests.difftest import assert_same_result, make_kernel
from repro.gpusim import jit
from repro.gpusim.executor import ExecutionError, LaunchError, execute_kernel
from repro.gpusim.kernel import Kernel
from repro.ir.builder import (accum, aref, assign, block, call, iff,
                              intrinsic, local, pfor, ptr_swap, ret,
                              ternary, v, wloop)
from repro.ir.expr import Const
from repro.ir.program import Function, Param
from repro.models.cache import STORE, clear_compile_cache
from repro.obs.metrics import MetricsRegistry, collecting


@pytest.fixture(autouse=True)
def _fresh_jit_state():
    clear_compile_cache()
    jit.clear_fallback_log()
    yield
    clear_compile_cache()
    jit.clear_fallback_log()


def _stencil_kernel(n=8):
    body = pfor("i", 1, n - 1, assign(
        aref("b", v("i")),
        0.5 * (aref("a", v("i") - 1) + aref("a", v("i") + 1))))
    return make_kernel(body, ["i"], {"a": None, "b": None})


def _stencil_arrays(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return {"a": rng.random(n), "b": np.zeros(n)}


class TestModeKnob:
    def test_default_mode_is_on(self):
        assert jit.current_mode() in jit.JIT_MODES

    def test_set_mode_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown JIT mode"):
            jit.set_mode("sometimes")

    def test_jit_mode_restores_previous(self):
        before = jit.current_mode()
        with jit.jit_mode("verify"):
            assert jit.current_mode() == "verify"
            with jit.jit_mode("off"):
                assert jit.current_mode() == "off"
            assert jit.current_mode() == "verify"
        assert jit.current_mode() == before

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "verify")
        assert jit._mode_from_env() == "verify"
        monkeypatch.setenv("REPRO_JIT", "bogus")
        assert jit._mode_from_env() == "on"
        monkeypatch.delenv("REPRO_JIT")
        assert jit._mode_from_env() == "on"


class TestDispatch:
    def test_off_never_touches_the_jit_store(self):
        kern = _stencil_kernel()
        with jit.jit_mode("off"):
            execute_kernel(kern, _stencil_arrays(), {})
        assert STORE.stats()["jit_entries"] == 0

    def test_on_compiles_and_matches_interpreter(self):
        kern = _stencil_kernel()
        via_jit = _stencil_arrays()
        via_interp = _stencil_arrays()
        with jit.jit_mode("on"):
            execute_kernel(kern, via_jit, {})
        with jit.jit_mode("off"):
            execute_kernel(kern, via_interp, {})
        assert STORE.stats()["jit_entries"] == 1
        assert via_jit["b"].tobytes() == via_interp["b"].tobytes()

    def test_verify_runs_both_and_passes(self):
        kern = _stencil_kernel()
        arrays = _stencil_arrays()
        with jit.jit_mode("verify"):
            execute_kernel(kern, arrays, {})
        assert not jit.fallback_log()

    def test_launch_metrics_recorded(self):
        kern = _stencil_kernel()
        registry = MetricsRegistry()
        with collecting(registry), jit.jit_mode("on"):
            execute_kernel(kern, _stencil_arrays(), {})
            execute_kernel(kern, _stencil_arrays(), {})
        hits = registry.get("jit_launch_hits", {"kernel": "k"})
        compiles = registry.get("jit_compiles", {"kernel": "k"})
        assert hits is not None and hits.value == 2
        assert compiles is not None and compiles.value == 1


class TestCache:
    def test_body_compiles_once(self):
        kern = _stencil_kernel()
        p1 = jit.program_for(kern, {})
        p2 = jit.program_for(kern, {})
        assert p1 is p2
        stats = STORE.stats()
        assert stats["jit_entries"] == 1
        assert stats["jit_hits"] >= 1

    def test_identical_bodies_share_by_content(self):
        k1, k2 = _stencil_kernel(), _stencil_kernel()
        assert k1 is not k2
        assert jit.kernel_ir_hash(k1) == jit.kernel_ir_hash(k2)
        assert jit.program_for(k1, {}) is jit.program_for(k2, {})
        assert STORE.stats()["jit_entries"] == 1

    def test_divergent_bodies_hash_apart(self):
        k1 = _stencil_kernel()
        body = pfor("i", 1, 7, assign(aref("b", v("i")),
                                      aref("a", v("i")) * 2.0))
        k2 = make_kernel(body, ["i"], {"a": None, "b": None})
        assert jit.kernel_ir_hash(k1) != jit.kernel_ir_hash(k2)

    def test_fallback_decision_is_cached(self):
        body = pfor("i", 0, 4, block(
            assign(aref("b", v("i")), 1.0), ptr_swap("a", "b")))
        kern = make_kernel(body, ["i"], {"a": None, "b": None})
        assert jit.program_for(kern, {}) is None
        stats_after_first = STORE.stats()
        assert jit.program_for(kern, {}) is None
        assert STORE.stats()["jit_entries"] == stats_after_first["jit_entries"]
        # both launches recorded, but only one compile attempt
        assert jit.fallback_log()[("k", "pointer-arith")] == 2


class TestCodegen:
    def test_generated_source_is_deterministic(self):
        s1 = jit.compile_kernel(_stencil_kernel()).source
        s2 = jit.compile_kernel(_stencil_kernel()).source
        assert s1 == s2

    def test_source_mentions_stable_identifiers(self):
        src = jit.compile_kernel(_stencil_kernel()).source
        assert "def __jit_kernel" in src
        assert "v_i" in src and "arrays['a']" in src or "v_i" in src


class TestFallbackTaxonomy:
    def _reason(self, kern, scalars=None):
        assert jit.program_for(kern, scalars or {}) is None
        log = jit.fallback_log()
        assert len(log) == 1
        (_, reason), _ = next(iter(log.items()))
        return reason

    def test_pointer_arith(self):
        body = pfor("i", 0, 4, block(
            assign(aref("b", v("i")), 1.0), ptr_swap("a", "b")))
        kern = make_kernel(body, ["i"], {"a": None, "b": None})
        assert self._reason(kern) == "pointer-arith"

    def test_unknown_function(self):
        body = pfor("i", 0, 4, call("mystery", v("i")))
        kern = make_kernel(body, ["i"], {"b": None})
        assert self._reason(kern) == "unknown-function"

    def test_recursive_call(self):
        fn = Function("loop_forever", (Param("x"),),
                      call("loop_forever", v("x")))
        body = pfor("i", 0, 4, call("loop_forever", v("i")))
        kern = make_kernel(body, ["i"], {"b": None})
        assert jit.program_for(kern, {},
                               {"loop_forever": fn}) is None
        assert ("k", "recursive-call") in jit.fallback_log()

    def test_return_in_function(self):
        fn = Function("early", (Param("x"),),
                      block(ret(), assign(v("x"), 1.0)))
        body = pfor("i", 0, 4, call("early", v("i")))
        kern = make_kernel(body, ["i"], {"b": None})
        assert jit.program_for(kern, {}, {"early": fn}) is None
        assert ("k", "return-in-function") in jit.fallback_log()

    def test_vector_scalar_arg(self):
        kern = _stencil_kernel()
        scalars = {"n": np.arange(4)}
        assert jit.program_for(kern, scalars) is None
        assert ("k", "vector-scalar-arg") in jit.fallback_log()

    def test_fallback_metric_is_counted(self):
        body = pfor("i", 0, 4, block(
            assign(aref("b", v("i")), 1.0), ptr_swap("a", "b")))
        kern = make_kernel(body, ["i"], {"a": None, "b": None})
        registry = MetricsRegistry()
        with collecting(registry):
            jit.program_for(kern, {})
            jit.program_for(kern, {})
        series = registry.get("jit_fallback",
                              {"kernel": "k", "reason": "pointer-arith"})
        assert series is not None and series.value == 2

    def test_unsupported_body_still_executes_via_interpreter(self):
        body = pfor("i", 0, 4, block(
            assign(aref("b", v("i")), aref("a", v("i")) + 1.0),
            ptr_swap("a", "b")))
        kern = make_kernel(body, ["i"], {"a": None, "b": None})
        arrays = {"a": np.arange(4.0), "b": np.zeros(4)}
        with jit.jit_mode("on"):
            execute_kernel(kern, arrays, {})   # silently correct, counted
        assert ("k", "pointer-arith") in jit.fallback_log()


class TestVerifyCatchesBrokenJit:
    def _broken_program(self, kern):
        good = jit.compile_kernel(kern)

        def corrupt(kname, arrays, env):
            good.fn(kname, arrays, env)
            arrays["b"][0] += 1e-9

        return jit.JitProgram(ir_hash=good.ir_hash, source=good.source,
                              fn=corrupt)

    def test_run_verify_raises_on_divergence(self):
        kern = _stencil_kernel()
        arrays = _stencil_arrays()
        bad = self._broken_program(kern)

        def interpret():
            with jit.jit_mode("off"):
                execute_kernel(kern, arrays, {})

        with pytest.raises(jit.JitVerifyError, match="diverged"):
            jit.run_verify(bad, kern, arrays, {}, interpret)

    def test_run_verify_raises_on_jit_only_exception(self):
        kern = _stencil_kernel()
        arrays = _stencil_arrays()
        good = jit.compile_kernel(kern)

        def explode(kname, arrays, env):
            raise RuntimeError("boom")

        bad = jit.JitProgram(ir_hash=good.ir_hash, source=good.source,
                             fn=explode)
        with pytest.raises(jit.JitVerifyError, match="JIT raised"):
            jit.run_verify(bad, kern, arrays, {}, lambda: None)

    def test_execute_kernel_verify_mode_surfaces_divergence(self):
        kern = _stencil_kernel()
        bad = self._broken_program(kern)
        STORE.jit_put(jit.kernel_ir_hash(kern), bad)
        with jit.jit_mode("verify"):
            with pytest.raises(jit.JitVerifyError):
                execute_kernel(kern, _stencil_arrays(), {})

    def test_verify_error_is_an_execution_error(self):
        assert issubclass(jit.JitVerifyError, ExecutionError)


class TestErrorFidelity:
    def _both_errors(self, kern, arrays, scalars=None, exc=ExecutionError):
        """The exception (type and message) from each engine."""
        messages = []
        for mode in ("off", "on"):
            copies = {k: a.copy() for k, a in arrays.items()}
            with jit.jit_mode(mode):
                with pytest.raises(exc) as err:
                    execute_kernel(kern, copies, scalars or {})
            messages.append(str(err.value))
        return messages

    def test_unbound_variable_message_matches(self):
        body = pfor("i", 0, 4, assign(aref("b", v("i")), v("z")))
        kern = make_kernel(body, ["i"], {"b": None})
        interp, jitted = self._both_errors(kern,
                                           {"b": np.zeros(4)})
        assert interp == jitted
        assert "unbound variable 'z'" in interp

    def test_thread_dependent_grid_bound_matches(self):
        body = pfor("i", 0, aref("lim", v("i")),
                    assign(aref("b", v("i")), 1.0))
        kern = make_kernel(body, ["i"], {"b": None, "lim": None})
        arrays = {"b": np.zeros(4), "lim": np.full(4, 4, dtype=np.int64)}
        interp, jitted = self._both_errors(kern, arrays, exc=LaunchError)
        assert interp == jitted

    def test_zero_extent_grid_is_a_no_op_in_both(self):
        body = pfor("i", 3, 3, assign(aref("b", v("i")), 1.0))
        kern = make_kernel(body, ["i"], {"b": None})
        assert_same_result(kern, {"b": np.zeros(4)},
                           engines=("interpreter", "jit"))

    def _memory_fault(self, load, arrays):
        """``b[i] = load`` over four lanes, lowered by the JIT (so the
        two messages really come from two engines)."""
        body = pfor("i", 0, 4, assign(aref("b", v("i")), load))
        kern = make_kernel(body, ["i"], {name: None for name in arrays})
        jit.compile_kernel(kern)
        interp, jitted = self._both_errors(kern, arrays)
        assert interp == jitted
        return interp

    def test_scalar_subscript_out_of_bounds_message_matches(self):
        msg = self._memory_fault(aref("a", 5),
                                 {"a": np.zeros(4), "b": np.zeros(4)})
        assert msg == ("kernel 'k': index 5 out of bounds for 'a' dim 0 "
                       "(extent 4)")

    def test_vector_subscript_out_of_bounds_message_matches(self):
        msg = self._memory_fault(aref("a", v("i") + 1),
                                 {"a": np.zeros(4), "b": np.zeros(4)})
        assert msg.startswith("kernel 'k': index ")
        assert msg.endswith("..4 out of bounds for 'a' dim 0 (extent 4)")

    def test_too_few_subscripts_message_matches(self):
        msg = self._memory_fault(aref("a", v("i")),
                                 {"a": np.zeros((4, 4)), "b": np.zeros(4)})
        assert msg == "kernel 'k': 'a' has 2 dims, subscripted with 1"

    def test_missing_array_message_matches(self):
        msg = self._memory_fault(aref("c", v("i")), {"b": np.zeros(4)})
        assert msg == "kernel 'k': unknown array 'c'"


class TestDirectedKernels:
    """Directed shapes through all three engines (bitwise jit vs
    interpreter, tolerance vs the scalar reference)."""

    def test_masked_scalar_promotion(self):
        body = pfor("i", 0, 8, block(
            local("t", dtype="double", init=Const(0.0)),
            iff((v("i") % 2).eq(0), assign(v("t"), aref("a", v("i")))),
            assign(aref("b", v("i")), v("t"))))
        rng = np.random.default_rng(7)
        assert_same_result((body, ["i"]),
                           {"a": rng.random(8), "b": np.zeros(8)})

    def test_while_loop(self):
        body = pfor("i", 0, 6, block(
            local("x", dtype="double", init=v("i") + 1.0),
            local("steps", dtype="double", init=Const(0.0)),
            wloop(v("x").gt(1.0), block(
                assign(v("x"), v("x") / 2.0),
                accum(v("steps"), 1.0))),
            assign(aref("b", v("i")), v("steps"))))
        assert_same_result((body, ["i"]), {"b": np.zeros(6)})

    def test_intrinsics_and_ternary(self):
        body = pfor("i", 0, 8, assign(
            aref("b", v("i")),
            ternary(v("i").gt(3), intrinsic("sqrt", aref("a", v("i"))),
                    intrinsic("exp", -aref("a", v("i"))))))
        rng = np.random.default_rng(11)
        assert_same_result((body, ["i"]),
                           {"a": rng.random(8) + 0.5, "b": np.zeros(8)})

    def test_device_function_call_is_inlined(self):
        fn = Function("axpy", (Param("alpha"), Param("x"), Param("yv")),
                      assign(v("yv"), v("alpha") * v("x") + v("yv")))
        body = pfor("i", 0, 8, block(
            local("acc", dtype="double", init=aref("b", v("i"))),
            call("axpy", 2.0, aref("a", v("i")), v("acc")),
            assign(aref("b", v("i")), v("acc"))))
        rng = np.random.default_rng(13)
        kern = make_kernel(body, ["i"], {"a": None, "b": None})
        assert_same_result(kern, {"a": rng.random(8), "b": rng.random(8)},
                           functions={"axpy": fn})

    def test_collapse_style_2d_grid(self):
        body = pfor("i", 0, 5, pfor("j", 0, 4, assign(
            aref("b", v("i"), v("j")),
            aref("a", v("i"), v("j")) * (v("i") + v("j")))))
        rng = np.random.default_rng(17)
        kern = Kernel("k", body, ["i", "j"], arrays=["a", "b"])
        assert_same_result(kern, {"a": rng.random((5, 4)),
                                  "b": np.zeros((5, 4))})

    def test_scatter_collisions_bitwise(self):
        idx = np.array([0, 1, 0, 2, 1, 0], dtype=np.int64)
        body = pfor("i", 0, 6,
                    accum(aref("h", aref("idx", v("i"))),
                          aref("w", v("i"))))
        rng = np.random.default_rng(19)
        out = assert_same_result(
            (body, ["i"]),
            {"idx": idx, "w": rng.random(6), "h": np.zeros(4)},
            engines=("interpreter", "jit"))
        assert out["h"][3] == 0.0
