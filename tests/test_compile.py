"""The trace-and-replay compiler's contracts beyond raw parity.

``test_compile_parity.py`` pins compiled == eager bitwise across
generated graphs; this module pins everything *around* that:

* fallback behaviour — remainder batches, dtype changes, parameter
  surgery, non-replayable graphs — always eager, always counted, never
  wrong numbers;
* first-replay validation poisoning captures whose graph froze a
  batch-derived constant;
* plan structure: dead-node elimination, elementwise chain fusion, the
  arena-backed gradient buffers;
* stochastic (dropout) and side-effecting (BatchNorm EMA) graphs
  replaying with identical RNG/running-stat evolution;
* the plan cache (one plan per signature, FIFO-bounded);
* the integration seams: ``Trainer(compiled=...)``, the
  ``use_compiled``/``REPRO_COMPILE`` switch, and the ``--compile`` CLI
  flag — and the one loss a trainer never compiles, a cluster's
  ``as_loss_fn`` adapter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.compile import (
    Arena,
    CompiledLoss,
    CompiledStep,
    compiled_enabled,
    compiled_graphs,
    use_compiled,
)
from repro.compile.recorder import GraphRecorder
from repro.compile.step import _UNSUPPORTED
from repro.data import ArrayDataset, BatchIterator
from repro.nn import Dropout, Linear
from repro.nn.convnet import BatchNorm2d
from repro.obs import MetricsRegistry, Obs
from repro.optim import SGD
from repro.parallel import SimCluster
from repro.schedules import ConstantLR
from repro.tensor import Tensor, cross_entropy, no_grad, where
from repro.train import Trainer


def _linear_problem(rng, n=64, d=4, classes=3, seed=0):
    x = rng.standard_normal((n, d))
    y = (x @ rng.standard_normal((d, classes))).argmax(axis=1)
    model = Linear(d, classes, rng=seed)

    def loss_fn(batch):
        xb, yb = batch
        return cross_entropy(model(Tensor(xb)), yb)

    return x, y, model, loss_fn


class TestFallbacks:
    def test_remainder_batch_shape_change(self, rng):
        """A shorter final batch runs eagerly, is counted, then gets its
        own plan — numbers identical to eager throughout."""
        x, y, model, loss_fn = _linear_problem(rng)
        reg = MetricsRegistry()
        step = CompiledStep(loss_fn, metrics=reg)
        # 16, 16, 16, 7 — like a 55-sample epoch at batch 16, twice
        for size in (16, 16, 16, 7, 16, 7):
            xb, yb = x[:size], y[:size]
            assert float(step((xb, yb)).data) == float(loss_fn((xb, yb)).data)
        assert reg.counter("compile/captures").value == 2  # one per shape
        assert reg.counter("compile/fallbacks").value == 1  # first size-7
        assert reg.counter("compile/replays").value == 4

    def test_dtype_change_never_serves_wrong_numbers(self, rng):
        """float32 input under a float64 model: ``Tensor(xb)`` converts,
        so the graph's float64 copy goes stale on rebinding — validation
        catches it and poisons the plan.  Every loss served is eager."""
        x, y, model, loss_fn = _linear_problem(rng)
        reg = MetricsRegistry()
        step = CompiledStep(loss_fn, metrics=reg)
        step((x[:16], y[:16]))  # float64 capture
        for i in range(3):
            x32 = x[16 * (i + 1) : 16 * (i + 2), :].astype(np.float32)
            got = float(step((x32, y[:16])).data)
            assert got == float(loss_fn((x32, y[:16])).data)
        # call 1: signature miss (fallback) + capture; call 2: stale
        # replay caught by validation (fallback, poisoned); call 3: the
        # poisoned signature (fallback)
        assert reg.counter("compile/fallbacks").value == 3
        assert reg.counter("compile/validations").value == 1
        # the float64 plan is untouched and still replays
        before = reg.counter("compile/replays").value
        step((x[:16], y[:16]))
        assert reg.counter("compile/replays").value == before + 1

    def test_parameter_surgery_drops_plan_and_recaptures(self, rng):
        x, y, model, loss_fn = _linear_problem(rng)
        reg = MetricsRegistry()
        step = CompiledStep(loss_fn, metrics=reg)
        step((x[:16], y[:16]))
        step((x[:16], y[:16]))  # replay + validation
        # checkpoint-restore-style surgery: rebind the weight array
        model.weight.data = model.weight.data * 2.0
        got = float(step((x[:16], y[:16])).data)
        assert got == float(loss_fn((x[:16], y[:16])).data)
        assert reg.counter("compile/fallbacks").value == 1
        assert reg.counter("compile/captures").value == 2
        # the recaptured plan serves the new weights
        got2 = step((x[16:32], y[16:32]))
        assert isinstance(got2, CompiledLoss)
        assert float(got2.data) == float(loss_fn((x[16:32], y[16:32])).data)

    def test_graph_mutated_between_capture_and_replay(self, rng):
        """A loss_fn that changes structure is caught by validation on
        the first replay — stale numbers are never served."""
        mode = {"square": False}
        w = Tensor(np.ones(4), requires_grad=True)

        def loss_fn(batch):
            t = Tensor(batch) * w
            if mode["square"]:
                t = t * t
            return t.sum()

        reg = MetricsRegistry()
        step = CompiledStep(loss_fn, metrics=reg)
        rng_b = np.random.default_rng(5)
        step(rng_b.standard_normal(4))  # capture: linear graph
        mode["square"] = True  # mutate the program, same signature
        batch = rng_b.standard_normal(4)
        assert float(step(batch).data) == float(loss_fn(batch).data)
        assert reg.counter("compile/validations").value == 1
        assert reg.counter("compile/fallbacks").value == 1
        # poisoned: stays eager (and correct) forever after
        batch = rng_b.standard_normal(4)
        assert float(step(batch).data) == float(loss_fn(batch).data)
        assert step.plans == []

    def test_batch_derived_constant_poisons_via_validation(self, rng):
        """A mask computed *outside* the graph is frozen at capture; the
        first replay must detect the mismatch and poison the plan."""
        w = Tensor(np.ones(8), requires_grad=True)

        def loss_fn(batch):
            mask = batch > 0  # numpy-level: a graph constant to the tape
            return where(mask, Tensor(batch) * w, 0.0).sum()

        reg = MetricsRegistry()
        step = CompiledStep(loss_fn, metrics=reg)
        r = np.random.default_rng(6)
        step(r.standard_normal(8))
        batch = r.standard_normal(8)
        got = float(step(batch).data)
        assert got == float(loss_fn(batch).data)  # eager result served
        assert reg.counter("compile/validations").value == 1
        assert reg.counter("compile/fallbacks").value == 1
        assert step.plans == []

    def test_unhashable_batch_component_falls_back(self, rng):
        w = Tensor(np.ones(2), requires_grad=True)
        reg = MetricsRegistry()
        step = CompiledStep(lambda b: (Tensor(b["x"]) * w).sum(), metrics=reg)
        batch = {"x": np.ones(2), "tags": {"train", "aug"}}  # set: unhashable
        assert float(step(batch).data) == 2.0
        assert float(step(batch).data) == 2.0
        assert step.plans == []
        assert reg.counter("compile/fallbacks").value == 2

    def test_no_grad_eval_pass_bypasses_compiler(self, rng):
        x, y, model, loss_fn = _linear_problem(rng)
        step = CompiledStep(loss_fn)
        step((x[:16], y[:16]))
        with no_grad():
            loss = step((x[:16], y[:16]))
        assert isinstance(loss, Tensor)  # plain eager, no CompiledLoss
        assert len(step.plans) == 1  # and the plan was not disturbed
        step((x[:16], y[:16]))  # validation replay
        out = step((x[:16], y[:16]))
        assert isinstance(out, CompiledLoss)


class TestPlanStructure:
    def test_dead_nodes_are_eliminated(self, rng):
        w = Tensor(np.ones(4), requires_grad=True)

        def loss_fn(batch):
            t = Tensor(batch) * w
            (t * 100.0).exp()  # diagnostic branch, never feeds the loss
            return t.sum()

        step = CompiledStep(loss_fn)
        r = np.random.default_rng(7)
        step(r.standard_normal(4))
        (plan,) = step.plans
        assert plan.dce_removed >= 2  # the mul and the exp
        b = r.standard_normal(4)
        assert float(step(b).data) == float(b.sum())

    def test_elementwise_chains_fuse(self, rng):
        w = Tensor(np.ones(16), requires_grad=True)

        def loss_fn(batch):
            return ((Tensor(batch) * w).tanh().sigmoid() * 0.5).sum()

        step = CompiledStep(loss_fn)
        r = np.random.default_rng(8)
        step(r.standard_normal(16))
        (plan,) = step.plans
        assert plan.fused_chains >= 1
        # fusion must be observationally invisible
        b = r.standard_normal(16)
        assert float(step(b).data) == float(loss_fn(b).data)

    def test_gradients_live_in_one_arena(self, rng):
        x, y, model, loss_fn = _linear_problem(rng)
        step = CompiledStep(loss_fn)
        step((x[:16], y[:16]))
        (plan,) = step.plans
        param_bytes = sum(p.data.nbytes for p in plan.params)
        assert plan.arena_bytes >= param_bytes
        loss = step((x[:16], y[:16]))
        loss.backward()
        grads = [p.grad for _, p in model.named_parameters()]
        assert all(g is not None for g in grads)
        block = plan._arena._block
        assert all(np.shares_memory(g, block) for g in grads)
        assert not np.shares_memory(grads[0], grads[1])

    def test_arena_alignment_and_freeze(self):
        arena = Arena()
        i1 = arena.reserve((3,))
        i2 = arena.reserve((5, 2))
        arena.freeze()
        v1, v2 = arena.view(i1), arena.view(i2)
        assert v1.shape == (3,) and v2.shape == (5, 2)
        # slots are 64-byte aligned relative to the block start
        base = arena._block.ctypes.data
        assert (v1.ctypes.data - base) % 64 == 0
        assert (v2.ctypes.data - base) % 64 == 0
        assert not np.shares_memory(v1, v2)
        with pytest.raises(RuntimeError):
            arena.reserve((1,))

    def test_non_replayable_graph_poisons_signature(self, rng):
        """An op created without a replay closure can never replay; its
        signature is poisoned and every later step runs eagerly."""
        w = Tensor(np.ones(3), requires_grad=True)

        def loss_fn(batch):
            t = Tensor(batch) * w
            legacy = Tensor._make(
                np.asarray(t.data * 1.0),
                (t,),
                lambda g: (g,),
                "legacy_op",  # note: no replay= argument
            )
            return legacy.sum()

        reg = MetricsRegistry()
        step = CompiledStep(loss_fn, metrics=reg)
        r = np.random.default_rng(9)
        b = r.standard_normal(3)
        assert float(step(b).data) == float(loss_fn(b).data)
        assert list(step._plans.values()) == [_UNSUPPORTED]
        b2 = r.standard_normal(3)
        assert float(step(b2).data) == float(loss_fn(b2).data)
        assert reg.counter("compile/fallbacks").value == 1
        assert reg.counter("compile/captures").value == 0

    def test_plan_cache_is_fifo_bounded(self, rng):
        w = Tensor(np.ones(1), requires_grad=True)
        step = CompiledStep(lambda b: (Tensor(b) * w).sum(), max_plans=2)
        r = np.random.default_rng(10)
        for size in (2, 3, 4, 2, 3, 4):
            b = r.standard_normal(size)
            assert float(step(b).data) == float(b.sum())
        assert len(step._plans) == 2


class TestStochasticAndSideEffects:
    def test_dropout_replays_the_rng_stream(self, rng):
        """Compiled dropout must consume the generator exactly as eager
        training would — same masks, same losses, step after step."""

        def run(compiled):
            data_rng = np.random.default_rng(11)
            lin = Linear(6, 1, rng=3)
            drop = Dropout(0.5, np.random.default_rng(12))

            def loss_fn(batch):
                return (drop(lin(Tensor(batch))) ** 2).mean()

            step = CompiledStep(loss_fn) if compiled else loss_fn
            out = []
            for _ in range(5):
                out.append(float(step(data_rng.standard_normal((4, 6))).data))
            return out, step

        eager_losses, _ = run(False)
        compiled_losses, step = run(True)
        assert eager_losses == compiled_losses
        (plan,) = step.plans
        assert plan.stochastic
        # stochastic plans must skip validation (it would double-draw)
        assert step._needs_validation == {next(iter(step._plans)): False}

    def test_batchnorm_running_stats_advance_identically(self, rng):
        def run(compiled):
            data_rng = np.random.default_rng(13)
            bn = BatchNorm2d(3)
            w = Tensor(np.ones((3, 1, 1)), requires_grad=True)

            def loss_fn(batch):
                return (bn(Tensor(batch)) * w).mean()

            step = CompiledStep(loss_fn) if compiled else loss_fn
            losses = []
            for _ in range(4):
                losses.append(
                    float(step(data_rng.standard_normal((2, 3, 4, 4))).data)
                )
            return losses, bn, step

        eager_losses, eager_bn, _ = run(False)
        compiled_losses, compiled_bn, step = run(True)
        assert eager_losses == compiled_losses
        np.testing.assert_array_equal(
            eager_bn._buffer_running_mean, compiled_bn._buffer_running_mean
        )
        np.testing.assert_array_equal(
            eager_bn._buffer_running_var, compiled_bn._buffer_running_var
        )
        (plan,) = step.plans
        assert plan.has_side_effects


class TestIntegration:
    def test_trainer_compiled_matches_eager_bitwise(self, rng):
        def run(compiled):
            r = np.random.default_rng(14)
            x = r.standard_normal((64, 4))
            y = (x @ r.standard_normal((4, 3))).argmax(axis=1)
            model = Linear(4, 3, rng=2)

            def loss_fn(batch):
                xb, yb = batch
                return cross_entropy(model(Tensor(xb)), yb)

            # amp=False: under REPRO_AMP=1 the eager run would pick amp
            # up from the env while the compiled run drops it (compile
            # wins over an env-default amp) — this test compares the
            # compile path against eager, not against autocast
            return Trainer(
                loss_fn, SGD(model, lr=0.1), ConstantLR(0.1),
                BatchIterator(ArrayDataset(x, y), 16, rng=1),
                grad_clip=1.0, compiled=compiled, amp=False,
            ).run(3)

        eager = run(False)
        compiled = run(True)
        assert eager.log.values("loss") == compiled.log.values("loss")
        assert eager.log.values("grad_norm") == compiled.log.values("grad_norm")

    def test_trainer_emits_compile_counters(self, rng):
        r = np.random.default_rng(15)
        x = r.standard_normal((48, 4))
        y = (x @ r.standard_normal((4, 3))).argmax(axis=1)
        model = Linear(4, 3, rng=2)

        def loss_fn(batch):
            xb, yb = batch
            return cross_entropy(model(Tensor(xb)), yb)

        obs = Obs(metrics=True)
        Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1),
            BatchIterator(ArrayDataset(x, y), 16, rng=1),
            obs=obs, compiled=True,
        ).run(2)
        assert obs.metrics.counter("compile/captures").value == 1
        assert obs.metrics.counter("compile/replays").value == 5
        assert obs.metrics.gauge("compile/nodes").value > 0
        assert obs.metrics.gauge("compile/arena_bytes").value > 0

    def test_trainer_follows_global_switch(self, rng):
        x, y, model, loss_fn = _linear_problem(rng)
        it = BatchIterator(ArrayDataset(x, y), 16, rng=1)
        prev = use_compiled(True)
        try:
            assert compiled_enabled()
            t = Trainer(loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it)
            assert isinstance(t.loss_fn, CompiledStep)
            use_compiled(False)
            t2 = Trainer(loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it)
            assert not isinstance(t2.loss_fn, CompiledStep)
        finally:
            use_compiled(prev)

    @staticmethod
    def _cluster_run(compiled=None, obs=None):
        x, y, model, loss_fn = _linear_problem(np.random.default_rng(21))
        cluster = SimCluster(model.parameters(), loss_fn, 4)
        trainer = Trainer(
            cluster.as_loss_fn(), SGD(model, lr=0.1), ConstantLR(0.1),
            BatchIterator(ArrayDataset(x, y), 16, rng=1),
            obs=obs, compiled=compiled,
        )
        return trainer, trainer.run(2)

    def test_explicit_compile_of_cluster_adapter_raises(self):
        with pytest.raises(ValueError, match="graph loss"):
            self._cluster_run(compiled=True)

    def test_global_switch_leaves_cluster_adapter_eager(self, monkeypatch):
        """The adapter returns no graph: no recorder ever attaches, the
        losses equal the eager run bitwise, and each step counts one
        ``compile/fallbacks``."""
        attaches = []
        attach = GraphRecorder.attach
        monkeypatch.setattr(
            GraphRecorder, "attach", lambda self: attaches.append(1) or attach(self)
        )
        with compiled_graphs(False):
            _, eager = self._cluster_run()
        obs = Obs(metrics=True)
        with compiled_graphs(True):
            trainer, switched = self._cluster_run(obs=obs)
        assert not isinstance(trainer.loss_fn, CompiledStep)
        assert attaches == []
        assert switched.log.values("loss") == eager.log.values("loss")
        steps = 2 * 4  # 64 examples at batch 16, two epochs
        assert obs.metrics.counter("compile/fallbacks").value == steps
        assert obs.metrics.counter("compile/captures").value == 0

    def test_compiled_graphs_context_manager(self):
        prev = use_compiled(False)  # pin a known base state (env may set it)
        try:
            assert not compiled_enabled()
            with compiled_graphs(True):
                assert compiled_enabled()
            assert not compiled_enabled()
        finally:
            use_compiled(prev)

    def test_cli_compile_flag(self, capsys):
        prev = compiled_enabled()
        try:
            code = main(
                ["train", "mnist", "--batch-size", "64", "--epochs", "1",
                 "--compile"]
            )
        finally:
            use_compiled(prev)  # the flag mutates process state; restore
        assert code == 0
        assert "mnist @ batch 64" in capsys.readouterr().out

    def test_nested_capture_stays_eager(self, rng):
        """A CompiledStep invoked inside another capture must pass
        through without recording a plan of its own."""
        inner_x, inner_y, _, inner_loss = _linear_problem(rng)
        inner = CompiledStep(inner_loss)

        w = Tensor(np.ones(1), requires_grad=True)
        outer = CompiledStep(
            lambda b: (Tensor(b) * w).sum()
            + float(inner((inner_x[:8], inner_y[:8])).data) * 0.0,
            validate=False,  # validation would re-run (and capture) inner
        )
        b = np.ones(1)
        outer(b)
        outer(b)
        assert len(inner.plans) == 0  # inner call ran eagerly while recording
        assert len(outer.plans) == 1
