"""The repository benchmark: two training workloads and one serving workload.

Run from the repository root::

    python3 perfbench/run.py --workload train-gnmt-b64-dp4 --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer spans;
``--trace 1`` is the separate traced run that reports the per-layer
metrics, the reconciled layer tree and the tracing overhead.  Every run
checks the program's outputs and prints a run manifest, a human-readable
report and, as its last line, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness check fails and 2 when the package cannot be found.

``BENCHMARK.json`` lists the two workloads whose runs fit the benchmark's
time budget at a steady run length; ``train-mnist-b16`` runs the same
way and is there for small-batch comparisons.

End-to-end metric keys are shared by all workloads (every run reports
every key); their meaning on each:

================  ==========================================  ==========================================
key               train-*                                     serve-gnmt-hotswap
================  ==========================================  ==========================================
setup_s           fresh process to data and model built       fresh process to data, model and server
cold_start_s      fresh training run (model, optimizer,       checkpoint load into a fresh model, server
                  cluster) to its first epoch trained         start and first reply
throughput_per_s  training samples/s                          replies/s while bursts of 150 requests
                                                              saturate the engine (pooled over 8)
latency_p50_ms    step time median                            reply latency p50 at 25 req/s, timed from
                                                              each request's due time
time_to_target_s  training + eval wall time through the       checkpoint save start to the first reply
                  epoch by which the eval target must be met  that carries the new version
final_loss        mean training loss over the last epoch      the same, for the served weights
peak_rss_mb       peak resident memory                        peak resident memory
================  ==========================================  ==========================================

``setup_s`` is the median over five probe processes spread over the
run.  Tails are per-layer metrics (``train.step_p90_ms``,
``serve.reply_p95_ms``, from the untraced share of a traced run): on a
shared 2-core host the serving tail moved by half between two sets of
runs of the same code, more than any bound a regression check can use.
Per-layer metrics read 0 on workloads that bypass
the layer; ``trace.overhead_step_ms`` is the traced minus the untraced
step p50 (reply p50 when serving).  How the timings are taken over
epochs, windows and repeats is explained in
``train_workloads.window_figures`` and the ``serve_workload`` docstring.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

T0 = time.perf_counter()

from common import SETUP_PROBES, SRC, WORK, SetupProbes, manifest, metric  # noqa: E402

WORKLOADS = ("train-mnist-b16", "train-gnmt-b64-dp4", "serve-gnmt-hotswap")

PER_LAYER = {
    "setup.import_s": "s", "setup.data_s": "s", "setup.model_s": "s",
    "data.next_ms": "ms", "forward.ms_per_step": "ms",
    "engine.ops_per_step": "count", "backward.ms_per_step": "ms",
    "optim.step_ms": "ms", "optim.clip_ms": "ms",
    "train.loop_self_ms": "ms", "train.step_p90_ms": "ms", "eval.ms_per_epoch": "ms",
    "parallel.shard_ms_per_step": "ms", "parallel.pack_ms_per_step": "ms",
    "parallel.reduce_ms_per_step": "ms", "parallel.bytes_per_step": "B",
    "parallel.collectives_per_step": "count",
    "parallel.exposed_comm_fraction_model": "1",
    "decode.ms_per_request": "ms", "decode.padded_horizon_fraction": "1",
    "serve.queue_wait_ms_p50": "ms", "serve.queue_wait_ms_p99": "ms", "serve.reply_p95_ms": "ms",
    "serve.batch_size_mean": "count", "serve.engine_ms_per_batch": "ms",
    "serve.padded_slot_fraction": "1", "serve.shed": "count",
    "serve.errors": "count", "serve.gen_lag_ms_p99": "ms",
    "serve.swap_apply_ms": "ms", "ckpt.save_ms": "ms", "ckpt.load_ms": "ms",
    "ckpt.bytes": "B", "trace.overhead_step_ms": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite perfbench/golden.json from the golden-seed runs")
    return parser.parse_args(argv)


def import_package() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import serve_workload
    import train_workloads

    if args.setup_probe:
        def report(phases):
            print(json.dumps(phases), flush=True)

        if args.workload in train_workloads.SPECS:
            train_workloads.setup_probe(train_workloads.SPECS[args.workload], args.seed, T0, report)
        else:
            serve_workload.setup_probe(T0, report)
        return 0
    if args.record_golden:
        golden = {n: train_workloads.golden_run(s) for n, s in train_workloads.SPECS.items()}
        wl, snapshots, _ = serve_workload.train_weights()
        golden["serve-gnmt-hotswap"] = {"tokens": serve_workload.golden_tokens(wl, snapshots[-1])}
        train_workloads.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
        print(json.dumps(golden, indent=2))
        return 0

    info = manifest(args.workload, args.seed, bool(args.trace))
    print("manifest: " + json.dumps(info))
    probes = SetupProbes(args.workload, args.seed)
    if args.trace:
        for _ in range(SETUP_PROBES):
            probes.probe()
    if args.workload in train_workloads.SPECS:
        out = train_workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), probes)
    else:
        out = serve_workload.run(args.seed, args.seconds, bool(args.trace), probes, train_workloads.GOLDEN)
    setup = probes.summary()
    out["metrics"] = {"setup_s": metric(setup["setup_s"], "s"), **out["metrics"]}
    for key in ("import_s", "data_s", "model_s"):
        out["layers"][f"setup.{key}"] = setup[key]

    for line in out["report"]:
        print(line)
    print("end-to-end metrics:")
    for name, m in out["metrics"].items():
        print(f"  {name:<18} {m['value']:>14.6g} {m['unit']}")
    correct = True
    print("checks:")
    for name, (ok, detail) in out["checks"].items():
        correct = correct and ok
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")

    if args.trace:
        metrics = {
            name: metric(out["layers"].get(name, 0.0), unit) for name, unit in PER_LAYER.items()
        }
        print("per-layer metrics:")
        for name, m in metrics.items():
            print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = out["metrics"]
    result = {
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    WORK.mkdir(exist_ok=True)
    record = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"manifest": info, "result": result, "checks": out["checks"]}, indent=2
    ))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
