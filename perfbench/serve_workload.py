"""GNMT translation serving under open-loop Poisson traffic and checkpoint hot-swap.

One in-process :class:`repro.serve.Server` (default ``DynamicBatcher``,
``InferenceEngine(task="gnmt")``) serves weights this module trains first
through ``Workload.run``, always on the same data and seed; the
workload seed draws the traffic.  Two load threads drive it.  The main
thread is the open-loop generator: after a warm-up it alternates windows
of Poisson traffic at 25 req/s with bursts of 150 requests at 250 req/s
that saturate the engine thread; after each burst the server is
cold-started six times beside the running one (a freshly built model
loads a checkpoint, a new server starts and answers one request).
During the warm-up and every nominal window a second thread, the
deployer, writes a new checkpoint version every second with
``CheckpointManager.save``, stages it with ``Server.request_swap``, waits
until the swap is applied and sends one canary, so checkpoint writes and
swaps run beside inference without holding up the generator.

The generator is the benchmark's own, not ``repro.serve.loadgen``: every
request is timed from the moment it was *due*, so a stall of the
generator is charged to the requests it delays, and the generator's
lateness is reported.  Sheds, errors and timeouts are failures counted
against requests attempted.  Canaries feed only the swap figures, never
the latency pools.

Host speed on a shared 2-core machine swings by up to ~1.7x over
seconds to minutes, and a ~10 ms reply spans only a few scheduler
quanta, so a run's pooled latency follows the host's state during that
run.  Each timing is therefore taken per unit (the p50 and p95 of each
nominal window, each cold start, each swap) and reported at the lower
quartile over the units (``QUIET_PCT``): the figure of the run's quieter
spells, which a slower program raises as much as any other.
"""

from __future__ import annotations

import json
import math
import shutil
import threading
import time

import numpy as np

from common import SETUP_PROBES, WORK, metric, percentile, peak_rss_mb
from spans import Patches, check_nesting, traced, tree_text

WEIGHTS_BATCH = 64
WEIGHTS_EPOCHS = 3  # one checkpoint version per epoch
NOMINAL_RPS = 25.0
BURST_RPS = 250.0
# fewer than the batcher's 256-deep admission queue holds, so a burst is
# never shed however slow the engine; at ~120 req/s it keeps the engine
# thread busy for ~1.2 s
BURST_REQUESTS = 150
BURST_ALLOWANCE_S = 1.5  # share of --seconds set aside for each burst
CYCLES = 8  # nominal windows, each followed by a burst
WARMUP_S = 1.0
BATCH_GAP_S = 1e-3  # replies further apart than this came from different batches
SWAP_EVERY_S = 1.0
TAIL_PCT = 95
COLD_STARTS = 6  # in-process cold starts after each burst
# Timings are taken per window (per cold start, per swap) and reported at
# this percentile over them; see the module docstring.
QUIET_PCT = 25
PROBE_LEN = 5
DRAIN_TIMEOUT_S = 20.0
OFFLINE_SAMPLE = 60
TOKEN_MATCH_MIN = 0.99
# the served model's data and weights come from the GNMT factory's default
# data seed, also the seed of the committed golden decode; --seed draws
# the traffic
GOLDEN_SEED = 400
GOLDEN_BATCHED = 6  # golden sources decoded together; the rest one by one
GOLDEN_SOURCES = 12


def build():
    from repro.experiments.common import gnmt_workload

    return gnmt_workload("smoke", seed=GOLDEN_SEED)


def setup_probe(t0: float, report) -> None:
    """One fresh-process set-up: import, data, model and an idle server built."""
    from repro.serve import InferenceEngine

    t_import = time.perf_counter()
    wl = build()
    t_data = time.perf_counter()
    model = wl.make_model(GOLDEN_SEED)
    _server_for_engine(InferenceEngine(model, task="gnmt"))
    t_model = time.perf_counter()
    report({
        "import_s": t_import - t0,
        "data_s": t_data - t_import,
        "model_s": t_model - t_data,
    })


def cold_start(wl, path, source) -> float:
    """Seconds from loading ``path`` into a freshly built model to a started server's first reply."""
    from repro.serve import InferenceEngine

    model = wl.make_model(GOLDEN_SEED)
    t0 = time.perf_counter()
    engine = InferenceEngine.from_checkpoint(path, model, "gnmt")
    server = _server_for_engine(engine).start()
    try:
        server.predict_sync(source, len(source))
        return time.perf_counter() - t0
    finally:
        server.stop(drain=True)


def _probe_source(wl):
    return next(src for src, _ in wl.make_train_iter(1, 0).pairs if len(src) == PROBE_LEN)


def _server_for_engine(engine):
    from repro.serve import DynamicBatcher, Server

    return Server(engine, DynamicBatcher())


def train_weights():
    """The served workload, a state snapshot after every epoch of training, and the last epoch's loss."""
    wl = build()
    snapshots: list[dict[str, np.ndarray]] = []
    make_eval = wl.make_eval_fn

    def snapshot_eval(model):
        fn = make_eval(model)

        def evaluate():
            out = fn()
            snapshots.append({k: v.copy() for k, v in model.state_dict().items()})
            return out

        return evaluate

    with Patches() as patches:
        patches.wrap(wl, "make_eval_fn", lambda _: snapshot_eval)
        result = wl.run(
            WEIGHTS_BATCH, wl.legw_schedule(WEIGHTS_BATCH, WEIGHTS_EPOCHS),
            seed=GOLDEN_SEED, epochs=WEIGHTS_EPOCHS,
        )
    spe = wl.steps_per_epoch(WEIGHTS_BATCH)
    return wl, snapshots, float(np.mean(result.log.values("loss")[-spe:]))


def golden_tokens(wl, weights) -> list[list[int]]:
    """Served tokens of fixed sources at the trained ``weights``.

    The first sources go through ``InferenceEngine.predict`` as one
    padded batch, the rest one by one, so the committed values pin the
    beam search and its decode horizon on both paths.
    """
    from repro.serve import InferenceEngine

    model = wl.make_model(GOLDEN_SEED)
    model.load_state_dict(weights)
    engine = InferenceEngine(model, task="gnmt")
    sources = [src for src, _ in wl.make_train_iter(1, 0).pairs[:GOLDEN_SOURCES]]
    results = engine.predict(sources[:GOLDEN_BATCHED])
    results += [engine.predict([src])[0] for src in sources[GOLDEN_BATCHED:]]
    return [[int(t) for t in r["tokens"]] for r in results]


def check_golden(golden_path, wl, weights) -> tuple[bool, str]:
    expected = json.loads(golden_path.read_text())["serve-gnmt-hotswap"]["tokens"]
    got = golden_tokens(wl, weights)
    same = sum(a == b for a, b in zip(got, expected))
    return got == expected, f"{same}/{len(expected)} decoded outputs equal the committed tokens"


class Traffic:
    """Requests sent, canaries, swaps, and what came back."""

    def __init__(self, pairs) -> None:
        self.pairs = pairs  # (source, target) pairs the payloads are drawn from
        self.records: list[dict] = []  # generator requests: due, sent, req, phase, src
        self.canaries: list[dict] = []  # deployer requests: req, src
        self.swaps: list[dict] = []  # version, save_start, event, phase
        self.next_version = 0
        self._applied = 0  # swaps known applied (worker thread only)
        self.stale = 0

    def on_done(self, req) -> None:
        # runs on the server's worker thread right after the batch, so an
        # applied-event seen set here was set before this batch began
        swaps = self.swaps
        while self._applied < len(swaps) and swaps[self._applied]["event"].is_set():
            self._applied += 1
        result = req.result
        if isinstance(result, dict) and "version" in result and self._applied:
            if result["version"] < swaps[self._applied - 1]["version"]:
                self.stale += 1


class Deployer(threading.Thread):
    """The second load thread: save, stage, wait for the swap, send a canary."""

    def __init__(self, server, traffic: Traffic, saver, manager, snapshots, canaries, phase: str) -> None:
        super().__init__(name="deployer")
        self.server = server
        self.traffic = traffic
        self.saver = saver
        self.manager = manager
        self.snapshots = snapshots
        self.canaries = canaries  # payload index per swap, drawn by the generator
        self.phase = phase
        self.error: BaseException | None = None

    def run(self) -> None:
        traffic = self.traffic
        start = time.perf_counter()
        try:
            for i, p in enumerate(self.canaries):
                delay = start + (i + 0.5) * SWAP_EVERY_S - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                version = traffic.next_version
                traffic.next_version += 1
                self.saver.load_state_dict(self.snapshots[version % len(self.snapshots)])
                t_save = time.perf_counter()
                path = self.manager.save(self.saver, step=version)
                event = self.server.request_swap(path)
                traffic.swaps.append(
                    {"version": version, "save_start": t_save, "event": event, "phase": self.phase}
                )
                # deploy step: once the swap is live, a canary makes it
                # visible without waiting for the next Poisson arrival
                event.wait(DRAIN_TIMEOUT_S)
                src = traffic.pairs[p][0]
                req = self.server.submit(src, len(src), on_done=traffic.on_done)
                traffic.canaries.append({"req": req, "src": src})
        except BaseException as exc:  # noqa: BLE001 - re-raised on the generator thread
            self.error = exc


def arrivals(rng: np.random.Generator, rate: float, *, duration: float | None = None, count: int | None = None) -> np.ndarray:
    """Poisson arrival offsets: those in ``[0, duration)``, or the first ``count``."""
    n = count if count is not None else int(rate * duration * 2) + 16
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return times - times[0] if count is not None else times[times < duration]


def run_phase(server, traffic: Traffic, rng, rate: float, phase: str, *, duration=None, count=None, deploy=None):
    """Send one phase's traffic (with swaps when ``deploy`` is given) and wait for it.

    Returns the phase's records and the queue depth when its last request was sent.
    """
    offsets = arrivals(rng, rate, duration=duration, count=count)
    payloads = rng.integers(0, len(traffic.pairs), size=len(offsets))
    deployer = None
    if deploy is not None:
        n_swaps = int(math.ceil(duration / SWAP_EVERY_S - 0.5))
        deployer = Deployer(server, traffic, *deploy, rng.integers(0, len(traffic.pairs), size=n_swaps), phase)
    start = time.perf_counter()
    if deployer is not None:
        deployer.start()
    records = []
    try:
        for offset, p in zip(offsets, payloads):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            src = traffic.pairs[p][0]
            sent = time.perf_counter()
            req = server.submit(src, len(src), on_done=traffic.on_done)
            records.append({"due": due, "sent": sent, "req": req, "phase": phase, "src": src})
        depth_at_end = server.batcher.depth()
    finally:
        if deployer is not None:
            deployer.join()
    if deployer is not None and deployer.error is not None:
        raise deployer.error
    traffic.records.extend(records)
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    for rec in records + traffic.canaries:
        rec["req"].wait(max(0.0, deadline - time.perf_counter()))
    return records, depth_at_end


def _served(req) -> bool:
    return req.done and isinstance(req.result, dict) and "tokens" in req.result


def outcome(records) -> dict:
    from repro.serve.batcher import SHED

    lat, shed, errors, timeouts = [], 0, 0, 0
    for rec in records:
        req = rec["req"]
        if not req.done:
            timeouts += 1
        elif req.result is SHED:
            shed += 1
        elif not _served(req):
            errors += 1
        elif "due" in rec:
            lat.append((req.completed_at - rec["due"]) * 1e3)
    return {
        "n": len(records),
        "lat_ms": lat,
        "shed": shed,
        "errors": errors,
        "timeouts": timeouts,
        "failed": shed + errors + timeouts,
        "lag_ms": [(r["sent"] - r["due"]) * 1e3 for r in records if "due" in r],
    }


def swap_visible_ms(traffic: Traffic, phases) -> list[float]:
    """Per swap of ``phases``: save start to the first reply carrying its version or a newer one."""
    done = sorted(
        (r["req"].completed_at, r["req"].result["version"])
        for r in traffic.records + traffic.canaries
        if _served(r["req"])
    )
    out = []
    for swap in traffic.swaps:
        if swap["phase"] not in phases:
            continue
        first = next(
            (t for t, v in done if v >= swap["version"] and t >= swap["save_start"]), None
        )
        if first is not None:
            out.append((first - swap["save_start"]) * 1e3)
    return out


def saturated(records) -> tuple[int, float]:
    """Replies served after the first batch, and the time from its end to the last reply.

    The burst is offered faster than one engine thread serves it, so
    from the first batch on the queue is never empty and the ratio is
    the serving capacity.  Replies of one batch finish within
    microseconds of each other, batches milliseconds apart.  Sheds and
    errors are not replies.
    """
    done = sorted(r["req"].completed_at for r in records if _served(r["req"]))
    first = next((i for i in range(1, len(done)) if done[i] - done[i - 1] > BATCH_GAP_S), len(done))
    return (len(done) - first, done[-1] - done[first - 1]) if first < len(done) else (0, 0.0)


def offline_token_match(traffic: Traffic, snapshots, wl) -> tuple[float, int]:
    """Token match of served outputs against an offline decode of the same version.

    ``InferenceEngine.translate`` decodes every request in a batch to the
    horizon of the batch's longest source, so a served answer depends on
    which requests it shared a batch with.  The offline decode replays each
    sampled request in every batch shape it could have been served in (one
    companion source of each feasible longest length) and keeps the
    closest answer.
    """
    from repro.serve import InferenceEngine

    served = [r for r in traffic.records + traffic.canaries if _served(r["req"])]
    step = max(1, len(served) // OFFLINE_SAMPLE)
    sample = served[::step][:OFFLINE_SAMPLE]
    longest = max(len(src) for src, _ in traffic.pairs)
    companions = {len(src): src for src, _ in traffic.pairs}
    engines = {}
    match = total = 0
    for rec in sample:
        version = rec["req"].result["version"]
        engine = engines.get(version % len(snapshots))
        if engine is None:
            model = wl.make_model(GOLDEN_SEED)
            model.load_state_dict(snapshots[version % len(snapshots)])
            engine = engines[version % len(snapshots)] = InferenceEngine(model, task="gnmt")
        src, got = rec["src"], rec["req"].result["tokens"]
        best = (0, 1)
        for width in range(len(src), longest + 1):
            batch = [src] if width == len(src) else [src, companions[width]]
            want = engine.predict(batch)[0]["tokens"]
            size = max(len(want), len(got), 1)
            hits = size if want == got else sum(a == b for a, b in zip(want, got))
            if hits / size > best[0] / best[1]:
                best = (hits, size)
            if hits == size:
                break
        match += best[0]
        total += best[1]
    return (match / total if total else 0.0), len(sample)


def instrument(tracer, patches: Patches, server, stats: dict) -> None:
    """Layer spans around the serving, decoding and checkpoint entry points."""
    import repro.models.beam as beam
    import repro.serve.engine as engine_mod
    from repro.serve import InferenceEngine
    from repro.utils.checkpoint import CheckpointManager

    def wrap_next_batch(f):
        def next_batch(*args, **kwargs):
            batch = f(*args, **kwargs)
            if batch:
                now = time.perf_counter()
                stats["queue_wait_ms"].extend((now - r.submitted_at) * 1e3 for r in batch)
                stats["batch_sizes"].append(len(batch))
            return batch

        return next_batch

    patches.wrap(server.batcher, "next_batch", wrap_next_batch)

    def wrap_predict(f):
        predict_traced = traced(tracer, f, "serve.batch")

        def predict(self, payloads, lengths=None):
            lens = [len(p) for p in payloads]
            stats["slots"] += len(lens) * max(lens)
            stats["tokens"] += sum(lens)
            return predict_traced(self, payloads, lengths)

        return predict

    patches.wrap(InferenceEngine, "predict", wrap_predict)

    def wrap_decode(f):
        decode_traced = traced(tracer, f, "decode")

        def beam_decode(model, src, src_len, max_len, *args, **kwargs):
            own = [int(int(n) * server.engine.max_len_factor) + 2 for n in src_len]
            stats["horizon_own"] += sum(own)
            stats["horizon_padded"] += max_len * len(own)
            return decode_traced(model, src, src_len, max_len, *args, **kwargs)

        return beam_decode

    patches.wrap(beam, "beam_decode", wrap_decode)
    patches.wrap(beam, "beam_decode_sentence", lambda f: traced(tracer, f, "decode.sentence"))
    patches.wrap(InferenceEngine, "load_version", lambda f: traced(tracer, f, "serve.swap"))
    patches.wrap(engine_mod, "load_checkpoint", lambda f: traced(tracer, f, "ckpt.load"))

    def wrap_save(f):
        save_traced = traced(tracer, f, "ckpt.save")

        def save(self, *args, **kwargs):
            path = save_traced(self, *args, **kwargs)
            stats["ckpt_bytes"].append(path.stat().st_size)
            return path

        return save

    patches.wrap(CheckpointManager, "save", wrap_save)


def run(seed: int, seconds: float, trace: bool, probes, golden_path) -> dict:
    from repro.obs.trace import Tracer
    from repro.serve import InferenceEngine
    from repro.utils.checkpoint import CheckpointManager

    wl, snapshots, final_loss = train_weights()
    workdir = WORK / f"serve-{seed}-{time.time_ns()}"
    checks: dict[str, tuple[bool, str]] = {}
    report: list[str] = []
    layers: dict[str, float] = {}
    try:
        manager = CheckpointManager(workdir, keep_last=3)
        saver = wl.make_model(GOLDEN_SEED)
        saver.load_state_dict(snapshots[0])
        # version v serves snapshot v % len(snapshots)
        first = manager.save(saver, step=len(snapshots))
        traffic = Traffic(wl.make_train_iter(1, 0).pairs)
        traffic.next_version = len(snapshots) + 1
        rng = np.random.default_rng(seed)
        deploy = (saver, manager, snapshots)

        cold_path = CheckpointManager(workdir / "cold").save(saver, step=len(snapshots))
        cold_source = _probe_source(wl)
        engine = InferenceEngine.from_checkpoint(first, wl.make_model(GOLDEN_SEED), "gnmt")
        server = _server_for_engine(engine).start()
        windows, bursts, colds = [], [], []
        try:
            run_phase(server, traffic, rng, NOMINAL_RPS, "warmup", duration=WARMUP_S, deploy=deploy)
            if not trace:
                window_s = max(1.0, (seconds - WARMUP_S) / CYCLES - BURST_ALLOWANCE_S)
                for w in range(CYCLES):
                    if w % 2 == 0:
                        probes.probe()
                    windows.append(run_phase(
                        server, traffic, rng, NOMINAL_RPS, f"nominal-{w}", duration=window_s, deploy=deploy,
                    ))
                    bursts.append(run_phase(
                        server, traffic, rng, BURST_RPS, f"burst-{w}", count=BURST_REQUESTS,
                    )[0])
                    colds.extend(cold_start(wl, cold_path, cold_source) for _ in range(COLD_STARTS))
                while len(probes.runs) < SETUP_PROBES:
                    probes.probe()
            else:
                half = max(1.0, (seconds - WARMUP_S) / 2)
                windows.append(run_phase(
                    server, traffic, rng, NOMINAL_RPS, "nominal-0", duration=half, deploy=deploy,
                ))
                tracer = Tracer()
                stats = {"queue_wait_ms": [], "batch_sizes": [], "slots": 0, "tokens": 0,
                         "horizon_own": 0, "horizon_padded": 0, "ckpt_bytes": []}
                with Patches() as patches:
                    instrument(tracer, patches, server, stats)
                    traced_records, _ = run_phase(
                        server, traffic, rng, NOMINAL_RPS, "traced", duration=half, deploy=deploy,
                    )
                layers, tree, problems = serve_layers(
                    tracer, stats, outcome(windows[0][0]), outcome(traced_records)
                )
                report.append(tree)
                checks["traced spans reconcile"] = (
                    not problems,
                    "; ".join(problems[:3]) or "children + unattributed = parent at every level",
                )
        finally:
            server.stop(drain=True)

        every = outcome(traffic.records + traffic.canaries)
        nominal = [outcome(recs) for recs, _ in windows]
        phases = [f"nominal-{w}" for w in range(len(windows))]
        visible = swap_visible_ms(traffic, phases)
        capacity = [saturated(recs) for recs in bursts]
        served = sum(n for n, _ in capacity)
        busy = sum(span for _, span in capacity)
        for w, (o, (_, depth)) in enumerate(zip(nominal, windows)):
            report.append(
                f"window {w}: {NOMINAL_RPS:g} req/s, {o['n']} sent, {o['failed']} failed, "
                f"p50 {percentile(o['lat_ms'], 50):.1f} ms, p{TAIL_PCT} "
                f"{percentile(o['lat_ms'], TAIL_PCT):.1f} ms, queue at end {depth}; swaps visible "
                f"after (ms) {[round(v, 1) for v in swap_visible_ms(traffic, [phases[w]])]}"
            )
        for w, (recs, (n, span)) in enumerate(zip(bursts, capacity)):
            report.append(
                f"burst {w}: {BURST_REQUESTS} requests at {BURST_RPS:g} req/s, "
                f"{sum(_served(r['req']) for r in recs)} served, "
                f"{n / span if span else math.nan:.1f} req/s after the first batch"
            )
        pooled = [v for o in nominal for v in o["lat_ms"]]
        p50s = [percentile(o["lat_ms"], 50) for o in nominal]
        report.append(
            f"nominal windows pooled: {len(pooled)} replies, p50 {percentile(pooled, 50):.2f} ms, "
            f"p{TAIL_PCT} {percentile(pooled, TAIL_PCT):.2f} ms with "
            f"{len(pooled) - math.ceil(len(pooled) * TAIL_PCT / 100)} beyond; "
            f"{len(traffic.swaps)} hot-swaps, {len(visible)} in nominal windows; "
            f"generator lag p99 {percentile(every['lag_ms'], 99):.2f} ms"
        )
        match, n_checked = offline_token_match(traffic, snapshots, wl)
        checks["no stale version after a swap applied"] = (
            traffic.stale == 0, f"{traffic.stale} stale responses"
        )
        seen = swap_visible_ms(traffic, {s["phase"] for s in traffic.swaps})
        checks["every swap became visible"] = (
            len(seen) == len(traffic.swaps),
            f"{len(seen)}/{len(traffic.swaps)} swaps seen in responses",
        )
        checks["offline decode token match"] = (
            match >= TOKEN_MATCH_MIN,
            f"{match:.4f} over {n_checked} sampled responses (margin: >= {TOKEN_MATCH_MIN})",
        )
        checks["every request answered"] = (
            every["failed"] == 0,
            f"{every['failed']}/{every['n']} failed in all phases, bursts and canaries included "
            f"({every['shed']} shed, {every['errors']} errors, {every['timeouts']} timeouts)",
        )
        checks["golden decode equals committed tokens"] = check_golden(golden_path, wl, snapshots[-1])
        report.append(
            f"{len(colds)} cold starts (ms): {[round(c * 1e3, 2) for c in colds]}"
        )
        metrics = {
            "cold_start_s": metric(percentile(colds, QUIET_PCT), "s"),
            "throughput_per_s": metric(served / busy if busy else math.nan, "1/s"),
            "latency_p50_ms": metric(percentile(p50s, QUIET_PCT), "ms"),
            "time_to_target_s": metric(percentile(visible, QUIET_PCT) / 1e3, "s"),
            "final_loss": metric(final_loss, "nats"),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
        }
        if trace:
            layers["serve.shed"] = float(every["shed"])
            layers["serve.errors"] = float(every["errors"])
            layers["serve.gen_lag_ms_p99"] = percentile(every["lag_ms"], 99)
        return {
            "metrics": metrics,
            "layers": layers,
            "attempted": every["n"],
            "failed": every["failed"],
            "checks": checks,
            "report": report,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def serve_layers(tracer, stats: dict, plain: dict, traced_phase: dict):
    """Per-layer figures of the traced phase."""

    def mean_ms(name):
        durs = [ev.duration * 1e3 for ev in tracer.events if ev.name == name]
        return float(np.mean(durs)) if durs else 0.0

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    n_requests = sum(1 for ev in tracer.events if ev.name == "decode.sentence")
    layers = {
        "decode.ms_per_request": mean_ms("decode.sentence"),
        "decode.padded_horizon_fraction": 1.0 - stats["horizon_own"] / stats["horizon_padded"] if stats["horizon_padded"] else 0.0,
        "serve.queue_wait_ms_p50": percentile(stats["queue_wait_ms"], 50),
        "serve.queue_wait_ms_p99": percentile(stats["queue_wait_ms"], 99),
        "serve.reply_p95_ms": percentile(plain["lat_ms"], TAIL_PCT),
        "serve.batch_size_mean": mean(stats["batch_sizes"]),
        "serve.engine_ms_per_batch": mean_ms("serve.batch"),
        "serve.padded_slot_fraction": 1.0 - stats["tokens"] / stats["slots"] if stats["slots"] else 0.0,
        "serve.swap_apply_ms": mean_ms("serve.swap"),
        "ckpt.save_ms": mean_ms("ckpt.save"),
        "ckpt.load_ms": mean_ms("ckpt.load"),
        "ckpt.bytes": mean(stats["ckpt_bytes"]),
        "trace.overhead_step_ms": percentile(traced_phase["lat_ms"], 50) - percentile(plain["lat_ms"], 50),
    }
    text = tree_text(tracer, max(1, n_requests), "request") + f"\n({n_requests} traced requests)"
    return layers, text, check_nesting(tracer)
