"""Op-level profiling of the ``repro.tensor`` autodiff engine.

Every primitive op in the engine funnels through ``Tensor._make(data,
parents, vjp, op)`` — the single choke point where the output array, the
op name and the backward closure meet.  :class:`OpProfiler` monkey-patches
that one staticmethod while attached:

* **forward** — each ``_make`` call counts one forward execution of
  ``op``; its elapsed time is the wall-clock delta since the previous
  engine event (the NumPy compute for an op runs immediately before its
  ``_make`` call, so the delta is dominated by that op's forward work).
  Callers that interleave non-engine work (data loading, optimizer steps)
  should call :meth:`mark` at phase boundaries so the gap is not billed to
  the next op — the trainer marks before every step's forward.
* **backward** — the vjp closure is wrapped and timed exactly; backward
  stats are attributed to the same op name, reported separately.  Each
  timed vjp also resets the forward mark, so backward time is never
  billed a second time to the next forward op.

Element throughput uses the output array size (forward) and the upstream
gradient size (backward).  ``detach`` restores the engine bit-for-bit:
the original staticmethod object is put back, so ops created afterwards
carry no profiling wrapper (ops created *while* attached keep their timed
vjp — backward through a pre-built graph still reports).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.tensor.tensor import Tensor
from repro.utils.tables import Table

__all__ = ["OpStat", "OpProfiler", "get_active"]

# The most recently attached profiler (cleared on detach).  The compiled
# replay path bypasses ``Tensor._make`` entirely, so it reports per-node
# forward stats through this handle instead of the monkey-patch.
_ACTIVE: "OpProfiler | None" = None


def get_active() -> "OpProfiler | None":
    """The currently attached profiler, if any."""
    return _ACTIVE


@dataclass
class OpStat:
    """Accumulated counts for one (op, phase) pair."""

    calls: int = 0
    seconds: float = 0.0
    elements: int = 0

    @property
    def throughput(self) -> float:
        """Elements per second (0 when no time was observed)."""
        return self.elements / self.seconds if self.seconds > 0 else 0.0


class OpProfiler:
    """Counts calls / time / elements per op name, forward and backward."""

    def __init__(self) -> None:
        self.forward: dict[str, OpStat] = {}
        self.backward: dict[str, OpStat] = {}
        #: How many ``_make`` calls actually built a graph node (retained
        #: parents + a vjp closure).  Under ``no_grad()`` every op stays a
        #: plain array computation and this stays 0 — the serving tests
        #: pin inference paths on that invariant.
        self.graph_nodes = 0
        self._attached = False
        self._saved_make = None
        self._mark = time.perf_counter()

    # -- attach / detach ---------------------------------------------------

    @property
    def attached(self) -> bool:
        return self._attached

    def attach(self) -> "OpProfiler":
        """Install the engine hook (idempotent)."""
        if self._attached:
            return self
        self._saved_make = Tensor.__dict__["_make"]  # the staticmethod object
        original = self._saved_make.__func__
        profiler = self

        def profiled_make(data, parents, vjp, op, replay=None):
            now = time.perf_counter()
            stat = profiler.forward.get(op)
            if stat is None:
                stat = profiler.forward[op] = OpStat()
            stat.calls += 1
            stat.seconds += now - profiler._mark
            stat.elements += data.size

            def timed_vjp(g):
                t0 = time.perf_counter()
                try:
                    return vjp(g)
                finally:
                    bstat = profiler.backward.get(op)
                    if bstat is None:
                        bstat = profiler.backward[op] = OpStat()
                    bstat.calls += 1
                    t1 = time.perf_counter()
                    bstat.seconds += t1 - t0
                    bstat.elements += g.size
                    # backward time is billed here, never again to the
                    # next forward op
                    profiler._mark = t1

            out = original(data, parents, timed_vjp, op, replay=replay)
            if out._vjp is not None:
                profiler.graph_nodes += 1
            profiler._mark = time.perf_counter()
            return out

        Tensor._make = staticmethod(profiled_make)
        self._attached = True
        global _ACTIVE
        _ACTIVE = self
        self.mark()
        return self

    def detach(self) -> "OpProfiler":
        """Remove the hook, restoring the original engine entry point."""
        if not self._attached:
            return self
        Tensor._make = self._saved_make
        self._saved_make = None
        self._attached = False
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None
        return self

    @contextmanager
    def attached_to_engine(self):
        """``with profiler.attached_to_engine(): ...`` — scoped attach."""
        self.attach()
        try:
            yield self
        finally:
            self.detach()

    def mark(self) -> None:
        """Reset the forward-attribution reference point (phase boundary)."""
        self._mark = time.perf_counter()

    def record_replay(self, label: str, seconds: float, elements: int) -> None:
        """Credit one compiled-replay forward execution to ``label``.

        Replayed nodes never pass through ``Tensor._make`` (that is the
        point of replay), so :class:`repro.compile.ReplayPlan` reports them
        here under their ``compiled_<op>`` labels.
        """
        stat = self.forward.get(label)
        if stat is None:
            stat = self.forward[label] = OpStat()
        stat.calls += 1
        stat.seconds += seconds
        stat.elements += elements

    def reset(self) -> None:
        """Drop all accumulated statistics (hook state is untouched)."""
        self.forward.clear()
        self.backward.clear()
        self.graph_nodes = 0
        self.mark()

    # -- reporting ---------------------------------------------------------

    def rows(self) -> list[tuple[str, str, OpStat]]:
        """All (op, phase, stat) triples, most total time first."""
        rows = [(op, "forward", st) for op, st in self.forward.items()]
        rows += [(op, "backward", st) for op, st in self.backward.items()]
        rows.sort(key=lambda r: r[2].seconds, reverse=True)
        return rows

    def table(self, top: int = 12) -> str:
        """Top-``top`` ops by total time as an ASCII table."""
        rows = self.rows()
        shown = rows[: top if top else len(rows)]
        table = Table(
            f"op profile (top {len(shown)} of {len(rows)} by time)",
            ["op", "phase", "calls", "time ms", "elements", "Melem/s"],
        )
        for op, phase, st in shown:
            table.add_row(
                [
                    op,
                    phase,
                    st.calls,
                    st.seconds * 1e3,
                    st.elements,
                    st.throughput / 1e6,
                ]
            )
        return table.render()

    def snapshot(self) -> list[dict]:
        """All stats as plain dicts (for JSON hand-off)."""
        return [
            {
                "op": op,
                "phase": phase,
                "calls": st.calls,
                "seconds": st.seconds,
                "elements": st.elements,
            }
            for op, phase, st in self.rows()
        ]
