"""Layer spans recorded from outside the program, and their reconciliation.

The benchmark never edits the code under test.  It times layers by
wrapping their public entry points (:class:`Patches`) so that each call
opens and closes a span in a :class:`repro.obs.trace.Tracer`, whose
per-path ``totals()`` and ``self_times()`` give the layer tree: a path's
self time is its total minus its direct children's, so the children plus
that ``unattributed`` share sum to the path.  That holds only when every
span lies inside its parent and siblings do not overlap, which
:func:`check_nesting` verifies from the recorded extents.
"""

from __future__ import annotations

from collections import defaultdict


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, bool, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        had_own = attr in vars(owner)
        raw = vars(owner).get(attr)
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))
        self._undo.append((owner, attr, had_own, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, had_own, raw = self._undo.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def traced(tracer, fn, name: str):
    """``fn`` with every call recorded as a ``name`` span."""

    def call(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return call


def check_nesting(tracer, tol: float = 1e-6) -> list[str]:
    """Spans that break reconciliation (empty when sound).

    Per thread, in start order, a span must lie inside the innermost
    enclosing span, and that span must be its parent path; a sibling that
    overlaps an earlier one fails the same test.
    """
    problems = []
    by_thread = defaultdict(list)
    for ev in tracer.events:
        by_thread[(ev.pid, ev.tid)].append(ev)
    for events in by_thread.values():
        events.sort(key=lambda e: (e.start, -e.duration))
        open_spans: list = []
        for ev in events:
            while open_spans and open_spans[-1].start + open_spans[-1].duration <= ev.start + tol:
                open_spans.pop()
            outer = open_spans[-1] if open_spans else None
            if ev.parent != (outer.path if outer else "") or (
                outer and ev.start + ev.duration > outer.start + outer.duration + tol
            ):
                problems.append(f"{ev.path} at {ev.start:.6f} s does not nest in its parent")
            open_spans.append(ev)
    return problems


def tree_text(tracer, per: float, unit: str) -> str:
    """The layer tree, times divided by ``per`` (e.g. steps).

    Every path with children is followed by its ``unattributed`` row, so
    each level's rows sum to their parent.
    """
    totals = tracer.totals()
    selfs = tracer.self_times()
    children = defaultdict(list)
    for path in sorted(totals):
        children[path.rpartition("/")[0]].append(path)
    lines = [f"{'layer':<52} {'calls':>8} {'ms/' + unit:>12}"]

    def emit(path: str, indent: str) -> None:
        calls, total = totals[path]
        lines.append(f"{indent + path.rpartition('/')[2]:<52} {calls:>8d} {total * 1e3 / per:>12.3f}")
        for child in children[path]:
            emit(child, indent + "  ")
        if children[path]:
            lines.append(f"{indent + '  unattributed':<52} {'':>8} {selfs[path] * 1e3 / per:>12.3f}")

    for root in children[""]:
        emit(root, "")
    return "\n".join(lines)
