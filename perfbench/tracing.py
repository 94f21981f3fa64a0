"""Per-layer spans recorded from outside the program.

For a traced round only, `Recorder.bound` rebinds the public functions at the
boundary where `ologkit.cli` and `ologkit.bundled` call into the four layers
(and `derive_equality`, which the derive ops call directly) to wrappers that
record one span per call: name, start, end, parent span and op id, plus the
counts each layer's return value gives.  Calls a layer makes inside itself
are not rebound, so they stay in that layer's self time.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field


def _elements(instance) -> int:
    return sum(len(elems) for elems in instance.sets.values())


# (module, name bound there, layer metric prefix, counts from (args, result)).
# Every span also counts `calls`, and `raised` when the call raises.
BOUNDARY: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "parse_schema", "dsl.parse_schema", None),
    ("bundled", "parse_schema", "dsl.parse_schema", None),
    ("cli", "parse_instance", "dsl.parse_instance",
     lambda a, r: {"bytes": len(a[0].encode("utf-8"))}),
    ("cli", "serialize_instance", "dsl.serialize_instance",
     lambda a, r: {"bytes": len(r.encode("utf-8"))}),
    ("cli", "validate_schema", "schema.validate_schema", None),
    ("schema", "derive_equality", "schema.derive_equality",
     lambda a, r: {"holds": int(r.holds), "unknown": int(not r.holds)}),
    ("cli", "validate_instance", "instance.validate_instance",
     lambda a, r: {"elements": _elements(a[1])}),
    ("cli", "check_all_equations", "instance.check_all_equations",
     lambda a, r: {"checked": sum(e.checked for e in r)}),
    ("cli", "verify_all_fiber_products", "instance.verify_all_fiber_products",
     lambda a, r: {"apex_elements": sum(f.apex_size for f in r)}),
    ("cli", "compute_pullback", "instance.compute_pullback", lambda a, r: {"pairs": len(r)}),
    ("cli", "check_instance_isomorphism", "instance.check_instance_isomorphism", None),
    ("cli", "generate_instance", "chains.generate_instance",
     lambda a, r: {"elements": _elements(r)}),
    ("cli", "build_chain", "chains.build_chain", None),
    ("cli", "classify", "chains.classify", None),
)

# The span around a whole op; its self time is the command layer's own (cli.self).
OP_SPAN = "cli"


@dataclass
class Span:
    name: str
    op: object  # (round, op index)
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    counts: dict[str, int] = field(default_factory=lambda: {"calls": 1})


class Recorder:
    """Keeps every span in memory; `totals` folds them into per-name sums."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._op = None

    def _enter(self, name: str) -> Span:
        span = Span(name, self._op, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    @contextmanager
    def op(self, key) -> Iterator[None]:
        self._op = key
        span = self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit(span)

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.counts["raised"] = 1
                raise
            finally:
                self._exit(span)
            if count is not None:
                span.counts.update(count(args, result))
            return result

        return traced

    @contextmanager
    def bound(self, mods) -> Iterator[None]:
        """Rebind the boundary names in `mods` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, count in BOUNDARY:
                module = getattr(mods, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self, scale: dict) -> dict[str, float]:
        """Self seconds (`<name>.s`) and summed counts (`<name>.<count>`).

        Only spans of the ops in `scale` count; each op's seconds are
        multiplied by its factor there.
        """
        out: dict[str, float] = {}
        for span in self.spans:
            if span.op not in scale:
                continue
            key = f"{span.name}.self.s" if span.name == OP_SPAN else f"{span.name}.s"
            self_s = (span.end - span.start - span.child_s) * scale[span.op]
            out[key] = out.get(key, 0.0) + self_s
            for count, value in span.counts.items():
                out[f"{span.name}.{count}"] = out.get(f"{span.name}.{count}", 0) + value
        return out
