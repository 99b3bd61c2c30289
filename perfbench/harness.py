"""Closed-loop timing, in-memory span tracing and metric arithmetic.

One caller sends the next item only after the previous one returned.  An
item raises ``WrongOutput`` when its output fails its check; any other
exception, or a CLI exit code the contract forbids, counts as a failed
item too, but only a wrong output makes the run incorrect.

The speed of a shared host drifts by 20% and more within seconds, and
every timing drifts with it.  So the loop times a fixed reference unit of
pure-Python work, which calls nothing in the library, before the first
item and then after every ``READ_EVERY_S`` of item time, and the
end-to-end times are reported at reference speed: an item's raw time
multiplied by ``REF_NOMINAL_S`` over the reference readings taken just
before and just after it.  A change to the library moves these times
exactly as it moves raw times; a change in host speed moves the
reference as well and cancels out.
"""

from __future__ import annotations

import gc
import gzip
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


class WrongOutput(Exception):
    """The program answered, and the answer failed the item's check."""


class ContractBreach(Exception):
    """The program ended a request with an exit code the CLI contract forbids."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


@dataclass(frozen=True)
class Item:
    """One request: ``run(api)`` does the work and checks the output.

    ``stage()``, when given, runs untimed just before each ``run``: it
    makes the request's input ready, as a user's input file would be.
    """

    kind: str
    label: str
    run: Callable[[Any], None]
    stage: Callable[[], None] | None = None


# --------------------------------------------------------------------------
# Host speed

REF_LOOP = 50_000  # tuples per reference unit: about 10 ms on a 2020s x86 core
REF_NOMINAL_S = 0.01  # a reference unit's time on the nominal host
REF_REPEATS = 3  # units per host-speed reading; the reading is their median
READ_EVERY_S = 0.3  # item time between readings: about 10% overhead


def reference_unit() -> float:
    """Wall time of a fixed loop that hashes small tuples into a set.

    Like the library, it allocates, hashes and probes tables, so host
    phases that slow memory more than arithmetic slow it as well.  The
    garbage collector is held off while it runs: no collection of the
    library's heap lands inside it, so it costs the same whatever the
    library holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: set[tuple[int, int]] = set()
        for i in range(REF_LOOP):
            seen.add((i % 97, i % 89))
            if len(seen) > 3000:
                seen = set()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def host_speed() -> float:
    """Seconds per reference unit right now."""
    return statistics.median(reference_unit() for _ in range(REF_REPEATS))


def at_reference(raw_s: float, before: float, after: float) -> float:
    """``raw_s`` scaled to the nominal host, from the readings around it."""
    return raw_s * REF_NOMINAL_S / ((before + after) / 2)


# --------------------------------------------------------------------------
# Tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    item: int  # timed item sequence number, -1 during set-up
    units: int = 1  # work units the call did (tableaux, cells); 1 by default
    extra: int = 0  # a second work count (graph vertices, walk steps)


class Tracer:
    """Records nested spans in memory; nothing is written until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        units: Callable[[Any], int] | None = None,
        extra: Callable[[Any], int] | None = None,
    ) -> Callable:
        """``fn`` with a span around each call; ``name`` may depend on the args."""

        def traced(*args, **kwargs):
            idx = self._open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(idx)
            if units is not None:
                span.units = units(result)
            if extra is not None:
                span.extra = extra(result)
            return result

        return traced

    def run_item(self, seq: int, fn: Callable[[], Any]) -> Any:
        """Run one timed item under a root span named ``item``."""
        self.item = seq
        idx = self._open("item")
        try:
            return fn()
        finally:
            self._close(idx)
            self.item = -1

    def dump(self, path: Path) -> None:
        """Write every span as one CSV line, once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,item,units,extra\n")
            for s in self.spans:
                fh.write(
                    f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.item},{s.units},{s.extra}\n"
                )


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of ``[lo, hi]`` covered by the union of intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


# --------------------------------------------------------------------------
# The closed loop


@dataclass
class PassResult:
    """Per-item latencies and outcomes of one timed pass.

    ``latencies`` are raw wall times.  ``ref_s`` holds the host-speed
    readings; item ``i`` ran between readings ``segment[i]`` and
    ``segment[i] + 1``.
    """

    latencies: list[float] = field(default_factory=list)
    item_kinds: list[str] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)  # (label, reason) -> count
    wrong: int = 0
    deck_len: int = 0
    ref_s: list[float] = field(default_factory=list)
    segment: list[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def busy(self) -> float:
        """Raw time spent in items."""
        return sum(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Each item's time at reference speed."""
        return [at_reference(lat, self.ref_s[seg], self.ref_s[seg + 1])
                for lat, seg in zip(self.latencies, self.segment)]

    def decks(self, latencies: list[float]) -> list[list[float]]:
        """Per-item ``latencies`` cut into decks."""
        n = self.deck_len
        return [latencies[i:i + n] for i in range(0, len(latencies), n)]

    def median_ms_by_kind(self) -> dict[str, float]:
        by_kind: dict[str, list[float]] = {}
        for kind, dt in zip(self.item_kinds, self.latencies):
            by_kind.setdefault(kind, []).append(dt)
        return {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())}


def run_item(item: Item, api: Any) -> tuple[str, str] | None:
    """Run one item; ``None`` when it passed, else (category, reason)."""
    try:
        item.run(api)
    except WrongOutput as exc:
        return "wrong", str(exc)
    except ContractBreach as exc:
        return "contract", str(exc)
    except Exception as exc:  # noqa: BLE001 - one bad request must not end the run
        return "error", f"{type(exc).__name__}: {exc}"
    return None


def run_pass(
    deck: list[Item], api: Any, seconds: float, tracer: Tracer | None = None
) -> PassResult:
    """Run the deck again and again until ``seconds`` have passed.

    The pass ends at a deck boundary, so every run has the same make-up
    of items; it overruns ``seconds`` by less than one deck.  The host
    speed is read before the first item, after every ``READ_EVERY_S`` of
    item time and after the last item.
    """
    res = PassResult(deck_len=len(deck))
    deadline = time.perf_counter() + seconds
    res.ref_s.append(host_speed())
    since_read = 0.0
    seq = 0
    while True:
        for item in deck:
            if item.stage is not None:
                item.stage()
            t0 = time.perf_counter()
            if tracer is None:
                outcome = run_item(item, api)
            else:
                outcome = tracer.run_item(seq, lambda: run_item(item, api))
            t1 = time.perf_counter()
            res.latencies.append(t1 - t0)
            res.segment.append(len(res.ref_s) - 1)
            res.item_kinds.append(item.kind)
            if outcome is not None:
                category, reason = outcome
                res.failures[(item.label, f"{category}: {reason}")] += 1
                res.wrong += category == "wrong"
            seq += 1
            since_read += t1 - t0
            if since_read >= READ_EVERY_S:
                res.ref_s.append(host_speed())
                since_read = 0.0
        if t1 >= deadline:
            if since_read > 0:
                res.ref_s.append(host_speed())
            return res


# --------------------------------------------------------------------------
# Metrics


def deck_rate(decks: list[list[float]]) -> float:
    """Items per second of the median deck."""
    return len(decks[0]) / statistics.median(sum(d) for d in decks)


def item_p99(decks: list[list[float]]) -> float:
    """The 99th percentile, over a deck's items, of each item's median latency.

    Every deck holds the same items in the same order, so an item is timed
    once per deck.  Its median over the decks leaves out bursts of host
    slowness, which hit a few items of a deck at random; an item the
    program made slower is slower in every deck and moves it.  A deck holds
    77 to 600 items, so the inclusive method keeps p99 between the slowest
    two items instead of extrapolating past the slowest.
    """
    per_item = [statistics.median(d[i] for d in decks) for i in range(len(decks[0]))]
    return statistics.quantiles(per_item, n=100, method="inclusive")[98]


def end_to_end(res: PassResult, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics; every time is at reference speed.

    ``items_per_s`` is reported for the median deck and ``item_p99_ms``
    from each item's median over the decks, so a burst of host slowness
    in one deck does not move them.
    """
    scaled = res.scaled_latencies()
    decks = res.decks(scaled)
    return {
        "setup_s": setup_s,
        "items_per_s": deck_rate(decks),
        "item_p50_ms": statistics.median(scaled) * 1e3,
        "item_p99_ms": item_p99(decks) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (res.attempted - res.failed) / res.attempted,
    }


def per_layer(
    spans: list[Span],
    span_names: list[str],
    extras: dict[str, str],
    modules: list[str],
    traced: PassResult,
    untraced: PassResult,
) -> dict[str, float]:
    """Self time and calls per spanned function, module shares, overhead.

    ``extras`` maps a metric name to the span whose ``extra`` counts it.
    Module shares count only spans of timed items, over the time spent in
    items.  The overhead compares the same leading items of the traced and
    the untraced pass.
    """
    selfs = self_times(spans)
    busy: Counter = Counter()
    units: Counter = Counter()
    extra: Counter = Counter()
    share: Counter = Counter()
    for s, own in zip(spans, selfs):
        busy[s.name] += own
        units[s.name] += s.units
        extra[s.name] += s.extra
        if s.item >= 0 and s.name != "item":
            share[s.name.split(".", 1)[0]] += own
    out: dict[str, float] = {}
    for name in span_names:
        out[f"{name}.self_us"] = busy[name] / units[name] * 1e6 if units[name] else 0.0
        out[f"{name}.calls"] = units[name]
    for metric, name in extras.items():
        out[metric] = extra[name]
    for mod in modules:
        out[f"layer.{mod}.share"] = share[mod] / traced.busy
    common = min(traced.attempted, untraced.attempted)
    out["trace.overhead_frac"] = (
        sum(traced.latencies[:common]) / sum(untraced.latencies[:common]) - 1.0
    )
    return out
