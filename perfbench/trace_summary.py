"""Per-layer figures from a Chrome trace of one benchmark epoch loop.

The trace holds the program's own spans plus the driver's bench.* spans.
Only spans that start inside the driver's `bench.loop` span count, so
set-up and shut-down work stays out.

A span's self time is its duration minus the part of it that its child
spans cover. Children are spans on the same track (thread) nested inside
it; RAII spans on one thread can only nest, so the direct children never
overlap one another. Work a span hands to another thread (a map task on a
pool worker) is not its child: the task's time shows under its own name.
"""

import collections
import json

EPSILON_US = 0.002  # export rounds timestamps to 1 ns


def load_spans(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    return [e for e in events if e.get("ph") == "X"]


def self_times(spans):
    """Returns {id(span): self duration in microseconds}."""
    by_track = collections.defaultdict(list)
    for s in spans:
        by_track[s["tid"]].append(s)
    covered = collections.defaultdict(float)
    for track in by_track.values():
        track.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for s in track:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= s["ts"] + EPSILON_US:
                stack.pop()
            if stack:
                covered[id(stack[-1])] += s["dur"]
            stack.append(s)
    return {id(s): max(0.0, s["dur"] - covered[id(s)]) for s in spans}


def summarize(path, epochs):
    """Per-epoch layer figures (ms unless named otherwise) of one trace."""
    spans = load_spans(path)
    loops = [s for s in spans if s["name"] == "bench.loop"]
    if len(loops) != 1:
        raise ValueError(f"expected one bench.loop span, found {len(loops)}")
    begin = loops[0]["ts"]
    end = begin + loops[0]["dur"]
    spans = [s for s in spans if begin <= s["ts"] <= end]
    own = self_times(spans)

    self_ms = collections.defaultdict(float)
    dur_ms = collections.defaultdict(float)
    count = collections.defaultdict(int)
    for s in spans:
        self_ms[s["name"]] += own[id(s)] / 1000.0
        dur_ms[s["name"]] += s["dur"] / 1000.0
        count[s["name"]] += 1

    per_epoch = max(epochs, 1)
    out = {}
    for name in ("epoch.stage", "epoch.flip", "epoch.cleanup", "engine.refresh",
                 "stage.map", "stage.reduce", "exchange.round",
                 "pipeline.epoch", "serving.coordinated_epoch"):
        out[name + ".self_ms"] = self_ms[name] / per_epoch
    for name in ("map", "sort", "shuffle", "reduce", "mrbg_load"):
        out[f"task.{name}_ms"] = self_ms["task." + name] / per_epoch
    for name in ("stage", "record", "flip", "cleanup"):
        out[f"barrier.{name}_ms"] = dur_ms["barrier." + name] / per_epoch
    out["engine.iterations"] = count["engine.iteration"] / per_epoch
    # A refresh re-preserves its MRBGraph only after the P-delta auto-off.
    out["engine.mrbg_off_epochs"] = float(count["engine.preserve"])
    out["mrbg.compact_ms"] = dur_ms["mrbg.compact"] / per_epoch
    out["mrbg.compactions"] = count["mrbg.compact"] / per_epoch
    return out
