"""In-memory spans around the public entry points of each pipeline layer.

The benchmark's traced run wraps, from the outside, the functions and
methods through which every layer of ``repro`` is entered.  Nothing in
``repro`` is edited: a wrapped *function* is replaced in every module
that holds a reference to it (``l1_filter`` is imported by name into the
stream cache, the executor and the runner, so patching only its
defining module would record nothing), and a wrapped *method* is
replaced on its class.

Each call records one span ``(id, name, start, end, parent, attrs)`` in
process memory; :meth:`Recorder.dump` writes them as JSON lines once the
repetition ends, and :meth:`Recorder.layer_metrics` turns them into the
per-layer metrics (self time = duration minus the time covered by
child spans).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import pkgutil
import sys
import time

#: Replay span name per design class (``replay.<kind>``).
DESIGN_KINDS = {
    "repro.core.baseline.BaselineDesign": "baseline",
    "repro.core.static_partition.StaticPartitionDesign": "static",
    "repro.core.dynamic_partition.DynamicPartitionDesign": "dynamic",
    "repro.core.drowsy.DrowsySRAMDesign": "drowsy",
    "repro.core.hybrid.HybridPartitionDesign": "hybrid",
}

#: Layers that must record at least one span on each workload.
EXPECTED_LAYERS = {
    "grid-cold": ("trace", "l1", "streamcache", "replay", "assemble", "store", "executor"),
    "design-space": ("streamcache", "replay", "assemble"),
    "reference-mix": ("streamcache", "replay", "assemble"),
}


def _import_all_repro_modules() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _resolve(path: str):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = dataclasses.field(default_factory=dict)


class Recorder:
    """Collects spans of one process; installed once per repetition."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.active = True

    # -- recording ---------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), parent=parent)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, annotate):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                annotate(sp.attrs, args, kwargs, out)
                return out

        return wrapper

    def _patch_function(self, path: str, name: str, annotate) -> None:
        """Replace ``path``'s function in every module bound to it."""
        original = _resolve(path)
        wrapper = self._wrap(original, name, annotate)
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _patch_method(self, path: str, name: str, annotate) -> None:
        cls_path, _, method = path.rpartition(".")
        cls = _resolve(cls_path)
        setattr(cls, method, self._wrap(getattr(cls, method), name, annotate))

    def install(self) -> "Recorder":
        """Import every ``repro`` module and patch the layer entry points."""
        _import_all_repro_modules()
        self._patch_function("repro.trace.generator.generate_trace", "trace", _annotate_trace)
        self._patch_function("repro.cache.hierarchy.l1_filter", "l1", _annotate_l1)
        self._patch_function("repro.engine.executor.run_jobs", "executor", _no_attrs)
        for cls, prefix in (("repro.engine.streamcache.StreamCache", "streamcache"),
                            ("repro.engine.store.ResultStore", "store")):
            self._patch_method(f"{cls}.get", f"{prefix}.get", _annotate_lookup)
            self._patch_method(f"{cls}.put", f"{prefix}.put", _no_attrs)
        self._patch_method("repro.engine.streamcache.StreamCache.get_or_build",
                           "streamcache.get_or_build", _no_attrs)
        self._patch_method("repro.core.pipeline.ResultAssembler.finish", "assemble", _no_attrs)
        for path, kind in DESIGN_KINDS.items():
            self._patch_method(f"{path}.run", f"replay.{kind}", _annotate_replay)
        return self

    # -- reporting ---------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(dataclasses.asdict(sp), default=str) + "\n")

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - covered[sp.id] for sp in self.spans]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self seconds, throughputs and ratios."""
        self_s = self.self_times()
        by_name: dict[str, list[Span]] = {}
        for sp in self.spans:
            by_name.setdefault(sp.name, []).append(sp)

        def total(names, pred=lambda sp: True) -> float:
            return sum(self_s[sp.id] for n in names for sp in by_name.get(n, ()) if pred(sp))

        def rate(work: float, seconds: float) -> float:
            return work / seconds / 1e6 if seconds > 0 else 0.0

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {}
        trace = by_name.get("trace", [])
        m["trace.calls"] = len(trace)
        m["trace.s"] = total(["trace"])
        m["trace.maccess_per_s"] = rate(sum(sp.attrs["accesses"] for sp in trace), m["trace.s"])

        l1 = by_name.get("l1", [])
        l1_in = sum(sp.attrs["accesses"] for sp in l1)
        m["l1.calls"] = len(l1)
        m["l1.s"] = total(["l1"])
        m["l1.maccess_per_s"] = rate(l1_in, m["l1.s"])
        m["l1.pass_frac"] = frac(sum(sp.attrs["rows"] for sp in l1), l1_in)

        gets = by_name.get("streamcache.get", [])
        m["streamcache.builds"] = len(by_name.get("streamcache.put", []))
        m["streamcache.put_s"] = total(["streamcache.put"])
        m["streamcache.load_s"] = total(["streamcache.get"])
        m["streamcache.hit_frac"] = frac(sum(sp.attrs["hit"] for sp in gets), len(gets))

        replay_names = [f"replay.{k}" for k in DESIGN_KINDS.values()]
        replays = [sp for n in replay_names for sp in by_name.get(n, ())]
        m["replay.calls"] = len(replays)
        m["replay.s"] = total(replay_names)
        for engine in ("fastsim", "reference"):
            mine = [sp for sp in replays if sp.attrs.get("engine") == engine]
            seconds = total(replay_names, lambda sp: sp.attrs.get("engine") == engine)
            m[f"replay.{engine}.s"] = seconds
            m[f"replay.{engine}.maccess_per_s"] = rate(
                sum(sp.attrs["accesses"] for sp in mine), seconds)
        m["replay.fastsim_frac"] = frac(
            sum(sp.attrs.get("engine") == "fastsim" for sp in replays), len(replays))
        m["replay.distinct_frac"] = frac(len({sp.attrs["key"] for sp in replays}), len(replays))
        for kind in DESIGN_KINDS.values():
            m[f"replay.{kind}.s"] = total([f"replay.{kind}"])

        m["assemble.s"] = total(["assemble"])

        store_gets = by_name.get("store.get", [])
        m["store.put_s"] = total(["store.put"])
        m["store.get_s"] = total(["store.get"])
        m["store.hit_frac"] = frac(sum(sp.attrs["hit"] for sp in store_gets), len(store_gets))
        return m

    def missing_layers(self, workload: str) -> list[str]:
        """Expected layers of ``workload`` that recorded no span."""
        seen = {sp.name.split(".")[0] for sp in self.spans}
        return [layer for layer in EXPECTED_LAYERS[workload] if layer not in seen]


def _no_attrs(attrs, args, kwargs, out) -> None:
    pass


def _annotate_trace(attrs, args, kwargs, out) -> None:
    attrs["accesses"] = len(out)


def _annotate_l1(attrs, args, kwargs, out) -> None:
    attrs["accesses"] = len(args[0] if args else kwargs["trace"])
    attrs["rows"] = len(out)


def _annotate_lookup(attrs, args, kwargs, out) -> None:
    attrs["hit"] = out is not None


def _annotate_replay(attrs, args, kwargs, out) -> None:
    design, stream = args[0], args[1] if len(args) > 1 else kwargs["stream"]
    platform = args[2] if len(args) > 2 else kwargs["platform"]
    attrs["engine"] = out.extras.get("sim_engine")
    attrs["accesses"] = len(stream)
    # Run-time attachments (DRAM model, prefetcher) are part of the
    # configuration a replay simulates.
    extras = sorted([type(v).__name__ for v in args[3:] if v is not None]
                    + [f"{k}={type(v).__name__}" for k, v in kwargs.items() if v is not None])
    attrs["key"] = f"{_design_key(design, platform)}{extras}|{_stream_id(stream)}"


def _design_key(design, platform) -> str:
    """The configuration a design replays: its class and settings, with
    an unset geometry resolved to the platform L2 it would use."""
    state = dict(vars(design))
    if "geometry" in state and state["geometry"] is None:
        state["geometry"] = platform.l2
    return f"{type(design).__name__}{sorted((k, repr(v)) for k, v in state.items())}"


def _stream_id(stream) -> str:
    return f"{stream.name}:{len(stream)}:{stream.trace_accesses}:{stream.duration_ticks}"
