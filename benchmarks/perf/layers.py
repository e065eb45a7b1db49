"""Layer map and cProfile attribution for the traced pass.

Every ``src/repro`` module belongs to exactly one layer (``LAYER_RULES``).
Code outside ``src/repro`` -- the stdlib, builtins, and methods that
``dataclasses`` generates -- has no layer of its own: its self time goes
to the layers of its callers, split by the self time pstats recorded on
each caller edge.  ``builtins.compile`` called from
``BlockCache.translate`` therefore counts as ``rabbit``.  A caller
without a layer passes its share on to its own callers; only time that
reaches a profile root without meeting a layer stays ``unattributed``.
"""

from __future__ import annotations

import importlib
import inspect
import os

LAYERS = (
    "rabbit", "dync.compiler", "dync.runtime", "net", "crypto", "issl",
    "obs", "services", "harness",
)

UNATTRIBUTED = "unattributed"

#: Path relative to ``src/repro`` -> layer.  A rule ending in ``/``
#: names a package; any other rule names one file.
LAYER_RULES = (
    ("rabbit/", "rabbit"),
    ("dync/compiler/", "dync.compiler"),
    ("dync/runtime/", "dync.runtime"),
    ("net/", "net"),
    ("crypto/", "crypto"),
    ("issl/", "issl"),
    ("obs/", "obs"),
    ("services/", "services"),
    ("experiments/", "harness"),
    ("faults/", "harness"),
    ("bench/", "harness"),
    ("core/", "harness"),
    ("porting/", "harness"),
    ("unixsim/", "harness"),
    ("analysis/", "harness"),
    ("diagnostics.py", "harness"),
    ("__init__.py", "harness"),
    ("dync/__init__.py", "harness"),
)

#: Generated emulator code: ``BlockCache.translate`` compiles each hot
#: block under this filename prefix.
TRANSLATED_PREFIX = "<translated:"

#: Exact work counts: metric -> the functions whose call counts add up
#: to it, as ``module:Qualified.name``.
WORK_COUNTS = {
    "rabbit.step_calls": ("repro.rabbit.cpu:Cpu.step",),
    "rabbit.blocks_built": ("repro.rabbit.fastcore:BlockCache.build_block",),
    "rabbit.blocks_translated": ("repro.rabbit.fastcore:BlockCache.translate",),
    "dync.compiler.compiles": ("repro.dync.compiler.codegen:compile_source",),
    "net.frames": ("repro.net.link:NetworkInterface.deliver",),
    "crypto.aes_blocks": (
        "repro.crypto.rijndael:Rijndael.encrypt_block",
        "repro.crypto.rijndael:Rijndael.decrypt_block",
        "repro.crypto.aes_ttable:AesTTable.encrypt_block",
        "repro.crypto.aes_ttable:AesTTable.decrypt_block",
    ),
    "crypto.hash_updates": (
        "repro.crypto.sha1:Sha1.update",
        "repro.crypto.md5:Md5.update",
    ),
    "issl.records": (
        "repro.issl.record:RecordCipherState.seal",
        "repro.issl.record:RecordCipherState.open",
    ),
    "obs.series_samples": ("repro.obs.timeseries:TimeSeries.record_at",),
    "obs.recorder_events": ("repro.obs.recorder:FlightRecorder.record",),
}

#: ``net.events`` counts queue pops made by the simulator's event loops.
EVENT_LOOPS = (
    "repro.net.sim:Simulator.run",
    "repro.net.sim:Simulator.run_until_complete",
)
HEAPPOP = ("~", 0, "<built-in method _heapq.heappop>")

#: Per-layer metric -> (unit, better), in report order.
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    PER_LAYER_METRICS[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER_METRICS[f"{_layer}.share"] = ("fraction", "lower")
    PER_LAYER_METRICS[f"{_layer}.calls_in"] = ("count", "lower")
PER_LAYER_METRICS.update({
    "rabbit.step_calls": ("count", "lower"),
    "rabbit.blocks_built": ("count", "lower"),
    "rabbit.blocks_translated": ("count", "lower"),
    "rabbit.translated_calls": ("count", "higher"),
    "rabbit.calls_per_translation": ("ratio", "higher"),
    "dync.compiler.compiles": ("count", "lower"),
    "net.events": ("count", "lower"),
    "net.frames": ("count", "lower"),
    "crypto.aes_blocks": ("count", "lower"),
    "crypto.hash_updates": ("count", "lower"),
    "issl.records": ("count", "lower"),
    "obs.series_samples": ("count", "lower"),
    "obs.recorder_events": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("x", "lower"),
})
del _layer


def rules_matching(rel: str) -> list[str]:
    """Layers of every rule that matches ``rel`` (a ``src/repro``-relative
    path with ``/`` separators); a well-formed map yields exactly one."""
    return [
        layer for rule, layer in LAYER_RULES
        if (rel.startswith(rule) if rule.endswith("/") else rel == rule)
    ]


def layer_of(filename: str, package_dir: str) -> str | None:
    """The layer of the code in ``filename``, or ``None`` outside
    ``package_dir`` (the ``src/repro`` directory)."""
    if filename.startswith(TRANSLATED_PREFIX):
        return "rabbit"
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    matches = rules_matching(filename[len(prefix):].replace(os.sep, "/"))
    return matches[0] if len(matches) == 1 else None


def _label(code) -> tuple:
    if isinstance(code, str):
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_stats(profiler) -> dict:
    """The ``pstats`` dict of a finished ``cProfile.Profile``.

    Unlike ``pstats.Stats(profiler)``, entries whose labels collide are
    summed, not overwritten: every emulated machine translates its hot
    blocks afresh under the same ``<translated:0x...>`` filename.  The
    dict is what ``marshal.dump`` writes as a ``.pstats`` file; caller
    tuples are ``(calls, primitive calls, self time, cumulative time)``.
    """
    stats: dict = {}
    entries = profiler.getstats()
    for entry in entries:
        cc, nc, tt, ct, callers = stats.get(_label(entry.code),
                                            (0, 0, 0.0, 0.0, {}))
        stats[_label(entry.code)] = (
            cc + entry.callcount - entry.reccallcount,
            nc + entry.callcount, tt + entry.inlinetime,
            ct + entry.totaltime, callers,
        )
    for entry in entries:
        caller = _label(entry.code)
        for sub in entry.calls or ():
            callers = stats[_label(sub.code)][4]
            nc, cc, tt, ct = callers.get(caller, (0, 0, 0.0, 0.0))
            callers[caller] = (
                nc + sub.callcount, cc + sub.callcount - sub.reccallcount,
                tt + sub.inlinetime, ct + sub.totaltime,
            )
    return stats


def _absorb(stats: dict, layer: dict, weight: int) -> dict:
    """Layer mix of every key without a layer of its own.

    Walks caller edges until they meet a layer: a key's mix is the
    weighted mean of its callers' mixes, the weight being field
    ``weight`` of the caller tuple (0 = calls, 2 = self time), or the
    call count where every edge recorded zero time.  Solved by
    Gauss-Seidel sweeps; mass caught in caller cycles that never reach
    a layer or a root ends up ``unattributed``.
    """
    edges: dict = {}
    mix: dict = {}
    for key, (_cc, _nc, _tt, _ct, callers) in stats.items():
        if layer[key] is not None:
            continue
        if not callers:
            mix[key] = {UNATTRIBUTED: 1.0}
            continue
        total = sum(edge[weight] for edge in callers.values())
        field = weight if total > 0 else 0
        total = total if total > 0 else sum(e[0] for e in callers.values())
        edges[key] = [(caller, edge[field] / total)
                      for caller, edge in callers.items() if edge[field]]
        mix[key] = {}
    for _sweep in range(500):
        moved = 0.0
        for key, callers in edges.items():
            new: dict = {}
            for caller, share in callers:
                caller_layer = layer.get(caller)
                if caller_layer is not None:
                    new[caller_layer] = new.get(caller_layer, 0.0) + share
                    continue
                for name, part in mix.get(caller, {UNATTRIBUTED: 1.0}).items():
                    new[name] = new.get(name, 0.0) + share * part
            old = mix[key]
            moved = max(moved, max(
                (abs(new.get(n, 0.0) - old.get(n, 0.0)) for n in new),
                default=0.0,
            ))
            mix[key] = new
        if moved < 1e-10:
            break
    for key in edges:
        lost = 1.0 - sum(mix[key].values())
        if lost > 0:
            mix[key][UNATTRIBUTED] = mix[key].get(UNATTRIBUTED, 0.0) + lost
    return mix


def _code_key(spec: str) -> tuple | None:
    """pstats key of ``module:Qualified.name``, or ``None`` when the
    function no longer exists."""
    module_name, _, qualname = spec.partition(":")
    try:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError):
        return None
    return _label(inspect.unwrap(target).__code__)


def layer_metrics(stats: dict, package_dir: str) -> tuple[dict, list]:
    """Per-layer metrics from :func:`profile_stats`.

    Returns ``(metrics, unresolved)``: ``metrics`` maps every
    :data:`PER_LAYER_METRICS` name except the ``trace.*`` pair to its
    value, ``unresolved`` lists work-count functions that no longer exist
    (their count reads 0).
    """
    layer = {key: layer_of(key[0], package_dir) for key in stats}
    time_mix = _absorb(stats, layer, weight=2)
    call_mix = _absorb(stats, layer, weight=0)

    def share_in(key, name, mix):
        if layer.get(key) is not None:
            return 1.0 if layer[key] == name else 0.0
        return mix.get(key, {UNATTRIBUTED: 1.0}).get(name, 0.0)

    self_s = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
    calls_in = dict.fromkeys(LAYERS, 0.0)
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        own = layer[key]
        if own is not None:
            self_s[own] += tt
            for caller, edge in callers.items():
                calls_in[own] += edge[0] * (1.0 - share_in(caller, own, call_mix))
            continue
        for name, part in time_mix[key].items():
            self_s[name] += tt * part
    total = sum(self_s.values())
    metrics: dict = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.share"] = self_s[name] / total if total else 0.0
        metrics[f"{name}.calls_in"] = round(calls_in[name])

    unresolved = []

    def calls(spec):
        key = _code_key(spec)
        if key is None:
            unresolved.append(spec)
            return 0
        return stats[key][1] if key in stats else 0

    for metric, specs in WORK_COUNTS.items():
        metrics[metric] = sum(calls(spec) for spec in specs)
    loops = [_code_key(spec) for spec in EVENT_LOOPS]
    unresolved += [spec for spec, key in zip(EVENT_LOOPS, loops) if key is None]
    heappop_callers = stats[HEAPPOP][4] if HEAPPOP in stats else {}
    metrics["net.events"] = sum(
        heappop_callers[key][0] for key in loops if key in heappop_callers
    )
    translated = sum(entry[1] for key, entry in stats.items()
                     if key[0].startswith(TRANSLATED_PREFIX))
    metrics["rabbit.translated_calls"] = translated
    built = metrics["rabbit.blocks_translated"]
    metrics["rabbit.calls_per_translation"] = translated / built if built else 0.0
    return metrics, unresolved
