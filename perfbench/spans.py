"""Span tracing of the package's public functions from outside the package.

Each public module-level function of a layer module (and the two
``OutcomeDistribution`` methods that carry the background and sampling
work) is replaced by a wrapper that records a span: name, start, end,
parent span and whether an exception escaped.  A wrapper is bound wherever
the name is looked up -- in every module namespace that holds the original
function, so ``cli``'s by-name imports from ``core`` and the calls that
``gaussian.click_probabilities`` makes through its own globals are traced.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "core", "protocol", "gaussian", "fock", "analysis", "oracles", "waveguide")
PACKAGE = "phonon_timebin"
CLASS_METHODS = {"core": {"OutcomeDistribution": ("with_background", "sample_counts")}}

# span record fields
NAME, START, END, PARENT, FAILED = range(5)


def _observe_modes(args):
    return "gaussian.max_modes", len(args[0].modes)


def _observe_dim(args):
    rho = getattr(args[0], "rho", None) if args else None
    return ("fock.max_dim", rho.shape[0]) if rho is not None else None


class Tracer:
    """Records spans; ``install`` patches the package, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, observe=None):
        spans, stack, gauges = self.spans, self._stack, self.gauges
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, False])
            stack.append(idx)
            if observe is not None:
                seen = observe(args)
                if seen is not None and seen[1] > gauges.get(seen[0], 0):
                    gauges[seen[0]] = seen[1]
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][FAILED] = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx][START] = start
                spans[idx][END] = end

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    observe = (_observe_modes if name == "gaussian.click_probabilities"
                               else _observe_dim if layer == "fock" else None)
                    wrappers[obj] = self.wrap(obj, name, observe)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self.wrap(getattr(cls, meth),
                                                   f"{layer}.{cls_name}.{meth}"))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover.  In
    one thread, children are disjoint and nested inside their parent."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, gauges) -> dict[str, float]:
    """Per-layer counts and times (seconds) derived from one run's spans."""
    selft = self_times(spans)
    names = [s[NAME] for s in spans]

    def outermost(group):
        # spans in ``group`` with no ancestor in ``group``: (count, seconds)
        count = total = 0
        for i, s in enumerate(spans):
            if names[i] not in group:
                continue
            p = s[PARENT]
            while p >= 0 and names[p] not in group:
                p = spans[p][PARENT]
            if p < 0:
                count += 1
                total += s[END] - s[START]
        return count, total * 1e-9

    def self_s(group):
        return sum(t for n, t in zip(names, selft) if n in group) * 1e-9

    calls = defaultdict(int)
    under = defaultdict(int)  # (child name, parent name) -> count
    for s in spans:
        calls[s[NAME]] += 1
        if s[PARENT] >= 0:
            under[s[NAME], names[s[PARENT]]] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for n, t in zip(names, selft)
                                   if layer_of(n) == layer) * 1e-9
        m[f"{layer}.errors"] = sum(
            1 for s in spans if s[FAILED] and layer_of(s[NAME]) == layer
            and (s[PARENT] < 0 or layer_of(names[s[PARENT]]) != layer))

    click, vacuum = "gaussian.click_probabilities", "gaussian.vacuum_probability"
    m["gaussian.click_self_s"] = self_s({click})
    m["gaussian.vacuum_calls"], m["gaussian.vacuum_s"] = outermost({vacuum})
    m["gaussian.subsets_per_click"] = ratio(under[vacuum, click], calls[click])
    m["gaussian.gate_calls"], m["gaussian.gate_s"] = outermost({
        "gaussian.apply_phase", "gaussian.apply_beam_splitter",
        "gaussian.apply_two_mode_squeeze", "gaussian.symplectic_apply"})
    m["gaussian.max_modes"] = gauges.get("gaussian.max_modes", 0)

    exact, jitter = "protocol.exact_joint_distribution", "protocol.jitter_averaged_distribution"
    run, chunked = "protocol.run_experiment", "protocol.sample_counts_chunked"
    m["protocol.exact_calls"] = calls[exact]
    m["protocol.exact_self_s"] = self_s({exact})
    m["protocol.jitter_avg_self_s"] = self_s({jitter})
    m["protocol.nodes_per_setting"] = ratio(under[exact, jitter], calls[jitter])
    m["protocol.chunked_calls"] = calls[chunked]
    m["protocol.chunked_self_s"] = self_s({chunked})
    m["protocol.run_self_s"] = self_s({run})
    m["protocol.record_exact_calls"] = under[exact, run]

    m["core.background_s"] = outermost({"core.OutcomeDistribution.with_background"})[1]
    m["core.sample_calls"], m["core.sample_s"] = outermost({"core.OutcomeDistribution.sample_counts"})
    m["core.config_calls"], m["core.config_s"] = outermost({
        "core.load_config", "core.config_from_dict", "core.config_to_dict",
        "core.with_overrides", "core.config_digest", "core.save_config"})

    two_mode = {"fock.apply_beam_splitter", "fock.apply_two_mode_squeeze"}
    channel = {"fock.apply_loss", "fock.apply_thermal_loss", "fock.apply_thermal_noise"}
    m["fock.two_mode_calls"] = sum(calls[n] for n in two_mode)
    m["fock.two_mode_s"] = self_s(two_mode)
    m["fock.channel_calls"] = outermost(channel)[0]
    m["fock.channel_s"] = self_s(channel)
    m["fock.state_s"] = self_s({"fock.init_vacuum", "fock.init_thermal", "fock.thermal_weights",
                                "fock.add_vacuum_mode", "fock.partial_trace"})
    m["fock.detect_s"] = self_s({"fock.click_distribution", "fock.measure_threshold"})
    m["fock.max_dim"] = gauges.get("fock.max_dim", 0)

    m["oracles.circuits"] = calls["oracles.random_circuit"]
    analysis = {n for n in calls if layer_of(n) == "analysis"}
    m["analysis.calls"], m["analysis.s"] = outermost(analysis)
    m["waveguide.s"] = outermost({n for n in calls if layer_of(n) == "waveguide"})[1]

    m["trace.spans"] = len(spans)
    m["trace.self_sum_s"] = sum(selft) * 1e-9
    return m
