"""Per-layer spans around the calls into randmax, installed from outside.

``Tracer.install`` replaces the public functions and methods of each module
with wrappers that record a span (name, start, end, parent) and the counts
read off the call's arguments and result.  A layer's time is self time:
its spans' durations minus the time their child spans cover.  Spans stay
in memory until ``write`` is called.  ``uninstall`` restores every
original, so untraced passes run the package unchanged.

The scalar ``v``/``vinv`` calls made per jump inside ``simulate_path`` are
not recorded one by one: inside a path span every wrapper calls straight
through, and that time is the path layer's.
"""

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import randmax
import randmax.cli
from randmax import evd_core, extremal_proc, lt_families, nmid_compose, streams, verify_harness


def _rows(args, kwargs, result):
    return int(result.shape[0]) if getattr(result, "ndim", 0) else 1


def _one(args, kwargs, result):
    return 1


def layer_table():
    """(owner, attribute, layer, {count name: counter}, quiet) for every wrapped call."""
    table = [
        (streams, "substream", "streams.map", {"streams.substreams": _one}, False),
        (streams, "chunked_draws", "streams.map", {}, False),
        (streams, "chunked_list", "streams.map", {}, False),
        (lt_families.LaplaceFamily, "pgf", "lt_families.transform", {}, False),
    ]
    for cls in (lt_families.Geometric, lt_families.MittagLeffler, lt_families.Degenerate):
        table += [
            (cls, "lt", "lt_families.transform", {}, False),
            (cls, "lt_inv", "lt_families.transform", {}, False),
            (cls, "sample_count", "lt_families.count", {"lt_families.counts": _rows}, False),
            (cls, "sample_mixer", "lt_families.mixer", {"lt_families.mixer_draws": _rows}, False),
        ]
    for cls in (evd_core.Pareto, evd_core.UnitExponential, evd_core.StdUniform):
        table += [
            (cls, "ppf", "evd_core.base_ppf", {"evd_core.base_draws": _rows}, False),
            (cls, "cdf", "evd_core.v", {}, False),
        ]
    for cls in (evd_core.Frechet, evd_core.Gumbel, evd_core.ReverseWeibull, evd_core.MaxStableLaw):
        for name in ("v", "vinv", "cdf"):
            table.append((cls, name, "evd_core.v", {}, False))
    table += [
        (nmid_compose, "sample_random_max", "nmid_compose.random_max",
         {"nmid_compose.random_maxima": _rows}, False),
        (nmid_compose, "mixture_cdf", "nmid_compose.mixture", {}, False),
        (extremal_proc, "simulate_path", "extremal_proc.path",
         {"extremal_proc.paths": _one, "extremal_proc.jumps": lambda a, k, r: r.n_jumps}, True),
        (extremal_proc, "sample_Y_at_time", "extremal_proc.y", {"extremal_proc.y_draws": _rows}, False),
        (verify_harness, "ks_distance", "verify_harness.ks",
         {"verify_harness.ks_points": lambda a, k, r: len(a[0])}, False),
        (verify_harness, "ks_two_sample", "verify_harness.ks",
         {"verify_harness.ks_points": lambda a, k, r: len(a[0]) + len(a[1])}, False),
    ]
    for name in dir(verify_harness):
        if name.startswith("run_"):
            table.append((verify_harness, name, "verify_harness.runner", {}, False))
    table += [
        (randmax.cli, "main", "cli.main", {"cli.invocations": _one}, False),
        (randmax.cli, "_splice_config", "cli.parse", {}, False),
        (randmax.cli, "emit_csv", "cli.csv",
         {"cli.csv_rows": lambda a, k, r: len(a[0].rows),
          "cli.csv_bytes": lambda a, k, r: os.path.getsize(a[1])}, False),
    ]
    return table


# Every per-layer metric the traced run reports, zero where a layer does no work.
LAYER_TIMES = (
    "streams.map", "lt_families.count", "lt_families.mixer", "lt_families.transform",
    "evd_core.base_ppf", "evd_core.v", "nmid_compose.random_max", "nmid_compose.mixture",
    "extremal_proc.path", "extremal_proc.y", "verify_harness.ks", "verify_harness.runner",
    "cli.parse", "cli.csv",
)
LAYER_COUNTS = (
    "streams.substreams", "lt_families.counts", "lt_families.mixer_draws", "evd_core.base_draws",
    "nmid_compose.random_maxima", "extremal_proc.paths", "extremal_proc.jumps",
    "extremal_proc.y_draws", "verify_harness.ks_points", "cli.invocations", "cli.csv_rows",
    "cli.csv_bytes",
)


def _module_bindings(func):
    """Every (module, name) in the package bound to ``func``."""
    return [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module is not None and (module_name == "randmax" or module_name.startswith("randmax."))
        for name, value in list(vars(module).items())
        if value is func
    ]


class Tracer:
    """In-memory spans and per-layer totals for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [span index, child time]
        self._quiet = 0
        self._restore = []

    def span(self, name, func, args, kwargs, counters=None, quiet=False):
        if self._quiet:
            return func(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append([index, 0.0])
        self._quiet += quiet
        try:
            result = func(*args, **kwargs)
        finally:
            self._quiet -= quiet
            end = time.perf_counter()
            record = self.spans[index]
            record[2] = end
            _, child = self._stack.pop()
            duration = end - record[1]
            self.self_time[name] += duration - child
            if self._stack:
                self._stack[-1][1] += duration
        for key, counter in (counters or {}).items():
            self.counts[key] += counter(args, kwargs, result)
        return result

    def _wrap(self, func, layer, counters, quiet):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self.span(layer, func, args, kwargs, counters, quiet)

        return wrapper

    def _wrap_build_parser(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parser = self.span("cli.parse", func, args, kwargs)
            parse = parser.parse_args
            parser.parse_args = lambda *a, **k: self.span("cli.parse", parse, a, k)
            return parser

        return wrapper

    def install(self):
        for owner, attr, layer, counters, quiet in layer_table():
            if isinstance(owner, type):
                if attr in vars(owner):
                    original = vars(owner)[attr]
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, layer, counters, quiet))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, counters, quiet)
            for module, name in _module_bindings(original):
                self._restore.append((module, name, original))
                setattr(module, name, wrapper)
        original = randmax.cli.build_parser
        self._restore.append((randmax.cli, "build_parser", original))
        randmax.cli.build_parser = self._wrap_build_parser(original)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self):
        out = {f"{layer}_s": self.self_time.get(layer, 0.0) for layer in LAYER_TIMES}
        out.update({name: self.counts.get(name, 0) for name in LAYER_COUNTS})
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for index, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": index, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")


class AllocProbe:
    """tracemalloc peak within each ``sample_random_max`` call, in MB."""

    def __init__(self):
        self.peak_mb = 0.0
        self._original = None

    def _wrap(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = func(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
            self.peak_mb = max(self.peak_mb, (peak - before) / 2**20)
            return result

        return wrapper

    def install(self):
        self._original = nmid_compose.sample_random_max
        nmid_compose.sample_random_max = self._wrap(self._original)
        tracemalloc.start()

    def uninstall(self):
        tracemalloc.stop()
        nmid_compose.sample_random_max = self._original
