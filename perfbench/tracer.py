"""Span tracer that observes the crnet engine from the outside.

Tracing needs no change to the engine. Each traced function is wrapped,
and the wrapper is rebound in every ``crnet.*`` module namespace that
holds the original: ``blocks.gelu`` and ``model.conv2d`` are separate
bindings of one function, and the engine calls whichever binding its
own module holds. Graph nodes created by ``tensor._node`` are tagged
with the spans open at their creation, and their backward closures are
timed, which attributes backward time to the op and to every enclosing
layer.

Spans (name, start, end, parent) are kept in memory and written out at
the end; per-name totals (calls, inclusive time, self time, bytes,
backward time) are kept alongside so that metrics need no second pass.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# Functions traced besides every public function of crnet.tensor.
# A name missing from the engine is skipped, so a later rename makes the
# layer read 0 instead of breaking the run.
LAYER_FUNCS = {
    "blocks": (
        "frequency_separate",
        "window_self_attention",
        "multi_branch_block",
        "channel_attention",
        "freq_fuse",
        "conv_ffn",
        "conv_enhancement_block",
    ),
    "model": ("preprocess", "validate_params", "estimate_flow", "warp_by_flow", "forward_batch", "forward"),
    "metrics": ("mu_law", "l1_tonemapped_loss", "psnr", "psnr_mu", "ssim", "ssim_mu", "compute_report"),
    "train": ("augment", "adamw_step", "save_checkpoint", "load_checkpoint"),
    "storage": ("write_archive", "read_archive"),
    "synth": ("generate_sample", "write_dataset", "read_dataset"),
}


def crnet_modules():
    return [m for n, m in list(sys.modules.items()) if n == "crnet" or n.startswith("crnet.")]


class Rebinder:
    """Replaces a function in every crnet module namespace; undone by restore()."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement) -> None:
        for mod in crnet_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)
                    self._undo.append((mod, name, original))

    def restore(self) -> None:
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _array_bytes(value) -> int:
    data = getattr(value, "data", value)
    return int(getattr(data, "nbytes", 0))


def _result_bytes(args, result) -> int:
    if isinstance(result, dict):  # read_archive
        return sum(_array_bytes(v) for v in result.values())
    return _array_bytes(result)


def _entries_bytes(args, result) -> int:  # write_archive(path, entries)
    return sum(_array_bytes(v) for v in args[1].values())


class Tracer:
    """Records spans and per-name totals while installed.

    totals[name] = [calls, inclusive_s, self_s, bytes, backward_s].
    """

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []  # [name_id, t0, t1, parent_index]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0, 0.0])
        self.nodes = 0
        self.retained_bytes = 0
        self.backward_s = 0.0
        self._open: list = []
        self._scope: tuple = ()
        self._rebinder = Rebinder()
        self._patched_backward = None

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn, nbytes=_result_bytes):
        name_id = self._name_id(name)
        totals = self.totals[name]

        def traced(*args, **kwargs):
            parent = self._open[-1][2] if self._open else -1
            idx = len(self.spans)
            span = [name_id, 0.0, 0.0, parent]
            self.spans.append(span)
            frame = [0.0, 0.0, idx, self._scope]  # t0, child_s, index, outer scope
            self._scope = frame[3] + (name,)
            self._open.append(frame)
            result = None
            t0 = frame[0] = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                self._open.pop()
                self._scope = frame[3]
                dur = t1 - t0
                span[1], span[2] = t0, t1
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                totals[3] += nbytes(args, result)
                if self._open:
                    self._open[-1][1] += dur

        return traced

    def _timed_backward(self, fn, scope: tuple):
        bwd_name_id = self._name_id((scope[-1] if scope else "untraced") + ".bwd")
        rows = [self.totals[name] for name in scope]

        def timed(g):
            t0 = perf()
            fn(g)
            t1 = perf()
            dt = t1 - t0
            self.backward_s += dt
            for row in rows:
                row[4] += dt
            parent = self._open[-1][2] if self._open else -1
            self.spans.append([bwd_name_id, t0, t1, parent])

        return timed

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        tensor = importlib.import_module("crnet.tensor")
        ops = [
            (name, fn)
            for name, fn in vars(tensor).items()
            if inspect.isfunction(fn) and fn.__module__ == tensor.__name__ and not name.startswith("_")
        ]
        for name, fn in ops:
            self._rebinder.replace(fn, self.wrap(f"tensor.{name}", fn))

        original_node = tensor._node

        def node(data, parents, backward_fn):
            out = original_node(data, parents, backward_fn)
            if out._backward_fn is not None:
                self.nodes += 1
                self.retained_bytes += out.data.nbytes
                out._backward_fn = self._timed_backward(out._backward_fn, self._scope)
            return out

        self._rebinder.replace(original_node, node)

        for mod_name, funcs in LAYER_FUNCS.items():
            mod = importlib.import_module(f"crnet.{mod_name}")
            for fname in funcs:
                fn = getattr(mod, fname, None)
                if callable(fn):
                    nbytes = _entries_bytes if fname == "write_archive" else _result_bytes
                    self._rebinder.replace(fn, self.wrap(f"{mod_name}.{fname}", fn, nbytes))

        tensor_cls = tensor.Tensor
        self._patched_backward = (tensor_cls, tensor_cls.backward)
        tensor_cls.backward = self.wrap("tensor.backward", tensor_cls.backward, lambda a, r: 0)

    def uninstall(self) -> None:
        if self._patched_backward is not None:
            cls, original = self._patched_backward
            cls.backward = original
            self._patched_backward = None
        self._rebinder.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the per-name totals plus the graph counters."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items() if v[0] or v[4]},
            "nodes": self.nodes,
            "retained_bytes": self.retained_bytes,
            "backward_s": self.backward_s,
        }

    def reset_totals(self) -> None:
        for row in self.totals.values():
            row[:] = [0, 0.0, 0.0, 0, 0.0]
        self.nodes = 0
        self.retained_bytes = 0
        self.backward_s = 0.0

    def top_level_since(self, first: int):
        """(name, t0, t1) of each span from index first on that had no open parent."""
        return [(self.names[s[0]], s[1], s[2]) for s in self.spans[first:] if s[3] == -1]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "names": self.names,
                    "spans": [[s[0], round(s[1], 7), round(s[2], 7), s[3]] for s in self.spans],
                },
                fh,
            )
