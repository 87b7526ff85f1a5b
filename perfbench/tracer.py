"""Per-layer tracing from outside the program.

The tracer swaps every binding of each listed fewner function, in every
``fewner.*`` module namespace, for a timing wrapper, and puts the originals
back afterwards. Calls made through any module attribute (including
``fewner.<name>`` and calls between fewner modules) then open a span with a
parent id; spans stay in memory and are summarized, or written out, when the
traced iteration ends. A listed function that no longer exists is reported
as absent, so the tracer keeps working when later changes delete or rename
functions.

A span's ``tokens`` counts rows of its array-like arguments: a 1-D array is
one row, a 2-D array one row per line, a sentence one row per token, a
corpus or a list of sentences the sum over its sentences, and a dict of
representation lists the total row count. The largest count among the
arguments is taken; when no argument has rows, the return value is counted.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> (module, functions); each function gets calls, tokens, self_s and
# errors metrics named <layer>.<function>.<field>
LAYERS = {
    "encoder": ("fewner.encoder", ("encode", "encode_backward")),
    "heads": (
        "fewner.heads",
        (
            "linear_forward",
            "linear_backward",
            "cross_entropy",
            "proto_forward",
            "proto_backward",
            "build_prototypes",
            "build_multi_prototypes",
            "multi_proto_score",
        ),
    ),
    "training": ("fewner.training", ("adam_step", "sample_episode", "generate_soft_labels")),
    "evaluation": (
        "fewner.evaluation",
        ("predict_tags", "evaluate_model", "entity_f1", "support_prototypes"),
    ),
    "corpus": (
        "fewner.corpus",
        ("parse_conll", "write_conll", "sample_fewshot", "extract_chunks", "convert_schema"),
    ),
    "checkpoint": ("fewner.checkpoint", ("save", "load")),
}
FIELDS = ("calls", "tokens", "self_s", "errors")

# traced only for their self time, reported as one sum per group
GROUPS = {
    "training.loop": (
        "fewner.training",
        ("run_scheme", "train_linear", "train_prototype", "pretrain_transfer", "self_train"),
    ),
    "cli.main": ("fewner.cli", ("main",)),
}

# heads that score one token representation per call before batching
PER_TOKEN_HEADS = (
    "heads.linear_forward",
    "heads.linear_backward",
    "heads.cross_entropy",
    "heads.proto_forward",
    "heads.proto_backward",
    "heads.multi_proto_score",
)


def _rows(obj) -> int:
    if isinstance(obj, np.ndarray):
        return 1 if obj.ndim == 1 else (obj.shape[0] if obj.ndim > 1 else 0)
    if hasattr(obj, "sentences"):  # a corpus
        return sum(len(s) for s in obj.sentences)
    if hasattr(obj, "tokens") and hasattr(obj, "tags"):  # a sentence
        return len(obj.tokens)
    if isinstance(obj, (list, tuple)) and obj:
        first = obj[0]
        if isinstance(first, str):  # one tag or token sequence
            return len(obj)
        if isinstance(first, (list, tuple)) or hasattr(first, "tokens"):
            return sum(_rows(s) if hasattr(s, "tokens") else len(s) for s in obj)
        return 0
    if isinstance(obj, dict) and obj:
        values = list(obj.values())
        if isinstance(values[0], list):  # label -> representation list
            return sum(_rows(np.asarray(v)) if v else 0 for v in values)
    return 0


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _query_tokens(episode) -> int:
    return sum(len(s) for s in getattr(episode, "query", ()))


# extra per-call quantities, summed per function: (args, result) -> number
AUX = {
    "checkpoint.save": lambda args, result: _file_bytes(args[1]) if len(args) > 1 else 0,
    "checkpoint.load": lambda args, result: _file_bytes(args[0]) if args else 0,
    "training.sample_episode": lambda args, result: _query_tokens(result),
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    units = {"calls": "count", "tokens": "count", "self_s": "s", "errors": "count"}
    names = [
        (f"{layer}.{fn}.{f}", units[f])
        for layer, (_, fns) in LAYERS.items()
        for fn in fns
        for f in FIELDS
    ]
    names += [(f"{group}.self_s", "s") for group in GROUPS]
    names += [
        ("checkpoint.save.bytes", "bytes"),
        ("checkpoint.load.bytes", "bytes"),
        ("heads.tokens_per_call", "ratio"),
        ("heads.linear.forward_per_trained_token", "ratio"),
        ("training.episode.query_token_use_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("quality.f1", "ratio"),
    ]
    return names


class Tracer:
    """Installs timing wrappers for one traced iteration at a time."""

    def __init__(self):
        self.keys: list[str] = []  # span name per key index
        self.absent: list[str] = []
        self._targets: list[tuple[int, object]] = []
        for layer, (module, fns) in {**LAYERS, **GROUPS}.items():
            mod = sys.modules.get(module)
            for fn_name in fns:
                key = f"{layer.split('.')[0]}.{fn_name}"
                fn = getattr(mod, fn_name, None) if mod is not None else None
                if not callable(fn):
                    self.absent.append(key)
                    continue
                self._targets.append((len(self.keys), fn))
                self.keys.append(key)
        self._restore: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tokens = array("q")
        self.errors = [0] * len(self.keys)
        self.aux = [0] * len(self.keys)
        self._stack: list[int] = []

    def _wrap(self, index: int, fn):
        key = self.keys[index]
        aux = AUX.get(key)

        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.tokens.append(max((_rows(a) for a in args), default=0))
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[index] += 1
                raise
            finally:
                self.end[span] = perf_counter()
                self._stack.pop()
            if self.tokens[span] == 0:
                self.tokens[span] = _rows(result)
            if aux is not None:
                self.aux[index] += aux(args, result)
            return result

        return traced

    def __enter__(self):
        self._reset()
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "fewner" or n.startswith("fewner."))
        ]
        for index, fn in self._targets:
            wrapper = self._wrap(index, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()
        return False

    def spans(self) -> dict[str, np.ndarray]:
        """The iteration's spans as arrays (span id = row index)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "tokens": np.frombuffer(self.tokens, dtype=np.int64).copy(),
        }

    def summary(self, linear_trained_tokens: int) -> dict[str, float]:
        """Per-layer metric values of the iteration just traced."""
        sp = self.spans()
        n = len(self.keys)
        duration = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.zeros(len(duration))
        np.add.at(child, sp["parent"][has_parent], duration[has_parent])
        own = duration - child
        calls = np.bincount(sp["name"], minlength=n)
        tokens = np.bincount(sp["name"], weights=sp["tokens"], minlength=n)
        self_s = np.bincount(sp["name"], weights=own, minlength=n)
        index = {key: i for i, key in enumerate(self.keys)}

        out: dict[str, float] = {}
        for layer, (_, fns) in LAYERS.items():
            for fn_name in fns:
                i = index.get(f"{layer}.{fn_name}")
                values = (
                    (0, 0, 0.0, 0)
                    if i is None
                    else (int(calls[i]), int(tokens[i]), float(self_s[i]), self.errors[i])
                )
                for f, v in zip(FIELDS, values):
                    out[f"{layer}.{fn_name}.{f}"] = v
        for group, (_, fns) in GROUPS.items():
            prefix = group.split(".")[0]
            out[f"{group}.self_s"] = float(
                sum(self_s[index[f"{prefix}.{fn}"]] for fn in fns if f"{prefix}.{fn}" in index)
            )
        for key in ("checkpoint.save", "checkpoint.load"):
            out[f"{key}.bytes"] = self.aux[index[key]] if key in index else 0

        head_idx = [index[k] for k in PER_TOKEN_HEADS if k in index]
        head_calls = sum(int(calls[i]) for i in head_idx)
        out["heads.tokens_per_call"] = (
            sum(float(tokens[i]) for i in head_idx) / head_calls if head_calls else 0.0
        )
        out["heads.linear.forward_per_trained_token"] = (
            self._training_forward_tokens(sp, index) / linear_trained_tokens
            if linear_trained_tokens
            else 0.0
        )
        sampled = self.aux[index["training.sample_episode"]] if "training.sample_episode" in index else 0
        used = tokens[index["heads.proto_backward"]] if "heads.proto_backward" in index else 0
        out["training.episode.query_token_use_ratio"] = float(used) / sampled if sampled else 0.0
        return out

    def _training_forward_tokens(self, sp, index) -> int:
        """Tokens of linear_forward spans whose nearest non-head ancestor is
        a training loop function (so soft labelling and prediction, which
        also run the linear head, are not counted)."""
        fwd = index.get("heads.linear_forward")
        if fwd is None:
            return 0
        loop = {index[f"training.{fn}"] for fn in GROUPS["training.loop"][1] if f"training.{fn}" in index}
        heads = {i for key, i in index.items() if key.startswith("heads.")}
        names, parents, toks = sp["name"], sp["parent"], sp["tokens"]
        total = 0
        for span in np.flatnonzero(names == fwd):
            p = parents[span]
            while p >= 0 and names[p] in heads:
                p = parents[p]
            if p >= 0 and names[p] in loop:
                total += int(toks[span])
        return total

    def write(self, path) -> None:
        """Write the last traced iteration's spans (compressed arrays)."""
        np.savez_compressed(path, keys=np.array(self.keys), **self.spans())
