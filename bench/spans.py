"""Span tracing from outside the program.

The a2cf modules import each other's functions by name
(`from .ranking import sample_negatives`), so a wrapper only sees calls when
it replaces the name in the namespace of the module that makes the call:
`a2cf.training.sample_negatives`, not `a2cf.ranking.sample_negatives`.
LAYERS lists every such call site. `Tracer.install` replaces them for the
length of a `with` block and puts the originals back afterwards.

Spans nest. Each one records its name, start, end, parent and the root span
(one CLI call) that caused it; a span's self time is its duration minus the
durations of its direct children. Spans stay in memory until `dump`.
"""

import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _len_of(param):
    """Count function: the length of the named argument."""
    return lambda bound, result: len(bound[param])


def _requested_negatives(bound, result):
    return bound["negatives"] * result.cases


@dataclass(frozen=True)
class Layer:
    """One per-layer time metric and the call sites that feed it."""

    metric: str             # name of the seconds metric, ends in "_s"
    sites: tuple            # (module, attribute) pairs, module under a2cf
    stages: tuple           # CLI commands in which the sites must fire
    self_time: bool = False  # report self time instead of inclusive time
    count: str | None = None  # name of the work counter, if any
    count_fn: object = None   # (bound arguments, result) -> amount; None
                              # counts calls


PROVISIONING = ("train", "evaluate", "recommend", "explain")
REQUESTED_COUNT = "evaluation.negatives_requested"
REQUESTS = ("recommend", "explain")

LAYERS = (
    Layer("data.parse_s", (("data", "load_reviews"), ("data", "load_lexicon"),
                           ("data", "load_substitutes")), ("prepare",)),
    Layer("data.filter_corpus_s", (("data", "filter_corpus"),), ("prepare",)),
    Layer("data.build_triplets_s", (("data", "build_triplets"),), ("prepare",)),
    Layer("data.save_prepared_s", (("data", "save_prepared"),), ("prepare",)),
    Layer("data.load_prepared_s", (("data", "load_prepared"),), PROVISIONING),
    Layer("matrices.build_matrices_s", (("cli", "build_matrices"),
                                        ("training", "build_matrices")),
          PROVISIONING, count="matrices.build_matrices_calls"),
    Layer("network.phase1_fb_s", (("training", "phase1_forward_backward"),),
          ("train",)),
    Layer("network.adam_s", (("training", "adam_step"),), ("train",),
          count="network.adam_calls"),
    Layer("network.predict_s", (("ranking", "predict_user_attr_batch"),
                                ("ranking", "predict_item_attr_batch")),
          PROVISIONING, count="network.predict_cells",
          count_fn=_len_of("attrs")),
    Layer("ranking.estimate_s", (("ranking", "estimate_matrices"),
                                 ("training", "estimate_matrices")),
          PROVISIONING, count="ranking.estimate_calls"),
    Layer("ranking.sample_negatives_s", (("training", "sample_negatives"),),
          ("train",), count="ranking.sample_negatives_calls"),
    Layer("ranking.bpr_s_fb_s", (("training", "bpr_s_forward_backward"),),
          ("train",), count="ranking.bpr_s_fb_pairs",
          count_fn=_len_of("users")),
    Layer("ranking.score_candidates_s", (("evaluation", "score_candidates"),
                                         ("ranking", "score_candidates")),
          ("evaluate",) + REQUESTS, count="ranking.candidates_scored",
          count_fn=_len_of("items")),
    Layer("ranking.recommend_top_k_s", (("ranking", "recommend_top_k"),),
          REQUESTS),
    Layer("interpret.advantage_s", (("cli", "attribute_advantage"),
                                    ("evaluation", "attribute_advantage")),
          ("evaluate", "explain")),
    Layer("interpret.render_s", (("cli", "render_interpretation"),),
          ("explain",)),
    Layer("evaluation.protocol_self_s", (("evaluation", "evaluate_protocol"),),
          ("evaluate",), self_time=True, count=REQUESTED_COUNT,
          count_fn=_requested_negatives),
    Layer("training.loop_self_s", (("training", "train_pipeline"),),
          ("train",), self_time=True),
    Layer("training.checkpoint_save_s", (("training", "save_checkpoint"),),
          ("train",)),
    Layer("training.load_checkpoint_s", (("training", "load_checkpoint"),),
          ("evaluate",) + REQUESTS),
)

# The root span of every CLI call is named "cli.<command>"; its self time is
# the CLI's own work (argument parsing, token lookup, file output).
REQUEST_SELF = "cli.request_self_s"

# Counted without a span, so that the protocol's self time includes the
# draws. Over the requested count above it gives the share of negatives the
# sampled protocol really ranked against.
POOL_SITE = ("evaluation", "sample_negative_pool")
POOL_COUNT = "evaluation.negatives_effective"
NEGATIVE_RATIO = "evaluation.negatives_effective_ratio"


def share_name(metric: str, stage: str) -> str:
    """'ranking.estimate_s', 'recommend' -> 'ranking.estimate_share_recommend'."""
    return f"{metric[:-2]}_share_{stage}"


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer in LAYERS:
        names.append(layer.metric)
        if layer.count:
            names.append(layer.count)
    names += [REQUEST_SELF, POOL_COUNT, NEGATIVE_RATIO]
    for layer in LAYERS:
        names += [share_name(layer.metric, s) for s in layer.stages]
    names += [share_name(REQUEST_SELF, s) for s in REQUESTS]
    return names


class Tracer:
    """In-memory span and counter recorder for one traced pass."""

    def __init__(self, package):
        self.package = package      # the imported a2cf package
        self.spans = []             # dicts: name, start, end, parent, root
        self.counts = {}            # counter name -> total
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else idx
        rec = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
               "root": root}
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _count(self, counter: str, amount) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _wrap(self, fn, layer: Layer):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(layer.metric):
                result = fn(*args, **kwargs)
            if layer.count_fn is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(layer.count, layer.count_fn(bound.arguments, result))
            elif layer.count:
                self._count(layer.count, 1)
            return result
        return traced

    def _wrap_pool(self, fn):
        def counted(*args, **kwargs):
            pool = fn(*args, **kwargs)
            self._count(POOL_COUNT, len(pool))
            return pool
        return counted

    @contextmanager
    def install(self):
        """Replace every call site in LAYERS for the duration of the block."""
        sites = [(mod, attr, lambda fn, layer=layer: self._wrap(fn, layer))
                 for layer in LAYERS for mod, attr in layer.sites]
        sites.append((*POOL_SITE, self._wrap_pool))
        saved = []
        try:
            for mod_name, attr, make in sites:
                module = getattr(self.package, mod_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> tuple:
        """Return (metrics, problems): the per-layer metrics, and every
        (metric, stage) that LAYERS expects but that recorded no call."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        stage_wall = {}
        seconds = {}              # (metric, stage) -> seconds
        calls = {}                # (metric, stage) -> spans
        for rec, child_s in zip(self.spans, child):
            stage = self.spans[rec["root"]]["name"].split(".", 1)[1]
            wall = rec["end"] - rec["start"]
            if rec["parent"] is None:
                stage_wall[stage] = stage_wall.get(stage, 0.0) + wall
                metric, spent = REQUEST_SELF, wall - child_s
            else:
                metric = rec["name"]
                spent = wall - child_s if _BY_METRIC[metric].self_time else wall
            seconds[metric, stage] = seconds.get((metric, stage), 0.0) + spent
            calls[metric, stage] = calls.get((metric, stage), 0) + 1

        metrics = {}
        problems = []
        expected = [(layer.metric, layer.stages) for layer in LAYERS]
        expected.append((REQUEST_SELF, REQUESTS))
        for metric, stages in expected:
            for stage in stages:
                if not calls.get((metric, stage)):
                    problems.append(f"{metric} recorded no call in {stage}")
                wall = stage_wall.get(stage, 0.0)
                metrics[share_name(metric, stage)] = (
                    seconds.get((metric, stage), 0.0) / wall if wall else 0.0)
            metrics[metric] = sum(v for (m, _), v in seconds.items() if m == metric)
        for layer in LAYERS:
            if layer.count:
                metrics[layer.count] = self.counts.get(layer.count, 0)
        metrics[POOL_COUNT] = self.counts.get(POOL_COUNT, 0)
        requested = self.counts.get(REQUESTED_COUNT, 0)
        if not requested:
            problems.append(f"{NEGATIVE_RATIO} saw no evaluation case")
        metrics[NEGATIVE_RATIO] = metrics[POOL_COUNT] / requested if requested else 0.0
        return {name: metrics[name] for name in metric_names()}, problems

    def dump(self, path: str, env: dict) -> None:
        """Write the run environment, then one JSON array per span."""
        fields = ("name", "start", "end", "parent", "root")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env, "fields": fields}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps([rec[f] for f in fields]) + "\n")


_BY_METRIC = {layer.metric: layer for layer in LAYERS}
