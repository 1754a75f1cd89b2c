"""Spans around the calls into each dynring layer, recorded from outside.

The traced run installs wrappers at the names each consumer module looks
up (``dynring.verifier.step``, ``dynring.scheduler.ChainAnalysis``, ...),
on the methods that are dispatched through a class
(``WorstCaseSearcher.value``, ``Dynamism.apply``) and on the ``decide``,
``after_move`` and ``choose`` attributes of the policy and adversary
instances in use. No file of the program is edited. ``uninstall`` puts
every original back, so untraced passes in the same process run the
program unchanged.

A span is (name, start, end, parent), kept in a flat in-memory array and
written out when the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name): the module-level names consumers call.
MODULE_SPANS = (
    ("scheduler", "step", "scheduler.step"),
    ("verifier", "step", "scheduler.step"),
    ("scheduler", "predict_intents", "scheduler.predict"),
    ("verifier", "predict_intents", "scheduler.predict"),
    ("scheduler", "run_simulation", "scheduler.run"),
    ("cli", "run_simulation", "scheduler.run"),
    ("scheduler", "ChainAnalysis", "ring.chain_analysis"),
    ("scheduler", "resolve_moves", "ring.resolve_moves"),
    ("verifier", "resolve_moves", "ring.resolve_moves"),
    ("adversaries", "resolve_moves", "ring.resolve_moves"),
    ("cli", "resolve_moves", "ring.resolve_moves"),
    ("ring", "classify", "ring.classify"),
    ("scheduler", "classify", "ring.classify"),
    ("verifier", "classify", "ring.classify"),
    ("policies", "classify", "ring.classify"),
    ("adversaries", "classify", "ring.classify"),
    ("cli", "classify", "ring.classify"),
    ("verifier", "canonical_rotation", "ring.canonical_rotation"),
    ("scheduler", "check_round_lemmas", "policies.lemma"),
    ("verifier", "exhaustive_branches", "adversaries.branches"),
    ("verifier", "verify_worst_case", "verifier.verify"),
    ("verifier", "verify_impossibility", "verifier.impossibility"),
    ("verifier", "check_adaptive_soundness", "verifier.soundness"),
    ("cli", "cmd_run", "cli.run"),
    ("cli", "write_jsonl", "cli.write"),
    ("cli", "cmd_replay", "cli.replay"),
)

# Per-layer metrics of the traced run: name -> (unit, better). Every
# ``*_s`` metric is self seconds per pass; the rest are exact counts per
# pass or ratios whose base is printed beside them.
LAYER_METRICS = {
    "scheduler.step_s": ("s", "lower"),
    "scheduler.steps": ("count", "lower"),
    "scheduler.predict_s": ("s", "lower"),
    "scheduler.predict_calls": ("count", "lower"),
    "scheduler.run_self_s": ("s", "lower"),
    "scheduler.simulated_rounds": ("count", "lower"),
    "ring.chain_analysis_s": ("s", "lower"),
    "ring.chain_analyses": ("count", "lower"),
    "ring.resolve_moves_s": ("s", "lower"),
    "ring.resolve_calls": ("count", "lower"),
    "ring.classify_s": ("s", "lower"),
    "ring.classify_calls": ("count", "lower"),
    "ring.configs_validated": ("count", "lower"),
    "ring.canonical_rotation_s": ("s", "lower"),
    "ring.canonical_calls": ("count", "lower"),
    "policies.decide_s": ("s", "lower"),
    "policies.decides": ("count", "lower"),
    "policies.after_move_s": ("s", "lower"),
    "policies.lemma_s": ("s", "lower"),
    "policies.lemma_violations": ("count", "lower"),
    "adversaries.branches_s": ("s", "lower"),
    "adversaries.branches": ("count", "lower"),
    "adversaries.apply_s": ("s", "lower"),
    "adversaries.choose_s": ("s", "lower"),
    "adversaries.chooses": ("count", "lower"),
    "adversaries.choose_repeat_ratio": ("ratio", "lower"),
    "verifier.search_self_s": ("s", "lower"),
    "verifier.value_calls": ("count", "lower"),
    "verifier.states": ("count", "lower"),
    "verifier.memo_lookups": ("count", "lower"),
    "verifier.memo_hit_ratio": ("ratio", "higher"),
    "verifier.witness_s": ("s", "lower"),
    "verifier.impossibility_self_s": ("s", "lower"),
    "verifier.run_rounds": ("count", "lower"),
    "verifier.proven_stalls": ("count", "higher"),
    "verifier.horizon_hits": ("count", "lower"),
    "verifier.soundness_s": ("s", "lower"),
    "verifier.intent_vectors": ("count", "lower"),
    "cli.run_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.trace_bytes": ("bytes", "lower"),
    "cli.replay_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Self time of these spans, per pass, under the metric name given.
SELF_TIME = {
    "scheduler.step": "scheduler.step_s",
    "scheduler.predict": "scheduler.predict_s",
    "scheduler.run": "scheduler.run_self_s",
    "ring.chain_analysis": "ring.chain_analysis_s",
    "ring.resolve_moves": "ring.resolve_moves_s",
    "ring.classify": "ring.classify_s",
    "ring.canonical_rotation": "ring.canonical_rotation_s",
    "policies.decide": "policies.decide_s",
    "policies.after_move": "policies.after_move_s",
    "policies.lemma": "policies.lemma_s",
    "adversaries.branches": "adversaries.branches_s",
    "adversaries.apply": "adversaries.apply_s",
    "adversaries.choose": "adversaries.choose_s",
    "verifier.search": "verifier.search_self_s",
    "verifier.witness": "verifier.witness_s",
    "verifier.impossibility": "verifier.impossibility_self_s",
    "verifier.soundness": "verifier.soundness_s",
    "cli.run": "cli.run_s",
    "cli.write": "cli.write_s",
    "cli.replay": "cli.replay_s",
}

# Number of spans of these names, per pass.
CALLS = {
    "scheduler.step": "scheduler.steps",
    "scheduler.predict": "scheduler.predict_calls",
    "ring.chain_analysis": "ring.chain_analyses",
    "ring.resolve_moves": "ring.resolve_calls",
    "ring.classify": "ring.classify_calls",
    "ring.canonical_rotation": "ring.canonical_calls",
    "policies.decide": "policies.decides",
    "adversaries.choose": "adversaries.chooses",
    "verifier.search": "verifier.value_calls",
}

_FIELDS = 4  # name id, start ns, end ns, parent index


class Tracer:
    """Records spans and exact counts while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self.buf = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._choices: set = set()
        self._searchers: list = []
        self._undo: list = []

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(args, result)`` runs after it."""
        name_id = self._name_id(name)
        buf, stack, clock = self.buf, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(buf) // _FIELDS
            buf.extend((name_id, clock(), 0, stack[-1]))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf[index * _FIELDS + 2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def reset(self) -> None:
        # Wrappers hold the buffer and stack themselves: clear them in place.
        del self.buf[:]
        self.stack[:] = [-1]
        self.counts.clear()
        self._choices.clear()

    # ------------------------------------------------------ installation

    def _patch(self, owner, attr: str, new) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, new)

    def install(self, dr, policies, adversaries) -> None:
        """Wrap every layer entry point the workloads reach."""
        for module, attr, name in MODULE_SPANS:
            owner = getattr(dr, module)
            on_result = {
                "policies.lemma": self._lemma_result,
                "adversaries.branches": self._branches_result,
                "verifier.verify": self._verify_result,
                "verifier.impossibility": self._impossibility_result,
            }.get(name)
            self._patch(owner, attr, self.span(name, getattr(owner, attr), on_result))

        searcher = dr.verifier.WorstCaseSearcher
        self._patch(searcher, "value", self.span("verifier.search", searcher.value))
        self._patch(searcher, "witness", self.span("verifier.witness", searcher.witness))
        self._patch(searcher, "_key", self._memo_lookup(searcher._key))
        self._patch(searcher, "__init__", self._searcher_created(searcher.__init__))
        config = dr.ring.RingConfiguration
        self._patch(config, "__post_init__", self._validated(config.__post_init__))
        dynamism = dr.adversaries.Dynamism
        self._patch(dynamism, "apply", self.span("adversaries.apply", dynamism.apply))

        for policy in policies:
            self._patch(policy, "decide", self.span("policies.decide", policy.decide))
            self._patch(policy, "after_move",
                        self.span("policies.after_move", policy.after_move))
        for adversary in adversaries:
            self._patch(adversary, "choose",
                        self.span("adversaries.choose", adversary.choose,
                                  self._choice_result(adversary)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old, own = self._undo.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # ---------------------------------------------- counting hooks

    def _lemma_result(self, args, violations) -> None:
        self.counts["policies.lemma_violations"] += len(violations)

    def _branches_result(self, args, branches) -> None:
        self.counts["adversaries.branches"] += len(branches)

    def _verify_result(self, args, report) -> None:
        self.counts["verifier.states"] += sum(len(s.memo) for s in self._searchers)
        self._searchers.clear()

    def _impossibility_result(self, args, report) -> None:
        self.counts["verifier.proven_stalls"] += report.proven_infinite
        self.counts["verifier.horizon_hits"] += report.horizon_hits

    def _choice_result(self, adversary):
        def record(args, dynamism) -> None:
            ctx = args[0]
            predicted = ctx.predicted_intents
            key = (adversary.adversary_id, ctx.mode, ctx.cfg.slots, ctx.cfg.missing_edge,
                   None if predicted is None else tuple(sorted(predicted.items())))
            if key in self._choices:
                self.counts["adversaries.choose_repeats"] += 1
            else:
                self._choices.add(key)
        return record

    def _memo_lookup(self, fn):
        value_id = self._name_id("verifier.search")

        def counted(*args, **kwargs):
            # ``_key`` is also used by witness replay; only count lookups
            # made while evaluating a state.
            top = self.stack[-1]
            if top >= 0 and self.buf[top * _FIELDS] == value_id:
                self.counts["verifier.memo_lookups"] += 1
            return fn(*args, **kwargs)
        return counted

    def _searcher_created(self, fn):
        def created(searcher, *args, **kwargs):
            fn(searcher, *args, **kwargs)
            self._searchers.append(searcher)
        return created

    def _validated(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["ring.configs_validated"] += 1
            return fn(*args, **kwargs)
        return counted

    # ---------------------------------------------------------- results

    def summarize(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        buf, names = self.buf, self.names
        spans = len(buf) // _FIELDS
        child = [0] * spans
        duration = [0] * spans
        for i in range(spans):
            base = i * _FIELDS
            d = buf[base + 2] - buf[base + 1]
            duration[i] = d
            parent = buf[base + 3]
            if parent >= 0:
                child[parent] += d
        self_ns = Counter()
        calls = Counter()
        by_parent = Counter()
        for i in range(spans):
            base = i * _FIELDS
            name = names[buf[base]]
            self_ns[name] += duration[i] - child[i]
            calls[name] += 1
            parent = buf[base + 3]
            if parent >= 0:
                by_parent[name, names[buf[parent * _FIELDS]]] += 1

        out = {metric: self_ns[name] / 1e9 for name, metric in SELF_TIME.items()}
        out.update({metric: calls[name] for name, metric in CALLS.items()})
        for key in ("ring.configs_validated", "policies.lemma_violations",
                    "adversaries.branches", "verifier.states", "verifier.memo_lookups",
                    "verifier.proven_stalls", "verifier.horizon_hits"):
            out[key] = self.counts[key]
        out["verifier.run_rounds"] = by_parent["scheduler.step", "verifier.impossibility"]
        out["verifier.intent_vectors"] = by_parent["adversaries.choose", "verifier.soundness"]
        out["scheduler.simulated_rounds"] = by_parent["scheduler.step", "scheduler.run"]
        lookups = out["verifier.memo_lookups"]
        out["verifier.memo_hit_ratio"] = (lookups - out["verifier.states"]) / lookups \
            if lookups else 0.0
        chooses = out["adversaries.chooses"]
        out["adversaries.choose_repeat_ratio"] = \
            self.counts["adversaries.choose_repeats"] / chooses if chooses else 0.0
        out["trace.spans"] = spans
        return out

    def write(self, path: Path) -> None:
        """Write the recorded spans as gzipped CSV: index,name,start,end,parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        buf, names = self.buf, self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(buf) // _FIELDS):
                base = i * _FIELDS
                fh.write(f"{i},{names[buf[base]]},{buf[base + 1]},{buf[base + 2]},"
                         f"{buf[base + 3]}\n")
