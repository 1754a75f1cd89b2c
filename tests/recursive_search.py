"""The depth-first bound search: the tests' oracle for ``WorstCaseSearcher``.

A state is valued by recursing into every branch, with the state marked
pending in the memo while its branches are open; a branch that meets a
pending state has closed a cycle and is worth infinity. ``dynring.verifier``
settles the same values backward from dispersal instead, and must report
what this does, up to the order of its lemma violations and the frame each
one's dynamism is drawn in. The recursion is one frame per state on the
current path, so this serves only searches below the recursion limit.
"""
from __future__ import annotations

import math

from dynring import classify, exhaustive_branches, step
from dynring.verifier import WorstCaseSearcher

_PENDING = object()


class RecursiveSearcher(WorstCaseSearcher):
    """``WorstCaseSearcher`` with every value found by the recursive search;
    its key, witness and memos are the searcher's own."""

    def value(self, cfg, robots) -> float:
        return 0 if classify(cfg).dispersed else self._value(cfg, robots)

    def _value(self, cfg, robots) -> float:
        key = self._key(cfg, robots)
        entry = self.memo.get(key)
        if entry is _PENDING:
            return math.inf
        if entry is not None:
            return entry
        self.memo[key] = _PENDING
        best = -1.0
        for dynamism in exhaustive_branches(cfg, self.mode):
            next_cfg, next_robots, trace = step(self.policy, cfg, robots, dynamism,
                                                 self.looks, self.decisions)
            for violation in trace.violations:
                self.lemma_violations.append((key, dynamism, violation))
            rest = 0 if trace.metrics_after.dispersed else self._value(next_cfg, next_robots)
            best = max(best, 1 + rest)
        self.memo[key] = best
        return best
