"""The decision points a search meets, for checking against a plain
transcription of the rule (``naive_policies.naive_intents``).

``recorded_decisions`` wraps the ``step`` that ``dynring.verifier`` calls.
Each round it sees adds its decision point, the ring the robots saw with
its removed edge and every robot's label, hand and memory, once: with the
seen ring, the robots and the intents the round decided.
"""
from __future__ import annotations

import contextlib

import pytest

import dynring.verifier
from dynring.verifier import _aux


@contextlib.contextmanager
def recorded_decisions():
    """A dict that fills, while the block runs, with every decision point
    ``(seen slots, removed edge, _aux(robots))`` of the search's rounds,
    mapped to ``(seen ring, robots, intents)``."""
    points: dict = {}
    real = dynring.verifier.step

    def recording(policy, cfg, robots, dynamism, *rest, **options):
        result = real(policy, cfg, robots, dynamism, *rest, **options)
        trace = result[2]
        seen = trace.config_seen
        points.setdefault((seen.slots, seen.missing_edge, _aux(robots)),
                          (seen, robots, trace.intents))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynring.verifier, "step", recording)
        yield points


def mismatches(points: dict, oracle) -> list:
    """The decision points where ``oracle(seen, robots)``, a map from label
    to global action, differs from the intents the round decided."""
    found = []
    for key, (seen, robots, intents) in points.items():
        theirs = oracle(seen, robots)
        if intents != theirs:
            found.append((key, intents, theirs))
    return found
