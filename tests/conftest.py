"""Shared strategies and helpers for the test suite."""
from __future__ import annotations

from hypothesis import strategies as st

from dynring import Mode, Orientation, RingConfiguration, RobotState

# (adversary, n, mode, neutral_required): criterion 8's adaptive-soundness
# checks, each run from every start the adversary's invariant admits.
KILLER_SOUNDNESS_CASES = (
    ("vp-killer-n3", 3, Mode.VP, True),
    ("vp-killer", 4, Mode.VP, False),
    ("vp-killer", 5, Mode.VP, False),
    *(("1i-killer", n, Mode.ONE_INTERVAL, False) for n in (2, 3, 4, 5)),
)


@st.composite
def ring_configs(draw, min_n: int = 2, max_n: int = 8, allow_edge: bool = True):
    """A labeled configuration: n robots dropped on n nodes, maybe one
    removed edge."""
    n = draw(st.integers(min_n, max_n))
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    slots = [[] for _ in range(n)]
    for label, node in enumerate(nodes, start=1):
        slots[node].append(label)
    edge = None
    if allow_edge and draw(st.booleans()):
        edge = draw(st.integers(0, n - 1))
    return RingConfiguration(n, tuple(tuple(s) for s in slots), edge)


@st.composite
def placed_robots(draw, cfg: RingConfiguration, memory=None):
    """One robot per label of ``cfg``, orientations drawn freely."""
    return tuple(
        RobotState(label, draw(st.sampled_from((Orientation.ALIGNED, Orientation.REVERSED))),
                   memory)
        for label in cfg.labels())


@st.composite
def configured_scenarios(draw, min_n: int = 2, max_n: int = 8,
                         allow_edge: bool = True, memory=None):
    cfg = draw(ring_configs(min_n, max_n, allow_edge))
    robots = draw(placed_robots(cfg, memory=memory))
    return cfg, robots


def snapshot_facts(snap) -> tuple:
    """Every fact a ``Snapshot`` offers a decision rule, in a comparable form."""
    return (snap.n, snap.own_labels, snap.own_count, snap.least_label, snap.is_least,
            snap.has_multinode, snap.own_chain(), snap.anchored(),
            snap.adjacent_to_two_holes())
