"""Bounded-visibility views: the tests' model of what a robot perceives.

No decision rule reads a view (rules decide on a full-ring ``Snapshot``).
The tests use views to show what a robot could tell apart: criterion 3's
n=2 certificate, the zero-visibility tests, and the proof that a view at
k = ceil(n/2) cannot rebuild a snapshot.
"""
from __future__ import annotations

from dataclasses import dataclass

from dynring import RingConfiguration, RobotState


@dataclass(frozen=True)
class View:
    """What a robot at visibility k perceives, in its own frame.

    ``clockwise`` / ``anti_clockwise`` hold the gaps between consecutive
    occupied nodes out to distance k in that own-frame direction (first
    entry is the distance to the nearest occupied node). ``multiplicity``
    lists own-frame clockwise distances (0 included for the robot's own
    node) of multinodes whose clockwise distance is at most k, or (-1,)
    when there is none. ``missing_edge`` is the smallest own-frame
    clockwise distance to an endpoint of the removed edge, reported only
    when some endpoint lies within ring distance k; otherwise None.
    """

    clockwise: tuple[int, ...]
    anti_clockwise: tuple[int, ...]
    multiplicity: tuple[int, ...]
    missing_edge: int | None
    own_count: int
    least_label_here: int
    is_least: bool
    second_least_label_here: int | None
    is_second_least: bool


def _gaps(distances) -> tuple[int, ...]:
    out = []
    prev = 0
    for d in distances:
        out.append(d - prev)
        prev = d
    return tuple(out)


def compute_view(cfg: RingConfiguration, robot: RobotState, k: int) -> View:
    """The view of ``robot`` from the node it stands on in ``cfg``."""
    if not 0 <= k <= cfg.n:
        raise ValueError(f"visibility k={k} out of range 0..{cfg.n}")
    n = cfg.n
    pos = cfg.positions()[robot.label]
    sign = robot.orientation.sign
    mult = cfg.multiplicities()
    horizon = min(k, n - 1)

    def occ(step: int, d: int) -> int:
        return mult[(pos + step * d) % n]

    cw_occupied = [d for d in range(1, horizon + 1) if occ(sign, d) > 0]
    acw_occupied = [d for d in range(1, horizon + 1) if occ(-sign, d) > 0]
    multi = tuple(d for d in range(0, horizon + 1) if occ(sign, d) >= 2)
    if not multi:
        multi = (-1,)

    missing = None
    if cfg.missing_edge is not None:
        e = cfg.missing_edge
        endpoints = (e, (e + 1) % n)
        own_cw = [((q - pos) * sign) % n for q in endpoints]
        visible = any(min(d, n - d) <= k for d in own_cw)
        if visible:
            missing = min(own_cw)

    here = cfg.slots[pos]
    second = here[1] if len(here) >= 2 else None
    return View(
        clockwise=_gaps(cw_occupied),
        anti_clockwise=_gaps(acw_occupied),
        multiplicity=multi,
        missing_edge=missing,
        own_count=len(here),
        least_label_here=here[0],
        is_least=robot.label == here[0],
        second_least_label_here=second,
        is_second_least=robot.label == second,
    )
