"""Reference alarm rule, written from ``docs/formats.md`` ("Alarm rule").

It imports nothing from ``snatchdet``: a fault in ``pipeline.step_pairs``
or ``temporal.step`` cannot hide on both sides of a comparison. Each
pair's values are kept whole and every hysteresis window is recounted
from them.
"""

from __future__ import annotations

from typing import Iterable, Optional


def reference_alarms(
    frames: Iterable[tuple[set, bool, Optional[tuple]]],
    window: int,
    n_on: int,
    n_off: int,
) -> list[tuple[list[tuple[str, str, int]], list[str]]]:
    """Per frame, its (pair key, kind, count) transitions and the known pair keys, in order.

    Each frame is (keys present, stride point, decision), the decision being
    None or (pair key, (member, member), prediction).
    """
    known = {}  # pair key -> {"members", "prediction", "values", "on"}, in order of becoming known
    out = []
    for present, stride, decision in frames:
        if stride:
            for pair in known.values():
                pair["prediction"] = 0
        if decision is not None:
            key, members, prediction = decision
            if key not in known:
                known[key] = {"values": [], "on": False}
            known[key]["members"] = tuple(members)
            known[key]["prediction"] = 1 if prediction else 0
        transitions = []
        for key, pair in known.items():
            both_present = all(member in present for member in pair["members"])
            pair["values"].append(pair["prediction"] if both_present else 0)
            count = sum(pair["values"][-window:])
            if not pair["on"] and count >= n_on:
                pair["on"] = True
                transitions.append((key, "activated", count))
            elif pair["on"] and count <= n_off:
                pair["on"] = False
                transitions.append((key, "deactivated", count))
        known = {
            key: pair
            for key, pair in known.items()
            if pair["on"] or 1 in pair["values"][-window:] or pair["prediction"]
        }
        out.append((transitions, list(known)))
    return out
