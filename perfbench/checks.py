"""Output checks against the scenario ground truth.

Nothing here reads the program's own idea of what is right: expected
windows come from the clip frame counts, labels from the event times, and
encounter verdicts from who was in view when.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

from inputs import CorpusClip, StreamInput

MAX_GAP_FRAMES = 15  # PipelineConfig default: a track absent longer than this is gone
DETECT_BEFORE_S = 1.0  # a snatch activation must fall in [event - 1 s, event + 2 s]
DETECT_AFTER_S = 2.0


@dataclass
class StreamVerdict:
    attempted: int
    failed: dict[int, list[str]] = field(default_factory=dict)  # encounter -> reasons
    problems: list[str] = field(default_factory=list)  # output is wrong, not just late

    def fail(self, index: int, reason: str) -> None:
        self.failed.setdefault(index, []).append(reason)


def check_stream(inp: StreamInput, alerts: list[dict], frames_processed: int) -> StreamVerdict:
    """Judge each staged encounter from the alert lines of one stream run.

    An encounter fails when its snatch raises no activation near the event,
    when a benign encounter or a bystander raises one, or when an activation
    is still open MAX_GAP_FRAMES after its pair stopped being in view.
    """
    verdict = StreamVerdict(attempted=len(inp.encounters))
    if frames_processed != inp.n_frames:
        verdict.problems.append(f"processed {frames_processed} of {inp.n_frames} frames")

    stamps = {t: i for i, t in enumerate(inp.timestamps)}
    by_pair: dict[str, list[tuple[int, str]]] = {}
    for alert in alerts:
        pos = stamps.get(alert.get("timestamp_s"))
        if pos is None:
            verdict.problems.append(f"alert time {alert.get('timestamp_s')!r} is no input frame time")
            continue
        by_pair.setdefault(str(alert.get("pair")), []).append((pos, alert.get("kind")))

    span = inp.n_frames // max(len(inp.encounters), 1)  # frames per encounter
    focal = {e.pair: i for i, e in enumerate(inp.encounters)}
    for pair, events in by_pair.items():
        kinds = [k for _, k in events]
        expected = ["activated", "deactivated"] * (len(kinds) // 2 + 1)
        if kinds != expected[: len(kinds)]:
            verdict.problems.append(f"pair {pair}: alert kinds {kinds} do not alternate from 'activated'")
        if [p for p, _ in events] != sorted(p for p, _ in events):
            verdict.problems.append(f"pair {pair}: alerts out of time order")
        if pair not in focal:
            members = pair.split("|")
            if len(members) != 2 or not all(m.isdigit() and int(m) in inp.presence for m in members):
                verdict.problems.append(f"alert on unknown pair {pair}")
            for pos, kind in events:
                if kind == "activated":
                    verdict.fail(min(pos // span, len(inp.encounters) - 1), f"bystander pair {pair} activated")

    for i, enc in enumerate(inp.encounters):
        events = by_pair.get(enc.pair, [])
        activations = [pos for pos, kind in events if kind == "activated"]
        if enc.kind == "snatch":
            lo = enc.event_time - DETECT_BEFORE_S
            hi = enc.event_time + DETECT_AFTER_S
            if not any(lo <= inp.timestamps[p] <= hi for p in activations):
                verdict.fail(i, "snatch raised no activation near the event")
        elif activations:
            verdict.fail(i, f"benign {enc.kind} activated")
        gone = enc.last + MAX_GAP_FRAMES + 1
        if events and events[-1][1] == "activated" and gone < inp.n_frames:
            verdict.fail(i, f"activation still open {MAX_GAP_FRAMES} frames after the pair left view")
    return verdict


def read_alerts(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# offline outputs


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], [r for r in rows[1:] if r]


def check_feature_csv(path: str, clips: list[CorpusClip]) -> list[str]:
    """Rows are exactly the stride positions of every clip, every cell finite."""
    problems = []
    header, rows = read_csv(path)
    if not header or header[0] != "segment_id":
        return [f"{path}: no segment_id header"]
    expected = [sid for clip in clips for sid, _ in clip.labels()]
    got = [r[0] for r in rows]
    if len(got) != len(expected):
        problems.append(f"{path}: {len(got)} rows, expected {len(expected)} stride positions")
    if sorted(got) != sorted(expected):
        problems.append(f"{path}: row ids differ from the stride positions of the clips")
    for r in rows:
        if len(r) != len(header):
            problems.append(f"{path}: row {r[0]} has {len(r)} cells, header has {len(header)}")
            break
        try:
            bad = [h for h, v in zip(header[1:], r[1:]) if not math.isfinite(float(v))]
        except ValueError:
            bad = ["unparsable"]
        if bad:
            problems.append(f"{path}: row {r[0]} has non-finite cells {bad[:3]}")
            break
    return problems


def window_f1(labels: dict[str, int], predicted: dict[str, int]) -> float:
    """F1 of the robbery class over the windows both sides name."""
    tp = sum(1 for k, y in labels.items() if y == 1 and predicted.get(k) == 1)
    fp = sum(1 for k, y in labels.items() if y == 0 and predicted.get(k) == 1)
    fn = sum(1 for k, y in labels.items() if y == 1 and predicted.get(k) != 1)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def same_bytes(path_a: str, path_b: str) -> bool:
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        return a.read() == b.read()

