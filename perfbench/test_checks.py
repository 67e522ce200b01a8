"""Tests of the benchmark's own checks and host-speed scaling, on small hand-made inputs.

    python3 -m pytest perfbench -q
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import hostspeed  # noqa: E402
from checks import check_feature_csv, check_stream, window_f1  # noqa: E402
from inputs import FPS, CorpusClip, Encounter, StreamInput, window_ends  # noqa: E402

SPAN = 240  # frames per encounter: 180 in view + 60 empty


def _stream(kinds=("snatch", "walk_by"), aggressor_exit=120) -> StreamInput:
    encounters, presence = [], {}
    for i, kind in enumerate(kinds):
        first = i * SPAN
        ids = (2 * i + 1, 2 * i + 2)
        last = first + (aggressor_exit if kind == "snatch" else 179)
        presence[ids[0]] = (first, last)
        presence[ids[1]] = (first, first + 179)
        event = (first + 90) / FPS if kind == "snatch" else None
        encounters.append(Encounter(kind, ids, first, last, event))
    n = SPAN * len(kinds)
    return StreamInput("unused", n, encounters, presence, [i / FPS for i in range(n)])


def _alert(pos, pair, kind):
    return {"timestamp_s": pos / FPS, "pair": pair, "kind": kind, "count": 8}


def test_snatch_detected_and_closed_passes():
    inp = _stream()
    alerts = [_alert(100, "1|2", "activated"), _alert(115, "1|2", "deactivated")]
    verdict = check_stream(inp, alerts, inp.n_frames)
    assert verdict.failed == {} and verdict.problems == []


def test_alarm_left_open_after_pair_left_fails():
    inp = _stream()
    verdict = check_stream(inp, [_alert(100, "1|2", "activated")], inp.n_frames)
    assert list(verdict.failed) == [0]
    assert "still open" in verdict.failed[0][0]
    assert verdict.problems == []


def test_missed_snatch_fails():
    inp = _stream()
    late = [_alert(200, "1|2", "activated"), _alert(210, "1|2", "deactivated")]
    for alerts in ([], late):
        verdict = check_stream(inp, alerts, inp.n_frames)
        assert list(verdict.failed) == [0]
        assert "no activation" in verdict.failed[0][0]


def test_benign_and_bystander_activations_fail():
    inp = _stream()
    inp.presence[100_000] = (0, inp.n_frames - 1)
    inp.presence[110_000] = (0, inp.n_frames - 1)
    alerts = [
        _alert(100, "1|2", "activated"), _alert(110, "1|2", "deactivated"),
        _alert(SPAN + 50, "3|4", "activated"), _alert(SPAN + 60, "3|4", "deactivated"),
        _alert(20, "100000|110000", "activated"), _alert(30, "100000|110000", "deactivated"),
    ]
    verdict = check_stream(inp, alerts, inp.n_frames)
    assert sorted(verdict.failed) == [0, 1]
    assert verdict.problems == []


@pytest.mark.parametrize(
    "alerts, frames, what",
    [
        ([_alert(100.5, "1|2", "activated")], None, "no input frame time"),
        ([_alert(100, "1|2", "deactivated")], None, "do not alternate"),
        ([_alert(100, "1|2", "activated"), _alert(101, "1|2", "activated")], None, "do not alternate"),
        ([_alert(100, "7|8", "activated")], None, "unknown pair"),
        ([], 479, "processed 479 of 480"),
    ],
)
def test_corrupted_alert_stream_is_a_problem(alerts, frames, what):
    inp = _stream()
    verdict = check_stream(inp, alerts, inp.n_frames if frames is None else frames)
    assert any(what in p for p in verdict.problems), verdict.problems


def _csv(tmp_path, rows):
    path = tmp_path / "f.csv"
    path.write_text("segment_id,a,b\n" + "".join(f"{r}\n" for r in rows))
    return str(path)


def test_feature_csv_rows_match_stride_positions(tmp_path):
    clip = CorpusClip("c0", "unused", 240, 3.0)
    ids = [f"c0#1|2#{end}" for end in window_ends(240)]
    assert len(ids) == 13
    good = [f"{sid},1.5,0.0" for sid in ids]
    assert check_feature_csv(_csv(tmp_path, good), [clip]) == []
    assert check_feature_csv(_csv(tmp_path, good[:-1]), [clip])
    assert check_feature_csv(_csv(tmp_path, good + ["c0#1|2#240,1.0,1.0"]), [clip])
    for bad in ("nan", "inf", "x"):
        rows = good[:5] + [f"{ids[5]},{bad},0.0"] + good[6:]
        assert check_feature_csv(_csv(tmp_path, rows), [clip])


def test_window_labels_follow_event_time():
    clip = CorpusClip("c0", "unused", 240, 3.0)
    labels = dict(clip.labels())
    # windows [lo, end] in frames; positive exactly when 3.0 s = frame 90 is inside
    assert [labels[f"c0#1|2#{e}"] for e in window_ends(240)] == [
        int(e - 59 <= 90 <= e) for e in window_ends(240)
    ]


def test_window_f1():
    labels = {"a": 1, "b": 1, "c": 0, "d": 0}
    assert window_f1(labels, {"a": 1, "b": 1, "c": 0, "d": 0}) == 1.0
    assert math.isclose(window_f1(labels, {"a": 1, "b": 0, "c": 1, "d": 0}), 0.5)
    assert window_f1(labels, {}) == 0.0


def test_decision_frames_need_two_tracks_sharing_a_window():
    one = StreamInput("unused", 200, [], {1: (0, 199)})
    assert one.decision_frames() == []
    two = StreamInput("unused", 200, [], {1: (0, 199), 2: (100, 199)})
    # the second person enters at 100; a window needs 5 shared frames
    assert two.decision_frames() == [e for e in window_ends(200) if e >= 104]


def test_scaled_interval_takes_probes_out_and_scales_each_stretch():
    ref = hostspeed.REFERENCE_S
    ms = 1_000_000  # ns
    # probes of 1 ms before, inside at 3 s and 6 s, and after a 10 s interval
    marks = [(-2000 * ms, -1999 * ms), (3000 * ms, 3001 * ms), (6000 * ms, 6001 * ms),
             (11000 * ms, 11001 * ms)]
    got = hostspeed.scaled_interval(0, 10000 * ms, marks)
    assert math.isclose(got, (10.0 - 0.002) * ref / 0.001)
    # probes twice as slow after the interval shrink only the stretches near them
    slow_end = marks[:-1] + [(11000 * ms, 11002 * ms), (12000 * ms, 12002 * ms)]
    assert got / 2 < hostspeed.scaled_interval(0, 10000 * ms, slow_end) < got


def test_frame_scales_follow_nearby_probes():
    ref = hostspeed.REFERENCE_S
    every = hostspeed.PROBE_EVERY
    probes = [ref] * 10 + [2 * ref] * 10
    factors = hostspeed.frame_scales(probes, 20 * every)
    assert len(factors) == 20 * every
    assert factors[0] == 1.0 and factors[-1] == 0.5
