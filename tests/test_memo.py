"""Extraction through the window store's per-frame memo equals fresh extraction.

``TrackWindows`` keeps one ``FrameMemo`` for the frames it stores; the role
ordering of offline extraction and every extraction of every overlapping
window read it. The property drives a store over random streams whose
people leave for a few frames (shorter than ``max_gap_frames``, so their
key stays) and one of whom is gone long enough to come back under a split
key. Those gaps make a segment's previous row differ from a track's
previous stored frame, which is where a wrongly keyed two-frame value would
show. Each window's pair is also extracted under both role orderings
through one ``SegmentFamilies`` table, as the stream engine does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_skeleton
from snatchdet.config import PipelineConfig
from snatchdet.features import (
    NoTemporalOverlap,
    SegmentFamilies,
    extract_segment,
    full_schema,
    pair_segment,
)
from snatchdet.pipeline import TrackWindows, order_roles, select_pair
from snatchdet.types import FrameRecord

CFG = PipelineConfig(fps=10.0, window_s=2.0, stride_s=0.5, max_gap_frames=4)
SCHEMA = full_schema()
PARAMS = CFG.feature_params()


@st.composite
def presence(draw):
    """(number of frames, per person the set of frame positions it is absent)."""
    n_frames = draw(st.integers(min_value=35, max_value=60))
    n_people = draw(st.integers(min_value=3, max_value=4))
    absent = []
    for _ in range(n_people):
        gone = set()
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            start = draw(st.integers(min_value=1, max_value=n_frames - 2))
            length = draw(st.integers(min_value=1, max_value=CFG.max_gap_frames - 1))
            gone.update(range(start, start + length))
        absent.append(gone)
    # one person leaves for longer than max_gap_frames and returns under a split key
    split = draw(st.integers(min_value=0, max_value=n_people - 1))
    start = draw(st.integers(min_value=5, max_value=n_frames - 15))
    absent[split].update(range(start, start + CFG.max_gap_frames + 2))
    return n_frames, absent


def stream(n_frames, absent, seed):
    rng = np.random.default_rng(seed)
    centers = [[200.0 + 90.0 * k, 220.0] for k in range(len(absent))]
    frames = []
    for pos in range(n_frames):
        persons = []
        for k, gone in enumerate(absent):
            centers[k][0] += float(rng.normal(0, 6.0))
            centers[k][1] += float(rng.normal(0, 6.0))
            if pos not in gone:
                persons.append((k + 1, random_skeleton(rng, centers[k], dropout=0.15)))
        frames.append(FrameRecord(pos, pos / CFG.fps, tuple(persons)))
    return frames


def assert_same_as_fresh(segment, memo):
    got = extract_segment(segment, SCHEMA, PARAMS, memo)
    want = extract_segment(segment, SCHEMA, PARAMS)
    assert repr(got.values) == repr(want.values), segment.aggressor.track_id


def assert_one_table_same_as_fresh(segment, memo):
    """Both role orderings through one family table, as the stream engine extracts."""
    table = SegmentFamilies(segment, PARAMS, memo)
    for pair in (segment, segment.swapped()):
        got = extract_segment(pair, SCHEMA, PARAMS, memo, table)
        want = extract_segment(pair, SCHEMA, PARAMS)
        assert repr(got.values) == repr(want.values), pair.aggressor.track_id


def other_segment(tracks, chosen):
    """The first pair of the window other than ``chosen`` that is long enough."""
    for i, a in enumerate(tracks):
        for b in tracks[i + 1:]:
            if {a.track_id, b.track_id} == chosen:
                continue
            try:
                segment = pair_segment(a, b, fps=CFG.fps)
            except NoTemporalOverlap:
                continue
            if len(segment) >= PARAMS.min_segment_frames:
                return segment
    return None


@settings(max_examples=40, deadline=None)
@given(presence(), st.integers(min_value=0, max_value=2**32 - 1))
def test_memoised_extraction_equals_fresh_extraction(mask, seed):
    n_frames, absent = mask
    windows = TrackWindows(CFG)
    keys_seen = set()
    for record in stream(n_frames, absent, seed):
        present, pair = windows.advance(record)
        keys_seen |= present
        if pair is None:
            continue
        # the store's selection, and roles ordered through its memo, equal
        # a memo-free recomputation
        tracks = windows.tracks()
        fresh = select_pair(tracks, PARAMS.min_segment_frames)
        assert [t.track_id for t in pair] == [t.track_id for t in fresh]
        agg, vic = order_roles(pair[0], pair[1], CFG.window_s, windows.memo)
        want = order_roles(fresh[0], fresh[1], CFG.window_s)
        assert (agg.track_id, vic.track_id) == (want[0].track_id, want[1].track_id)
        segment = pair_segment(agg, vic, fps=CFG.fps)
        assert_same_as_fresh(segment, windows.memo)
        assert_same_as_fresh(segment.swapped(), windows.memo)
        assert_one_table_same_as_fresh(segment, windows.memo)
        other = other_segment(tracks, {agg.track_id, vic.track_id})
        if other is not None:
            assert_same_as_fresh(other, windows.memo)
    assert any("." in key for key in keys_seen)
