"""Extraction through the window store's stored values equals fresh extraction.

``TrackWindows`` keeps each live track's per-sample values on the track
(body centers, center speeds, wrist steps, ...) and one ``PairRows`` record
of pair values per ordered pair of live tracks; pair selection, the role
ordering of offline extraction and every extraction of every overlapping
window read them. The property drives a store over random streams whose
people leave for a few frames (shorter than ``max_gap_frames``, so their
key stays) and one of whom is gone long enough to come back under a split
key. Those gaps make a segment's previous row differ from a track's
previous stored sample, which is where a wrongly reused two-row value would
show. Each window's pair is also extracted under both role orderings
through one ``SegmentFamilies`` table, as the stream engine does, and every
stored value is compared with the row function computed afresh. "Fresh"
extraction runs on copies of the tracks, which store nothing yet.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_segment, random_skeleton, random_track
from snatchdet.config import PipelineConfig
from snatchdet.features import (
    MIN_SEGMENT_FRAMES,
    NoTemporalOverlap,
    SegmentFamilies,
    extract_segment,
    full_schema,
    pair_segment,
)
from snatchdet.pipeline import TrackWindows, order_roles, select_pair
from snatchdet.types import FrameRecord, Track, track_order

CFG = PipelineConfig(fps=10.0, window_s=2.0, stride_s=0.5, max_gap_frames=4)
SCHEMA = full_schema()


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


def stream(n_frames, absent, seed, starts=None, sigma=6.0):
    """Random people, person k + 1 starting at ``starts[k]`` and absent at ``absent[k]``."""
    rng = np.random.default_rng(seed)
    starts = starts or [(200.0 + 90.0 * k, 220.0) for k in range(len(absent))]
    centers = [list(c) for c in starts]
    frames = []
    for pos in range(n_frames):
        persons = []
        for k, gone in enumerate(absent):
            centers[k][0] += float(rng.normal(0, sigma))
            centers[k][1] += float(rng.normal(0, sigma))
            if pos not in gone:
                persons.append((k + 1, random_skeleton(rng, centers[k], dropout=0.15)))
        frames.append(FrameRecord(pos, pos / CFG.fps, tuple(persons)))
    return frames


def copies(tracks):
    return [Track(t.track_id, list(t.timestamps), list(t.skeletons)) for t in tracks]


def assert_same_as_fresh(segment):
    got = extract_segment(segment, SCHEMA, SegmentFamilies(segment))
    want = extract_segment(fresh_segment(segment), SCHEMA)
    assert repr(got) == repr(want), segment.aggressor.track_id


def assert_one_table_same_as_fresh(segment):
    """Both role orderings through one family table, as the stream engine extracts."""
    table = SegmentFamilies(segment)
    fresh = fresh_segment(segment)
    for pair, want_pair in ((segment, fresh), (segment.swapped(), fresh.swapped())):
        got = extract_segment(pair, SCHEMA, table)
        want = extract_segment(want_pair, SCHEMA)
        assert repr(got) == repr(want), pair.aggressor.track_id


def assert_stored_values_are_fresh(tracks):
    """Every stored value of the live tracks equals its row function computed now."""
    by_key = {t.track_id: t for t in tracks}
    for track in tracks:
        times, skels = track.timestamps, track.skeletons
        assert len(track.centers) <= len(skels)
        assert track.centers == [s.center for s in skels[: len(track.centers)]]
        for row, stored in track.steps.items():
            assert len(stored) <= len(skels)
            for i in range(1, len(stored)):
                want = row(skels[i - 1], skels[i], times[i] - times[i - 1])
                assert repr(stored[i]) == repr(want), (track.track_id, row.__name__, i)
        for key, record in track.pairs.items():
            partner = by_key[key]
            assert record.partner() is partner
            at_a = dict(zip(times, skels))
            at_b = dict(zip(partner.timestamps, partner.skeletons))
            for row, stored in record.values.items():
                if row.__code__.co_argcount != 2:
                    continue  # a two-row value: checked through extraction
                for t, value in zip(record.times, stored):
                    if t in at_a and t in at_b:
                        assert repr(value) == repr(row(at_a[t], at_b[t])), (key, row.__name__, t)


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
            if len(segment) >= MIN_SEGMENT_FRAMES:
                return segment
    return None


@settings(max_examples=40, deadline=None)
@given(presence(), st.integers(min_value=0, max_value=2**32 - 1))
def test_memoised_extraction_equals_fresh_extraction(mask, seed):
    n_frames, absent = mask
    windows = TrackWindows(CFG, SCHEMA.joints)
    keys_seen = set()
    for record in stream(n_frames, absent, seed):
        present, pair = windows.advance(record)
        keys_seen |= present
        if pair is None:
            continue
        # the store's selection, and roles ordered through its stored values,
        # equal a recomputation on copies of the tracks
        tracks = windows.tracks()
        fresh = select_pair(copies(tracks), MIN_SEGMENT_FRAMES)
        assert [t.track_id for t in pair] == [t.track_id for t in fresh]
        agg, vic = order_roles(pair[0], pair[1], CFG.window_s)
        want = order_roles(*copies(fresh), CFG.window_s)
        assert (agg.track_id, vic.track_id) == (want[0].track_id, want[1].track_id)
        segment = pair_segment(agg, vic, fps=CFG.fps)
        assert_same_as_fresh(segment)
        assert_same_as_fresh(segment.swapped())
        assert_one_table_same_as_fresh(segment)
        other = other_segment(tracks, {agg.track_id, vic.track_id})
        if other is not None:
            assert_same_as_fresh(other)
        assert_stored_values_are_fresh(tracks)
    assert any("." in key for key in keys_seen)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=22, max_value=30),
    st.integers(min_value=10, max_value=20),
    st.sets(st.integers(min_value=0, max_value=26), max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_pair_that_loses_selection_and_wins_it_back(arrive, stay, gaps, seed):
    """A closer bystander takes the selection from the pair (1, 2) for one or
    more strides and leaves; every later vector of (1, 2), under both
    orderings, equals a fresh extraction of the same segment. Person 2 may
    miss a few frames, so some segments skip samples of person 1."""
    bystander_gone = set(range(arrive)) | set(range(arrive + stay, 80))
    two_gone = {3 * k for k in gaps}  # one frame at a time: the key stays
    frames = stream(80, [set(), two_gone, bystander_gone], seed,
                    starts=[(200.0, 220.0), (350.0, 220.0), (235.0, 220.0)], sigma=0.5)
    windows = TrackWindows(CFG, SCHEMA.joints)
    selected, segment = [], None
    for record in frames:
        _, pair = windows.advance(record)
        if pair is None:
            continue
        if segment is not None:
            # a segment kept while its tracks dropped samples is still right
            assert_one_table_same_as_fresh(segment)
        a, b = sorted(pair, key=lambda track: track_order(track.track_id))
        selected.append((a.track_id, b.track_id))
        segment = pair_segment(a, b, fps=CFG.fps)
        assert_one_table_same_as_fresh(segment)
        assert_stored_values_are_fresh(windows.tracks())
    lost = selected.index(("1", "3"))
    assert ("1", "2") in selected[:lost] and ("1", "2") in selected[lost:]


def test_a_held_segment_extracted_after_newer_ones_reads_its_own_rows():
    """Each newer segment of a pair trims the pair's stored rows from the front;
    a segment held from an earlier stride, extracted again afterwards with a
    fresh table, still equals a fresh extraction."""
    frames = stream(60, [set(), set()], seed=3)
    windows = TrackWindows(CFG, SCHEMA.joints)
    held = []
    for record in frames:
        _, pair = windows.advance(record)
        if pair is None:
            continue
        a, b = sorted(pair, key=lambda track: track_order(track.track_id))
        held.append(pair_segment(a, b, fps=CFG.fps))
        assert_one_table_same_as_fresh(held[-1])
    assert len(held) > 2
    for segment in held:
        assert_one_table_same_as_fresh(segment)


def test_values_of_another_track_with_the_same_id_are_not_read(rng):
    """A track paired with two tracks of one id, one after the other, reads
    no value stored for the first."""
    a = random_track(rng, "1", 12)
    first, second = random_track(rng, "2", 12), random_track(rng, "2", 12)
    extract_segment(pair_segment(a, first, fps=CFG.fps), SCHEMA)
    assert_one_table_same_as_fresh(pair_segment(a, second, fps=CFG.fps))
