"""``pipeline.select_pair`` picks the pair the brute-force oracle picks.

The oracle (``track_reference.select_pair``) tries every pair of tracks; the
pipeline skips pairs whose center bounding boxes lie too far apart to win.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from snatchdet.config import PipelineConfig
from snatchdet.features import MIN_SEGMENT_FRAMES
from snatchdet.pipeline import select_pair
from snatchdet.types import NUM_KEYPOINTS, Skeleton, Track
from test_acceptance import equivalence_clips
from track_reference import reference_windows
from track_reference import select_pair as reference_select_pair

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
LEFT_SHOULDER = 5


def point_skeleton(center):
    """A skeleton whose body center is exactly ``center``; None: no valid center."""
    x, y = center if center is not None else (0.0, 0.0)
    conf = [0.0] * NUM_KEYPOINTS
    if center is not None:
        conf[LEFT_SHOULDER] = 1.0  # one valid shoulder is the center
    return Skeleton((x, y) * NUM_KEYPOINTS, tuple(conf), (x - 1.0, y - 1.0, x + 1.0, y + 1.0))


def make_track(track_id, samples):
    """A track from (timestamp, center or None) samples in time order."""
    return Track(track_id, [t for t, _ in samples], [point_skeleton(c) for _, c in samples])


def picked(pair):
    return None if pair is None else (id(pair[0]), id(pair[1]))


def assert_same_pick(windows, min_frames):
    assert picked(select_pair(windows, min_frames)) == picked(
        reference_select_pair(windows, min_frames)
    )


def test_matches_reference_on_the_equivalence_clips():
    cfg = PipelineConfig()
    checked = 0
    for frames in equivalence_clips():
        for _, windows in reference_windows(frames, cfg):
            assert_same_pick(windows, MIN_SEGMENT_FRAMES)
            checked += 1
    assert checked > 100


def test_matches_reference_on_the_digest_crowd_stream():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    cfg = PipelineConfig()
    frames = digest.encounter_stream(seed=1, rounds=2, bystanders=6)
    crowded = 0
    for _, windows in reference_windows(frames, cfg):
        windows = [w for w in windows if len(w)]
        assert_same_pick(windows, MIN_SEGMENT_FRAMES)
        crowded += len(windows) >= 8
    assert crowded > 50


def test_far_track_is_never_the_pick():
    near = [make_track(str(i), [(t, (10.0 * i + t, 0.0)) for t in range(5)]) for i in range(3)]
    far = make_track("0.1", [(t, (1e6, 1e6)) for t in range(5)])
    pair = select_pair([far, *near], 3)
    assert (pair[0].track_id, pair[1].track_id) == ("0", "1")


def test_tracks_without_centers_form_no_pair():
    blind = [make_track(str(i), [(t, None) for t in range(4)]) for i in range(3)]
    assert select_pair(blind, 2) is None
    seen = make_track("9", [(t, (0.0, 0.0)) for t in range(4)])
    assert select_pair([*blind, seen], 2) is None


def test_tie_is_kept_when_the_mean_rounds_below_its_bound():
    # Three shared frames 13/7 apart: the computed mean of the three equal
    # distances is one ulp below the distance, which is also the box gap.
    # Pair (3, 4) is visited first; pair (1, 2) ties it and has the lower key.
    d = 13 / 7
    assert (d + d + d) / 3 < d  # summed left to right, as select_pair sums
    frames = range(3)
    tracks = [
        make_track("3", [(t, (0.0, 0.0)) for t in frames]),
        make_track("4", [(t, (d, 0.0)) for t in frames]),
        make_track("1", [(t, (0.0, 1000.0)) for t in frames]),
        make_track("2", [(t, (d, 1000.0)) for t in frames]),
    ]
    pair = select_pair(tracks, 3)
    assert (pair[0].track_id, pair[1].track_id) == ("1", "2")
    assert_same_pick(tracks, 3)


def test_equal_keys_break_on_list_order():
    # "1", "01" and "001" share one track_order key and every pair's mean is
    # 1, but the first pair in list order has the largest bound (1, not 0).
    a = make_track("1", [(0, (0.0, 0.0)), (1, (0.0, 0.0))])
    b = make_track("01", [(0, (1.0, 0.0)), (1, (1.0, 0.0))])
    c = make_track("001", [(0, (1.0, 0.0)), (1, (-1.0, 0.0))])
    pair = select_pair([a, b, c], 2)
    assert (pair[0], pair[1]) == (a, b)
    assert_same_pick([a, b, c], 2)


# A window of up to 8 frames; each track is present on some of them, with
# centers on a small integer grid (so exact distance ties are common) or
# missing, shifted by its own offset (most tracks share the origin, so
# nothing prunes; some stand a few units off, along an axis or a diagonal,
# and some far off). A track may repeat an earlier track's samples under a
# new id.
@st.composite
def windows(draw):
    n_frames = draw(st.integers(1, 8))
    coord = st.integers(0, 3).map(float)
    point = st.tuples(coord, coord)
    center = st.one_of(st.none(), point, point, point)  # about 1 in 4 missing
    offsets = st.sampled_from(
        [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (2.5, 0.0), (2.5, 2.5), (-4.0, 3.0), (1e6, -1e6)]
    )
    tracks: list[Track] = []
    samples_by_track = []
    for k in range(draw(st.integers(0, 7))):
        track_id = draw(st.sampled_from([str(k), f"{k}.1", f"{k + 10}"]))
        if samples_by_track and draw(st.booleans()):
            samples = draw(st.sampled_from(samples_by_track))
        else:
            present = sorted(draw(st.sets(st.integers(0, n_frames - 1), min_size=1)))
            ox, oy = draw(offsets)
            samples = []
            for t in present:
                c = draw(center)
                samples.append((t / 10, None if c is None else (c[0] + ox, c[1] + oy)))
        samples_by_track.append(samples)
        tracks.append(make_track(track_id, samples))
    return tracks


@settings(max_examples=400, deadline=None)
@given(windows(), st.integers(1, 4))
def test_matches_reference_on_random_windows(window, min_frames):
    assert_same_pick(window, min_frames)
