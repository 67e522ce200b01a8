"""Independent straight-line track building, window slicing and pair selection.

This is the oracle for the windowing core (``pipeline.TrackWindows``): it
groups a whole stream into tracks in one pass, smooths each track as a
whole and cuts every window out of the full tracks by the frame positions
it keeps beside them, so it shares nothing with the core's window store.
It smooths with the reference smoother of ``tests/ingest_reference.py``, so
it shares nothing with ``preprocess.SkeletonSmoother``. It picks each
window's pair by brute force over every pair of tracks (``select_pair``
below), so it shares nothing with ``pipeline.select_pair`` either. It
yields each window's selected pair and orders no roles. From ``snatchdet``
it imports only data types (``tests/test_oracle_independence.py`` checks
this).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from ingest_reference import smooth_track
from snatchdet.types import FrameRecord, Track, track_order

Centers = dict[float, Optional[tuple[float, float]]]  # timestamp -> body center


def build_tracks(
    frames: Sequence[FrameRecord], max_gap: int = 15
) -> tuple[list[Track], list[list[int]]]:
    """Group per-frame detections into tracks by their upstream ids.

    Identity continuity is delegated to the ingestion source; this only
    splits an id when it disappears for more than ``max_gap`` frames, in
    which case the reappearance starts a fresh track named ``"<id>.<n>"``.
    Returns the tracks and, beside them, each track's sample frame positions.
    """
    tracks: list[Track] = []
    positions: list[list[int]] = []
    # raw id -> (index of its current track, last frame position, number of splits so far)
    active: dict[int, tuple[int, int, int]] = {}
    for pos, record in enumerate(frames):
        for tid, skel in record.persons:
            entry = active.get(tid)
            if entry is None:
                i, splits = len(tracks), 0
                tracks.append(Track(track_id=str(tid)))
                positions.append([])
            else:
                i, last_pos, splits = entry
                if pos - last_pos > max_gap:
                    splits += 1
                    i = len(tracks)
                    tracks.append(Track(track_id=f"{tid}.{splits}"))
                    positions.append([])
            tracks[i].timestamps.append(record.timestamp)
            tracks[i].skeletons.append(skel)
            positions[i].append(pos)
            active[tid] = (i, pos, splits)
    return tracks, positions


def _slice_positions(track: Track, positions: list[int], lo: int, hi: int) -> Track:
    picks = [i for i, p in enumerate(positions) if lo <= p <= hi]
    return Track(
        track_id=track.track_id,
        timestamps=[track.timestamps[i] for i in picks],
        skeletons=[track.skeletons[i] for i in picks],
    )


def mean_pair_distance(centers_a: Centers, centers_b: Centers) -> Optional[float]:
    """Mean raw center distance over the frames both tracks share, summed in frame order."""
    dists = []
    for t, ca in centers_a.items():
        cb = centers_b.get(t)
        if ca is not None and cb is not None:
            dists.append(math.sqrt((ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2))
    if not dists:
        return None
    return sum(dists) / len(dists)


def select_pair(windows: Sequence[Track], min_frames: int) -> Optional[tuple[Track, Track]]:
    """The pair with minimum mean center distance, found by trying every pair.

    A pair qualifies when both tracks have ``min_frames`` samples, they
    share ``min_frames`` timestamps and at least one shared frame has both
    centers. Ties break on the ``track_order`` keys of the two ids, then on
    the first pair found in list order.
    """
    eligible = [w for w in windows if len(w) >= min_frames]
    centers = [dict(zip(w.timestamps, (s.center for s in w.skeletons))) for w in eligible]
    best: Optional[tuple[float, tuple, Track, Track]] = None
    for i in range(len(eligible)):
        for j in range(i + 1, len(eligible)):
            a, b = eligible[i], eligible[j]
            if len(centers[i].keys() & centers[j].keys()) < min_frames:
                continue
            d = mean_pair_distance(centers[i], centers[j])
            if d is None:
                continue
            key = tuple(sorted((track_order(a.track_id), track_order(b.track_id))))
            if best is None or (d, key) < (best[0], best[1]):
                best = (d, key, a, b)
    if best is None:
        return None
    return best[2], best[3]


def prediction_positions(n_frames: int, window_frames: int, stride_frames: int) -> list[int]:
    return list(range(window_frames - 1, n_frames, stride_frames))


def smoothed_tracks(frames: Sequence[FrameRecord], cfg) -> list[Track]:
    tracks, _ = build_tracks(frames, cfg.max_gap_frames)
    return [smooth_track(t, cfg.alpha) for t in tracks]


def reference_windows(frames: Sequence[FrameRecord], cfg) -> Iterator[tuple[int, list[Track]]]:
    """(end position, every smoothed track cut to the window ending there) per stride."""
    tracks, positions = build_tracks(frames, cfg.max_gap_frames)
    tracks = [smooth_track(t, cfg.alpha) for t in tracks]
    for end in prediction_positions(len(frames), cfg.window_frames, cfg.stride_frames):
        lo = end - cfg.window_frames + 1
        yield end, [_slice_positions(t, p, lo, end) for t, p in zip(tracks, positions)]


def reference_pairs(frames: Sequence[FrameRecord], cfg) -> Iterator[tuple[int, tuple[Track, Track]]]:
    """(end position, selected pair of window tracks) for every window with a qualifying pair."""
    min_frames = cfg.feature_params().min_segment_frames
    for end, windows in reference_windows(frames, cfg):
        pair = select_pair(windows, min_frames)
        if pair is not None:
            yield end, pair
