"""Independent straight-line track building and window slicing.

This is the oracle for the windowing core (``pipeline.TrackWindows``): it
groups a whole stream into tracks in one pass, smooths each track as a
whole and cuts every window out of the full tracks by frame position, so
it shares nothing with the core's incremental buffers.
"""

from __future__ import annotations

from typing import Sequence

from snatchdet.features import pair_segment
from snatchdet.pipeline import order_roles, select_pair
from snatchdet.preprocess import smooth_track
from snatchdet.types import FrameRecord, Track


def build_tracks(frames: Sequence[FrameRecord], max_gap: int = 15) -> list[Track]:
    """Group per-frame detections into tracks by their upstream ids.

    Identity continuity is delegated to the ingestion source; this only
    splits an id when it disappears for more than ``max_gap`` frames, in
    which case the reappearance starts a fresh track named ``"<id>.<n>"``.
    """
    tracks: list[Track] = []
    # raw id -> (current track, last frame position, number of splits so far)
    active: dict[int, tuple[Track, int, int]] = {}
    for pos, record in enumerate(frames):
        for tid, skel in record.persons:
            entry = active.get(tid)
            if entry is None:
                track = Track(track_id=str(tid))
                tracks.append(track)
                splits = 0
            else:
                track, last_pos, splits = entry
                if pos - last_pos > max_gap:
                    splits += 1
                    track = Track(track_id=f"{tid}.{splits}")
                    tracks.append(track)
            track.samples.append((record.timestamp, skel))
            if track.positions is None:
                track.positions = []
            track.positions.append(pos)
            active[tid] = (track, pos, splits)
    return tracks


def _slice_positions(track: Track, lo: int, hi: int) -> Track:
    if track.positions is None:
        raise ValueError("track has no frame positions")
    picks = [i for i, p in enumerate(track.positions) if lo <= p <= hi]
    return Track(
        track_id=track.track_id,
        samples=[track.samples[i] for i in picks],
        smoothed=[track.smoothed[i] for i in picks] if track.smoothed else None,
        positions=[track.positions[i] for i in picks],
    )


def prediction_positions(n_frames: int, window_frames: int, stride_frames: int) -> list[int]:
    return list(range(window_frames - 1, n_frames, stride_frames))


def smoothed_tracks(frames: Sequence[FrameRecord], cfg) -> list[Track]:
    return [smooth_track(t, cfg.smoothing()) for t in build_tracks(frames, cfg.max_gap_frames)]


def reference_segments(frames: Sequence[FrameRecord], cfg):
    """(end position, ordered PairSegment) for every window with a qualifying pair."""
    tracks = smoothed_tracks(frames, cfg)
    min_frames = cfg.feature_params().min_segment_frames
    for end in prediction_positions(len(frames), cfg.window_frames, cfg.stride_frames):
        lo = end - cfg.window_frames + 1
        windows = [_slice_positions(t, lo, end) for t in tracks]
        pair = select_pair(windows, min_frames)
        if pair is None:
            continue
        agg, vic = order_roles(pair[0], pair[1], cfg.window_s)
        yield end, pair_segment(agg, vic, fps=cfg.fps)
