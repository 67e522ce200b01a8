"""JSON Lines wire format for pose frame streams.

One frame per line:

    {"frame_index": 0, "timestamp_s": 0.0,
     "persons": [{"track_id": 1,
                  "keypoints": [[x, y, confidence] * 17],
                  "bbox": [x1, y1, x2, y2]}]}

``timestamp_s`` is optional; when absent it is synthesized as
``frame_index / fps``. Any line that is not a frame raises
``MalformedRecord``.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator, Union

from .types import FrameRecord, MalformedRecord, Skeleton, validate_stream

PathOrFile = Union[str, IO[str]]


def frame_to_obj(record: FrameRecord) -> dict:
    return {
        "frame_index": record.frame_index,
        "timestamp_s": record.timestamp,
        "persons": [
            {
                "track_id": tid,
                "keypoints": [[kp.x, kp.y, kp.confidence] for kp in skel.keypoints],
                "bbox": list(skel.bbox),
            }
            for tid, skel in record.persons
        ],
    }


def _numbers(values, what: str) -> list[float]:
    """The values as floats: JSON integers are converted, anything else is rejected.

    A boolean is not a number here, nor is a numeric string.
    """
    out = []
    for v in values:
        if type(v) is not float and type(v) is not int:
            raise MalformedRecord(f"bad frame object: {what} must be a number, got {v!r}")
        out.append(float(v))
    return out


def obj_to_frame(obj: dict, fps: float = 30.0) -> FrameRecord:
    """The frame of one decoded line, keypoints flattened; raises MalformedRecord."""
    try:
        frame_index = obj["frame_index"]
        timestamp = obj.get("timestamp_s")
        if timestamp is None:
            timestamp = frame_index / fps
        elif type(timestamp) is not float:
            (timestamp,) = _numbers([timestamp], "timestamp_s")
        persons = []
        for p in obj["persons"]:
            xy: list = []
            conf: list = []
            for x, y, c in p["keypoints"]:
                xy.append(x)
                xy.append(y)
                conf.append(c)
            bbox = tuple(p["bbox"])
            skel = Skeleton(tuple(xy), tuple(conf), bbox)
            if not skel.exact_floats:
                skel = Skeleton(
                    tuple(_numbers(xy, "a keypoint value")),
                    tuple(_numbers(conf, "a keypoint value")),
                    tuple(_numbers(bbox, "a bbox value")),
                )
            persons.append((p["track_id"], skel))
    except MalformedRecord:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecord(f"bad frame object: {exc}") from exc
    return FrameRecord(frame_index=frame_index, timestamp=timestamp, persons=tuple(persons))


def frame_to_line(record: FrameRecord) -> str:
    return json.dumps(frame_to_obj(record), separators=(",", ":"))


def line_to_frame(line: str, fps: float = 30.0) -> FrameRecord:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer too long to convert, or nesting too deep
        raise MalformedRecord(f"invalid JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedRecord("frame line must be a JSON object")
    return obj_to_frame(obj, fps=fps)


def write_stream(dest: PathOrFile, frames: Iterable[FrameRecord]) -> None:
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            write_stream(fh, frames)
        return
    for record in frames:
        dest.write(frame_to_line(record))
        dest.write("\n")


def iter_stream(source: PathOrFile, fps: float = 30.0) -> Iterator[FrameRecord]:
    """Yield frames one by one; skips blank lines, raises MalformedRecord."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            yield from iter_stream(fh, fps=fps)
        return
    for line in source:
        line = line.strip()
        if line:
            yield line_to_frame(line, fps=fps)


def read_stream(source: PathOrFile, fps: float = 30.0) -> list[FrameRecord]:
    """All frames of a stream, parsed and validated; raises MalformedRecord."""
    return validate_stream(list(iter_stream(source, fps=fps)))
