"""JSON Lines wire format for pose frame streams.

One frame per line:

    {"frame_index": 0, "timestamp_s": 0.0,
     "persons": [{"track_id": 1,
                  "keypoints": [[x, y, confidence] * 17],
                  "bbox": [x1, y1, x2, y2]}]}

``timestamp_s`` is optional; when absent it is synthesized as
``frame_index / fps``. A line is read as strict RFC 8259 JSON by
``orjson``: no ``NaN`` or ``Infinity`` literals, no number beyond the double
range, no unpaired surrogate escapes, and arrays and objects nested at most
``MAX_NESTING`` deep (checked before decoding), and valid UTF-8: a bad byte
reaches the decoder as a lone surrogate. ``obj_to_frame`` checks the shape
and the number types and builds each person's skeleton once, with its
``passes_whole`` verdict; ``types.validate_frame`` checks the rest. Frames
are written by ``json.dumps``. Any line that is not a frame raises
``MalformedRecord``.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterable, Iterator, Union

import numpy as np
import orjson

from .types import FrameRecord, MalformedRecord, check_shape, trusted_skeleton
from .types import validate_stream, values_pass_whole

PathOrFile = Union[str, IO[str]]

# orjson before 3.9.15 recurses without a bound and can overflow the native
# stack on a deeply nested line, so nesting is checked before it decodes.
# A frame nests 5 deep; 1024 is the bound later orjson releases enforce.
MAX_NESTING = 1024

# a JSON string, running to the end of the line if it is never closed, so
# the match never fails and stripping strings stays linear
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)


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
            xy, conf, bbox = tuple(xy), tuple(conf), tuple(p["bbox"])
            check_shape(xy, conf, bbox)
            if values_pass_whole(xy, conf, bbox):
                skel = trusted_skeleton(xy, conf, bbox, True)
            else:
                # integers become floats, anything else that is not a number
                # raises; validate_frame then checks the values one by one
                skel = trusted_skeleton(
                    tuple(_numbers(xy, "a keypoint value")),
                    tuple(_numbers(conf, "a keypoint value")),
                    tuple(_numbers(bbox, "a bbox value")),
                    False,
                )
            persons.append((p["track_id"], skel))
    except MalformedRecord:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecord(f"bad frame object: {exc}") from exc
    return FrameRecord(frame_index=frame_index, timestamp=timestamp, persons=tuple(persons))


def frame_to_line(record: FrameRecord) -> str:
    return json.dumps(frame_to_obj(record), separators=(",", ":"))


def _too_deeply_nested(line: str) -> bool:
    raw = np.frombuffer(line.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    # "[" and "{" differ only in bit 5, so one pass counts both
    if np.count_nonzero((raw | 32) == ord("{")) <= MAX_NESTING:
        return False  # too few brackets, even counting those inside strings
    outside = _STRING.sub("", line).encode("utf-8", "surrogatepass")
    folded = np.frombuffer(outside, dtype=np.uint8) | 32
    brackets = folded[np.flatnonzero((folded == ord("{")) | (folded == ord("}")))]
    # the running depth at each bracket outside strings, where alone it changes
    return int(np.cumsum(np.where(brackets == ord("{"), 1, -1)).max(initial=0)) > MAX_NESTING


def line_to_frame(line: str, fps: float = 30.0) -> FrameRecord:
    if _too_deeply_nested(line):
        raise MalformedRecord(f"invalid JSON line: nested deeper than {MAX_NESTING} levels")
    try:
        # orjson parses every finite float to the same double as json.loads;
        # it rejects NaN, Infinity, out-of-range numbers and lone surrogates,
        # and turns an integer outside 64 bits into a float
        obj = orjson.loads(line)
    except orjson.JSONDecodeError as exc:
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
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            yield from iter_stream(fh, fps=fps)
        return
    for line in source:
        line = line.strip()
        if line:
            yield line_to_frame(line, fps=fps)


def read_stream(source: PathOrFile, fps: float = 30.0) -> list[FrameRecord]:
    """All frames of a stream, parsed and validated; raises MalformedRecord."""
    return validate_stream(list(iter_stream(source, fps=fps)))
