"""``pipeline.step_pairs`` against the reference alarm rule (``tests/alarm_reference.py``).

Every frame sequence of a small world is checked exhaustively: three track
keys, the two pairs ``1|2`` and ``1|3``, a stride point on every other
frame with a decision of none, 0 or 1 for either pair, each key present or
absent, at every hysteresis setting with W <= 3. Hypothesis then draws
longer sequences over more pairs.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from alarm_reference import reference_alarms
from snatchdet.pipeline import step_pairs
from snatchdet.temporal import HysteresisConfig

KEYS = ("1", "2", "3")
PAIRS = {"1|2": ("1", "2"), "1|3": ("1", "3")}
PRESENCE = [
    {key for key, bit in zip(KEYS, bits) if bit} for bits in itertools.product((0, 1), repeat=len(KEYS))
]
DECISIONS = [None] + [(key, members, y) for key, members in PAIRS.items() for y in (0, 1)]
SMALL_CONFIGS = [
    HysteresisConfig(window=w, n_on=n_on, n_off=n_off)
    for w in (2, 3)
    for n_on in range(2, w + 1)
    for n_off in range(1, n_on)
]


def run_step_pairs(frames, hcfg):
    """Per frame, ``step_pairs``'s transitions and the known pair keys after it."""
    pairs = {}
    out = []
    for present, stride, decision in frames:
        out.append((step_pairs(pairs, present, stride, decision, hcfg), list(pairs)))
    return out


def check(frames, hcfg):
    want = reference_alarms(frames, hcfg.window, hcfg.n_on, hcfg.n_off)
    assert run_step_pairs(frames, hcfg) == want, (hcfg, frames)
    return want


def test_every_short_sequence_matches_the_reference():
    """Four frames, stride points at the first and third: 102,400 sequences per setting."""
    stride_frame = [(present, True, d) for present in PRESENCE for d in DECISIONS]
    other_frame = [(present, False, None) for present in PRESENCE]
    kinds = set()
    for hcfg in SMALL_CONFIGS:
        for frames in itertools.product(stride_frame, other_frame, stride_frame, other_frame):
            for transitions, _ in check(frames, hcfg):
                kinds.update(kind for _, kind, _ in transitions)
    assert kinds == {"activated", "deactivated"}


@st.composite
def frame_sequences(draw):
    n_keys = draw(st.integers(2, 4))
    keys = [str(k) for k in range(1, n_keys + 1)]
    pairs = [(f"{a}|{b}", (a, b)) for a, b in itertools.combinations(keys, 2)]
    stride = draw(st.integers(1, 4))
    first = draw(st.integers(0, 3))
    frames = []
    for pos in range(draw(st.integers(1, 40))):
        present = {key for key in keys if draw(st.booleans())}
        at_stride = pos >= first and (pos - first) % stride == 0
        decision = None
        if at_stride and draw(st.booleans()):
            key, members = draw(st.sampled_from(pairs))
            decision = (key, members, draw(st.integers(0, 1)))
        frames.append((present, at_stride, decision))
    return frames


@st.composite
def hysteresis_configs(draw):
    w = draw(st.integers(2, 8))
    n_on = draw(st.integers(2, w))
    return HysteresisConfig(window=w, n_on=n_on, n_off=draw(st.integers(1, n_on - 1)))


@settings(max_examples=300, deadline=None)
@given(frames=frame_sequences(), hcfg=hysteresis_configs())
def test_longer_sequences_match_the_reference(frames, hcfg):
    check(frames, hcfg)
