"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import importlib.util
import json
import re
import struct
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from alarm_reference import reference_alarms
from conftest import (
    by_name,
    classified_windows,
    random_segment,
    random_track,
    run_alarm,
    run_engine,
    skeleton_from_keypoints,
    static_skeleton,
    with_bystander,
    without_person,
)
from feature_reference import reference_segment_features
from forest_reference import serialize
from ingest_reference import FULL_SCHEMA_JOINTS, smooth_track
from snatchdet.config import PipelineConfig
from snatchdet.features import (
    SegmentTooShort,
    extract_segment,
    full_schema,
    iou,
    pair_segment,
)
from snatchdet.forest import (
    Dataset,
    ForestConfig,
    balanced_weights,
    predict,
    predict_probability,
    train,
)
from snatchdet.experiment import binary_metrics, split_clips, window_dataset
from snatchdet.pipeline import (
    StreamEngine,
    TrackWindows,
    extract_windows,
    order_roles,
    pair_key_str,
)
from snatchdet.preprocess import SkeletonSmoother
from snatchdet.selection import pca_project, select_top_k
from snatchdet.synth import ScenarioSpec, generate, generate_corpus
from snatchdet.temporal import HysteresisConfig
from snatchdet.types import FrameRecord, Keypoint, Skeleton, Track, track_order, validate_stream
from test_forest import exhaustive_best_split, root_split
from track_reference import build_tracks, prediction_positions, reference_pairs, reference_windows


ROOT = Path(__file__).resolve().parents[1]


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared end-to-end artifacts (built once; criterion 6 asserts their timing)


@pytest.fixture(scope="module")
def e2e():
    cfg = PipelineConfig()
    schema = full_schema()
    started = time.perf_counter()

    clips = generate_corpus(n_per_class=60, seed=1234, duration=6.0, noise_sigma=1.5)
    # whole clips are held out: no clip has windows on both sides
    train_clips, holdout_clips = split_clips(clips, holdout_fraction=0.3, seed=1234)
    train_set = window_dataset(train_clips, cfg, schema)
    holdout = window_dataset(holdout_clips, cfg, schema)

    full_model = train(train_set, ForestConfig(n_trees=500, seed=42))
    selected = select_top_k(schema, full_model.importances, k=10)
    reduced_train = train_set.select_features(selected.schema.names)
    reduced_holdout = holdout.select_features(selected.schema.names)
    model = train(reduced_train, ForestConfig(n_trees=500, seed=42))

    predictions = [predict(model, row)[0] for row in reduced_holdout.X]
    metrics = binary_metrics(reduced_holdout.y.tolist(), predictions)
    elapsed = time.perf_counter() - started

    return {
        "cfg": cfg,
        "schema": schema,
        "model": model,
        "selected": selected,
        "metrics": metrics,
        "elapsed": elapsed,
        "holdout_size": len(reduced_holdout),
        "holdout_positives": int(reduced_holdout.y.sum()),
        "holdout_clips": len(holdout_clips),
        "train_size": len(reduced_train),
        "shared_clips": {c.clip_id for c in train_clips} & {c.clip_id for c in holdout_clips},
    }


# ---------------------------------------------------------------------------
# criterion: EMA closed form


def test_ema_closed_form():
    # a SkeletonSmoother of the full schema's joints whose input moves the
    # nose x and the bbox x1 through each sequence while every other value
    # holds still
    base = static_skeleton()
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        alpha = float(rng.uniform(0.01, 0.99))
        xs = rng.uniform(-100.0, 100.0, size=int(rng.integers(1, 101)))
        smoother = SkeletonSmoother(alpha, full_schema().joints)
        for x in xs.tolist():
            out = smoother.step(Skeleton((x,) + base.xy[1:], base.conf, (x,) + base.bbox[1:]))
        t = len(xs) - 1
        closed = (1 - alpha) ** t * xs[0]
        for k in range(t):
            closed += alpha * (1 - alpha) ** k * xs[t - k]
        worst = max(worst, abs(out.xy[0] - closed), abs(out.bbox[0] - closed))
    elapsed = time.perf_counter() - started
    report(
        "EMA closed form: 1000 random cases within 1e-9, < 1 s",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion: feature oracle equivalence + invariances


def test_feature_oracle_equivalence():
    schema = full_schema()
    rng = np.random.default_rng(202)
    mismatched = []
    for trial in range(200):
        n = int(rng.integers(5, 21))
        seg = random_segment(rng, n, dropout=float(rng.uniform(0.0, 0.25)))
        got = by_name(schema, extract_segment(seg, schema))
        want = reference_segment_features(seg)
        for name in schema.names:
            # bit for bit: != would take 0.0 and -0.0 for equal
            if struct.pack("<d", got[name]) != struct.pack("<d", want[name]):
                mismatched.append((trial, name, got[name], want[name]))
    report(
        "Feature oracle: 200 random segments match straight-line reference bit for bit",
        not mismatched,
        f"{len(mismatched)} mismatches" if mismatched else "all exact",
    )


def _transform_track(track, k=1.0, cx=0.0, cy=0.0):
    out = []
    for skel in track.skeletons:
        kps = tuple(
            Keypoint(kp.x * k + cx, kp.y * k + cy, kp.confidence) for kp in skel.keypoints
        )
        bbox = (
            skel.bbox[0] * k + cx,
            skel.bbox[1] * k + cy,
            skel.bbox[2] * k + cx,
            skel.bbox[3] * k + cy,
        )
        out.append(skeleton_from_keypoints(kps, bbox))
    return Track(track.track_id, list(track.timestamps), out)


def test_feature_scale_translation_invariance():
    schema = full_schema()
    alpha = 0.6
    rng = np.random.default_rng(303)

    def extract_raw(raw_a, raw_b):
        seg = pair_segment(smooth_track(raw_a, alpha), smooth_track(raw_b, alpha), fps=10.0)
        return by_name(schema, extract_segment(seg, schema))

    worst = 0.0
    checked = 0
    for scene in range(10):
        raw_a = random_track(rng, "1", 12, start=(220.0, 220.0), dropout=0.1)
        raw_b = random_track(rng, "2", 12, start=(340.0, 200.0), dropout=0.1)
        base = extract_raw(raw_a, raw_b)
        for _ in range(10):
            k = float(rng.uniform(0.2, 25.0))
            cx = float(rng.uniform(-2000.0, 2000.0))
            cy = float(rng.uniform(-2000.0, 2000.0))
            moved = extract_raw(
                _transform_track(raw_a, k, cx, cy), _transform_track(raw_b, k, cx, cy)
            )
            checked += 1
            for name in schema.names:
                worst = max(worst, abs(moved[name] - base[name]))
    report(
        "Feature invariance: 100 random rescalings/translations within 1e-6",
        worst <= 1e-6 and checked == 100,
        f"worst {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion: IoU against a rasterization oracle


def test_iou_rasterization_oracle():
    rng = np.random.default_rng(404)
    snap = 8.0  # box corners on a 1/8 grid, raster cells of 1/16
    worst = 0.0
    for _ in range(1000):
        a = np.sort(rng.integers(0, 81, size=4)) / snap
        b = np.sort(rng.integers(0, 81, size=4)) / snap
        box_a = (a[0], a[1], a[2], a[3])
        box_b = (b[0], b[1], b[2], b[3])

        x_lo = min(box_a[0], box_b[0])
        y_lo = min(box_a[1], box_b[1])
        x_hi = max(box_a[2], box_b[2])
        y_hi = max(box_a[3], box_b[3])
        nx = max(1, int(round((x_hi - x_lo) * 2 * snap)))
        ny = max(1, int(round((y_hi - y_lo) * 2 * snap)))
        xs = x_lo + (np.arange(nx) + 0.5) * (x_hi - x_lo) / nx if x_hi > x_lo else np.array([x_lo])
        ys = y_lo + (np.arange(ny) + 0.5) * (y_hi - y_lo) / ny if y_hi > y_lo else np.array([y_lo])
        gx, gy = np.meshgrid(xs, ys)
        in_a = (gx > box_a[0]) & (gx < box_a[2]) & (gy > box_a[1]) & (gy < box_a[3])
        in_b = (gx > box_b[0]) & (gx < box_b[2]) & (gy > box_b[1]) & (gy < box_b[3])
        union = int(np.count_nonzero(in_a | in_b))
        raster = 0.0 if union == 0 else np.count_nonzero(in_a & in_b) / union

        worst = max(worst, abs(iou(box_a, box_b) - raster))
    report(
        "IoU: 1000 random box pairs within 1e-3 of the raster oracle",
        worst <= 1e-3,
        f"worst {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion: hysteresis exhaustive equivalence


def test_hysteresis_exhaustive():
    sequences_by_length = {
        length: [[(bits >> i) & 1 for i in range(length)] for bits in range(2**length)]
        for length in range(1, 13)
    }
    configs = [
        HysteresisConfig(window=w, n_on=n_on, n_off=n_off)
        for w in range(2, 7)
        for n_on in range(2, w + 1)
        for n_off in range(1, n_on)
    ]
    checked = 0
    for cfg in configs:
        for length, sequences in sequences_by_length.items():
            for seq in sequences:
                states, events = run_alarm(seq, cfg)
                # brute force with from-scratch window sums
                s = 0
                ref_states = []
                ref_events = []
                for t in range(length):
                    c = sum(seq[max(0, t - cfg.window + 1) : t + 1])
                    if s == 0 and c >= cfg.n_on:
                        s = 1
                        ref_events.append(("activated", float(t), c))
                    elif s == 1 and c <= cfg.n_off:
                        s = 0
                        ref_events.append(("deactivated", float(t), c))
                    ref_states.append(s)
                    # activation/deactivation conditions are mutually
                    # exclusive for every reachable count
                    assert not (c >= cfg.n_on and c <= cfg.n_off)
                assert states == ref_states, (cfg, seq)
                assert events == ref_events, (cfg, seq)
                kinds = [kind for kind, _, _ in events]
                assert all(a != b for a, b in zip(kinds, kinds[1:]))
                if kinds:
                    assert kinds[0] == "activated"
                checked += 1
    report(
        "Hysteresis: exhaustive streaming vs brute force, all L <= 12, W <= 6",
        True,
        f"{checked} sequence/config runs",
    )


# ---------------------------------------------------------------------------
# criterion: forest correctness and reproducibility


def test_forest_root_split_oracle():
    rng = np.random.default_rng(505)
    failures = 0
    trials = 0
    for _ in range(300):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        w0, w1 = balanced_weights(y)
        got = root_split(X, y, np.arange(d), w0, w1)
        want = exhaustive_best_split(X, y, w0, w1)
        trials += 1
        if want is None:
            failures += got is not None
        elif got is None or (got[0], got[1]) != (want[1], want[2]):
            failures += 1
    report(
        "Forest: root split equals exhaustive oracle on 300 datasets <= 12x3",
        failures == 0,
        f"{trials} datasets",
    )


def test_forest_reproducibility_and_importances(e2e):
    rng = np.random.default_rng(606)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 2, size=40)
    y[:3] = [0, 1, 0]
    data = Dataset(tuple(f"f{i}" for i in range(5)), X, y)

    run1 = serialize(train(data, ForestConfig(n_trees=64, seed=42)))
    run2 = serialize(train(data, ForestConfig(n_trees=64, seed=42)))
    model = train(data, ForestConfig(n_trees=64, seed=42))
    importance_sum = float(np.sum(model.importances))

    ok = run1 == run2 and abs(importance_sum - 1.0) <= 1e-9
    report(
        "Forest: bit-reproducible across runs (seed 42); importances sum to 1",
        ok,
        f"importance sum {importance_sum:.12f}",
    )


# ---------------------------------------------------------------------------
# criterion: end-to-end synthetic discrimination


def test_end_to_end_synthetic_f1(e2e):
    f1 = e2e["metrics"]["f1"]
    ok = f1 >= 0.90 and e2e["elapsed"] < 120.0 and not e2e["shared_clips"]
    report(
        "End to end: window F1 >= 0.90 on the windows of held-out synthetic clips, < 2 min",
        ok,
        f"F1 {f1:.3f} on {e2e['holdout_size']} held-out windows ({e2e['holdout_positives']} "
        f"positive) of {e2e['holdout_clips']} clips, "
        f"{e2e['elapsed']:.1f}s, top10={[n for n, _ in e2e['selected'].ranked]}",
    )


# ---------------------------------------------------------------------------
# criterion: streaming throughput


def test_streaming_throughput(e2e):
    clip = generate(ScenarioSpec(kind="walk_by", duration=20.0, fps=30.0, seed=777, noise_sigma=1.0))
    engine = StreamEngine(e2e["model"], e2e["cfg"])
    started = time.perf_counter()
    run_engine(engine, clip.frames)
    elapsed = time.perf_counter() - started
    rate = engine.frames_processed / elapsed
    report(
        "Throughput: cmd_stream path >= 300 frames/s single-threaded",
        rate >= 300.0,
        f"{rate:.0f} frames/s over {engine.frames_processed} frames",
    )


# ---------------------------------------------------------------------------
# criterion: PCA spectral checks


def test_pca_variance_and_reconstruction():
    rng = np.random.default_rng(808)
    worst_var = 0.0
    worst_rec = 0.0
    for _ in range(5):
        X = rng.normal(size=(50, 12)) * rng.uniform(0.1, 5.0, size=12)
        result = pca_project(X, n_components=12, standardize=False)
        variances = result.projected.var(axis=0, ddof=1)
        worst_var = max(worst_var, float(np.abs(variances - result.explained_variance).max()))
        centered = X - result.mean
        rebuilt = result.projected @ result.components
        worst_rec = max(worst_rec, float(np.abs(rebuilt - centered).max()))
    report(
        "PCA: projection variance = eigenvalues and reconstruction within 1e-6",
        worst_var <= 1e-6 and worst_rec <= 1e-6,
        f"variance err {worst_var:.2e}, reconstruction err {worst_rec:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion: online/offline equivalence


def evidence_line(pair, trigger, first_t, cfg):
    """An activation's evidence line, by the rule in docs/formats.md ("Evidence manifest")."""
    start = max(first_t, trigger - cfg.evidence_pre_s)
    end = trigger + cfg.evidence_post_s
    obj = {"pair": pair, "trigger_s": trigger, "start_s": start, "end_s": end,
           "start_frame": round(start * cfg.fps), "end_frame": round(end * cfg.fps)}
    return json.dumps(obj, separators=(",", ":"))


def offline_alerts(frames, model, cfg):
    """Recompute stream alerts from scratch with the offline primitives.

    The window decisions are recomputed offline and passed through the
    reference alarm rule (``alarm_reference``), which reads no engine code.
    Returns (alert events, windows, evidence lines); a window is (end
    position, pair, repr of p(A,B), repr of p(B,A)), with the pair key's
    first track as A. Each model input is the full row's values picked by
    the model's feature names.
    """
    frames = validate_stream(frames)
    full = full_schema()
    columns = [full.names.index(name) for name in model.feature_names]
    hcfg = cfg.hysteresis()

    decisions = {}
    windows = []
    for end, pair in reference_pairs(frames, cfg):
        a, b = sorted(pair, key=lambda track: track_order(track.track_id))
        seg = pair_segment(a, b, fps=cfg.fps)
        try:
            rows = [extract_segment(s, full) for s in (seg, seg.swapped())]
        except SegmentTooShort:
            continue
        p_ab, p_ba = (predict_probability(model, [row[c] for c in columns]) for row in rows)
        key = pair_key_str(a.track_id, b.track_id)
        windows.append((end, key, repr(p_ab), repr(p_ba)))
        yhat = 1 if max(p_ab, p_ba) >= cfg.prob_threshold else 0
        decisions[end] = (key, (a.track_id, b.track_id), yhat)

    present_at = {}
    tracks, positions = build_tracks(frames, cfg.max_gap_frames)
    for track, track_positions in zip(tracks, positions):
        for pos in track_positions:
            present_at.setdefault(pos, set()).add(track.track_id)
    strides = set(prediction_positions(len(frames), cfg.window_frames, cfg.stride_frames))
    steps = [(present_at.get(pos, set()), pos in strides, decisions.get(pos)) for pos in range(len(frames))]

    events, evidence = [], []
    transitions = reference_alarms(steps, hcfg.window, hcfg.n_on, hcfg.n_off)
    for record, (frame_transitions, _) in zip(frames, transitions):
        for key, kind, count in frame_transitions:
            events.append((key, kind, record.timestamp, count))
            if kind == "activated":
                evidence.append(evidence_line(key, record.timestamp, frames[0].timestamp, cfg))
    return events, windows, evidence


def online_alerts(frames, model, cfg):
    """Run the engine; returns (alert events, windows, evidence lines) shaped as in offline_alerts.

    A window's probabilities are computed from the segment the engine cuts
    (``classified_windows``), which also checks the engine's decision
    against them.
    """
    alerts, classified = classified_windows(StreamEngine(model, cfg), frames)
    windows = [
        (end, pair_key_str(*ids), repr(p_ab), repr(p_ba))
        for end, ids, _, (p_ab, p_ba) in classified
    ]
    events = [(a.pair, a.kind, a.timestamp, a.count) for a in alerts]
    evidence = [json.dumps(a.evidence, separators=(",", ":")) for a in alerts if a.evidence is not None]
    return events, windows, evidence


def split_id_frames():
    """A snatch clip whose person 2 is absent 30 frames, twice the default max gap."""
    frames = generate(ScenarioSpec(kind="snatch", seed=17, noise_sigma=1.0)).frames
    return without_person(frames, 2, 60, 90)


# A default-config snatch clip (seed 5) whose alarm rises at frame 96.
MEMBER_LEAVES = 130
BYSTANDER_ENTERS = 120
BYSTANDER_PAIRED = 134  # the first stride point whose closest pair is 1|9


def member_leaves_mid_alarm():
    """The snatch clip with person 2 gone from frame 130 to its end."""
    frames = generate(ScenarioSpec(kind="snatch", seed=5, noise_sigma=1.0)).frames
    return without_person(frames, 2, MEMBER_LEAVES, len(frames))


def bystander_takes_the_pair():
    """The snatch clip with a bystander 10 px beside person 1 from frame 120:
    person 2 stays, but the window's closest pair becomes 1|9."""
    frames = generate(ScenarioSpec(kind="snatch", seed=5, noise_sigma=1.0)).frames
    return without_person(with_bystander(frames, dx=10.0), 9, 0, BYSTANDER_ENTERS)


def equivalence_clips():
    """20 random clips, then one with a far bystander, one with a split id, one
    whose person 2 is absent for 3 frames (a gap inside one track key), one
    whose timestamps start at 100 s, one whose person 2 leaves mid-alarm and
    one in which a bystander takes the closest pair mid-alarm."""
    rng = np.random.default_rng(909)
    kinds = ("snatch", "walk_by", "handshake", "standing")
    for i in range(20):
        spec = ScenarioSpec(
            kind=kinds[i % 4],
            duration=6.0,
            fps=30.0,
            seed=int(rng.integers(0, 10**6)),
            noise_sigma=float(rng.uniform(0.5, 2.0)),
        )
        yield generate(spec).frames
    yield with_bystander(generate(ScenarioSpec(kind="snatch", seed=5, noise_sigma=1.0)).frames)
    yield split_id_frames()
    gap_clip = generate(ScenarioSpec(kind="snatch", seed=23, noise_sigma=1.0)).frames
    yield without_person(gap_clip, 2, 70, 73)
    late_clip = generate(ScenarioSpec(kind="snatch", seed=5, noise_sigma=1.0)).frames
    yield [FrameRecord(f.frame_index, 100.0 + f.timestamp, f.persons) for f in late_clip]
    yield member_leaves_mid_alarm()
    yield bystander_takes_the_pair()


def test_online_offline_equivalence(e2e):
    # a pre-span longer than the clips' first activations, so evidence spans clamp
    cfg = replace(e2e["cfg"], evidence_pre_s=4.0)
    model = e2e["model"]
    mismatches = 0
    total_events = 0
    total_windows = 0
    split_windows = 0
    late_clamped = 0
    for frames in equivalence_clips():
        online = online_alerts(frames, model, cfg)
        offline = offline_alerts(frames, model, cfg)
        total_events += len(offline[0])
        total_windows += len(offline[1])
        split_windows += sum(1 for w in offline[1] if "." in w[1])
        t0 = frames[0].timestamp
        late_clamped += sum(1 for line in offline[2] if t0 > 0 and json.loads(line)["start_s"] == t0)
        if online != offline:
            mismatches += 1
    report(
        "Online/offline: alert events, evidence lines and per-window probabilities identical on 26 clips",
        mismatches == 0 and split_windows > 0 and late_clamped > 0,
        f"{total_events} events ({late_clamped} evidence span clamped at a first timestamp above 0), "
        f"{total_windows} windows ({split_windows} on a split id) compared",
    )


def alert_frames(frames, model, cfg):
    """(pair, kind, frame position) of every alert the engine gives over ``frames``."""
    alerts = run_engine(StreamEngine(model, cfg), frames)
    return [(a.pair, a.kind, round(a.timestamp * cfg.fps)) for a in alerts]


# perfbench's budget for a departed pair's deactivation
DEACTIVATION_FRAMES = 15


def test_alarm_ends_when_a_member_leaves(e2e):
    alerts = alert_frames(member_leaves_mid_alarm(), e2e["model"], e2e["cfg"])
    assert [(pair, kind) for pair, kind, _ in alerts] == [("1|2", "activated"), ("1|2", "deactivated")]
    assert alerts[0][2] < MEMBER_LEAVES <= alerts[1][2] < MEMBER_LEAVES + DEACTIVATION_FRAMES


def test_alarm_ends_when_a_bystander_takes_the_pair(e2e):
    alerts = alert_frames(bystander_takes_the_pair(), e2e["model"], e2e["cfg"])
    old_pair = [(kind, pos) for pair, kind, pos in alerts if pair == "1|2"]
    assert [kind for kind, _ in old_pair] == ["activated", "deactivated"]
    assert old_pair[0][1] < BYSTANDER_ENTERS
    assert BYSTANDER_PAIRED <= old_pair[1][1] < BYSTANDER_PAIRED + DEACTIVATION_FRAMES
    assert {pair for pair, _, _ in alerts} == {"1|2", "1|9"}


def test_engine_forgets_every_pair_after_each_crowd_pass(e2e):
    """Three passes over the output digest's crowd stream (four encounters,
    six bystanders whose ids change every 90 frames), through one engine:
    after each, the engine knows no pair."""
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    crowd = digest.encounter_stream(seed=1, rounds=1, bystanders=6)
    engine = StreamEngine(e2e["model"], e2e["cfg"])
    n = len(crowd)
    alerts, held = 0, []
    for k in range(3):
        shifted = [FrameRecord(f.frame_index + k * n, f.timestamp + k * n / 30.0, f.persons) for f in crowd]
        alerts += len(run_engine(engine, shifted))
        held.append(len(engine._pairs))
    assert alerts and held == [0, 0, 0]


def test_window_state_bounded_under_id_churn(e2e):
    """Two people whose tracker ids change every 90 frames, 45 frames apart,
    for 3,000 frames: the engine holds the track keys of the last window,
    not every id seen, and after every frame no stored series is longer than
    its track's samples and every pair record names two keys it holds, so a
    partner that leaves takes its records along."""
    cfg = e2e["cfg"]
    clip = generate(ScenarioSpec(kind="handshake", seed=3, duration=10.0, noise_sigma=1.0)).frames
    frames = []
    for pos in range(3000):
        persons = clip[pos % len(clip)].persons
        ids = [2 * ((pos + 45 * i) // 90) + 1 + i for i in range(len(persons))]
        frames.append(FrameRecord(pos, pos / 30.0, tuple((tid, s) for tid, (_, s) in zip(ids, persons))))
    engine = StreamEngine(e2e["model"], cfg)
    stored = paired = 0
    for record in frames:
        engine.process(record)
        buffers = engine._buffers
        for track in engine._windows.tracks():
            assert all(len(s) <= len(track) for s in (track.centers, *track.steps.values()))
            assert set(track.pairs) <= buffers
            stored += bool(track.steps)
            paired += bool(track.pairs)
    # ids never return, so each raw id is one track key
    last_window = {str(tid) for f in frames[-cfg.window_frames:] for tid, _ in f.persons}
    assert engine.frames_processed == 3000
    assert len(engine._buffers) <= len(last_window)
    assert stored and paired


def test_extract_windows_matches_reference_on_split_ids():
    cfg = PipelineConfig()
    schema = full_schema()
    frames = split_id_frames()
    rows = extract_windows(frames, cfg, schema, stream_id="s")
    expected = []
    for end, (a, b) in reference_pairs(frames, cfg):
        seg = pair_segment(*order_roles(a, b, cfg.window_s), fps=cfg.fps)
        sid = f"s#{pair_key_str(a.track_id, b.track_id)}#{end}"
        expected.append((sid, repr(extract_segment(seg, schema))))
    assert [(sid, repr(vector)) for sid, vector in rows] == expected
    assert any("#1|2.1#" in sid for sid, _ in rows)


def absent_longer_than_a_window():
    """A snatch clip with a far bystander whose person 2 is absent 75 frames:
    longer than the 60-frame window, within a 90-frame max gap."""
    frames = generate(ScenarioSpec(kind="snatch", seed=17, duration=8.0, noise_sigma=1.0)).frames
    return without_person(with_bystander(frames), 2, 60, 135)


STORE_STREAMS = {
    "split_ids": (split_id_frames, PipelineConfig()),
    "key_empties_and_returns": (absent_longer_than_a_window, PipelineConfig(max_gap_frames=90)),
}


def samples(track):
    return track.timestamps, [(s.xy, s.conf, s.bbox) for s in track.skeletons]


@pytest.mark.parametrize("name", STORE_STREAMS)
def test_window_store_matches_reference(name):
    """At every stride point the store holds the oracle's non-empty window
    tracks, key by key, with the full schema's joints smoothed and the
    others as detected, and selects the oracle's pair."""
    build, cfg = STORE_STREAMS[name]
    frames = build()
    reference = dict(reference_windows(frames, cfg, FULL_SCHEMA_JOINTS))
    want_pairs = {end: {a.track_id, b.track_id} for end, (a, b) in reference_pairs(frames, cfg)}
    store = TrackWindows(cfg, full_schema().joints)
    got_pairs = {}
    stored = []  # the keys in the store at each stride point
    for record in frames:
        _, pair = store.advance(record)
        if pair is not None:
            got_pairs[store.pos] = {pair[0].track_id, pair[1].track_id}
        if store.pos in reference:
            want = {w.track_id: samples(w) for w in reference[store.pos] if len(w)}
            assert {t.track_id: samples(t) for t in store.tracks()} == want, store.pos
            stored.append(set(want))
    assert len(stored) == len(reference)
    assert got_pairs == want_pairs and got_pairs
    split = any("2.1" in keys for keys in stored)
    if name == "split_ids":
        assert split
    else:
        # "2" empties out of the store, then returns under the same key
        held = "".join("1" if "2" in keys else "0" for keys in stored)
        assert not split and re.search("1+0+1", held)


def short_entry_frames():
    """Persons 1 and 2 stand 300 px apart for 240 frames. A third person stands
    near person 1 for the last k frames before a stride point and leaves: id 3
    for 4 frames before position 89, id 4 for 5 before 134 (both 50 px away)
    and id 5 for 6 before 179 (40 px away, nearer than id 4, still in that
    window). Each is person 1's closest partner once it has the shortest
    segment's 5 frames in the window."""
    cfg = PipelineConfig()
    entries = {3: (89, 4, 150.0), 4: (134, 5, 150.0), 5: (179, 6, 140.0)}
    frames = []
    for pos in range(240):
        persons = [(1, static_skeleton((100.0, 100.0))), (2, static_skeleton((400.0, 100.0)))]
        for tid, (end, k, x) in entries.items():
            if end - k < pos <= end:
                persons.append((tid, static_skeleton((x, 100.0))))
        frames.append(FrameRecord(pos, pos / cfg.fps, tuple(persons)))
    return frames


def test_window_picks_match_reference_at_the_shortest_segment():
    """A track that enters the window 5 frames before a stride point is a
    candidate there, one that enters 4 frames before is not: the store's
    minimum segment is the oracle's."""
    cfg = PipelineConfig()
    frames = short_entry_frames()
    store = TrackWindows(cfg, full_schema().joints)
    got = {}
    for record in frames:
        _, pair = store.advance(record)
        if pair is not None:
            got[store.pos] = {pair[0].track_id, pair[1].track_id}
    want = {end: {a.track_id, b.track_id} for end, (a, b) in reference_pairs(frames, cfg)}
    assert got == want
    # 4 frames: not yet a candidate; 5 and 6 frames: the closer pair
    assert (got[89], got[134], got[179]) == ({"1", "2"}, {"1", "4"}, {"1", "5"})
