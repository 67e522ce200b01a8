"""Independent straight-line recomputation of every segment feature.

This is the oracle for the feature-extraction tests: one long pass of
plain loops that only shares the data types with the package. Any
structural shortcut from the package's feature modules is deliberately
avoided so the two implementations can disagree.

Every joint is read as a valid position or None (``_kp``, through the
skeleton's ``keypoints``), and minima and maxima are taken over lists of the
valid joints' values. The per-skeleton and per-row functions below
(``elbow_angle``, ``arm_extension``, ``facing_direction``, ``wrist_step``,
``relative_step``, ``hand_reach``, ``facing_cosines``) are that long pass's
steps, and the references of the package's geometry, which reads the
joints inline.

A per-row value that is NaN or an infinity is missing (``_rule``), applied
to every per-row series as it is built, before any difference, share, peak
or statistic reads it; a mean or median whose sum of finite values
overflows adds their shares instead (``_ref_mean``, ``_ref_stat``).
"""

from __future__ import annotations

import math

VALID = 0.3
STATS = ("mean", "median", "min", "max", "p95")
# the thresholds of the feature definitions, stated here and not read from
# the package, so a changed constant there shows as a disagreement
FAST_HAND = 1.5  # torso heights per second
ELBOW_FLEX = 120.0  # degrees
CLOSE_HAND = 0.4  # torso heights
HAND_TOWARD = 0.7  # cosine


def _sum_left_to_right(values):
    # sum() compensates float rounding from Python 3.12; the features do not
    total = 0.0
    for v in values:
        total += v
    return total


def _finite(value):
    # NaN fails both comparisons
    return value is not None and -math.inf < value < math.inf


def _rule(series):
    """A per-row value that is NaN or an infinity is missing, like one of invalid joints."""
    return [v if _finite(v) else None for v in series]


def _ref_mean(values):
    total = _sum_left_to_right(values)
    if _finite(total):
        return total / len(values)
    # the sum of finite values overflowed: add each value's share instead
    return _sum_left_to_right([v / len(values) for v in values])


def _ref_stat(values, stat):
    """The statistic of a series' present values; None when none is finite."""
    values = [v for v in values if _finite(v)]
    if not values:
        return None
    if stat == "mean":
        return _ref_mean(values)
    if stat == "median":
        s = sorted(values)
        n = len(s)
        if n % 2 == 1:
            return s[n // 2]
        mid = (s[n // 2 - 1] + s[n // 2]) / 2.0
        return mid if _finite(mid) else s[n // 2 - 1] / 2.0 + s[n // 2] / 2.0
    if stat == "min":
        return min(values)
    if stat == "max":
        return max(values)
    if stat == "p95":
        s = sorted(values)
        return s[math.ceil(0.95 * len(s)) - 1]
    raise AssertionError(stat)


def _sentinel(name):
    base = name
    if base.startswith(("A_", "B_")):
        base = base[2:]
    for stat in STATS:
        if base.endswith("_" + stat):
            base = base[: -len(stat) - 1]
            break
    if base in ("distance", "handToTorso", "handToHip", "postContactSepMean"):
        return 10.0
    return 0.0


def _kp(skel, idx):
    kp = skel.keypoints[idx]
    if kp.confidence >= VALID:
        return (kp.x, kp.y)
    return None


def _mid(skel, i, j):
    a, b = _kp(skel, i), _kp(skel, j)
    if a is not None and b is not None:
        return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    if a is not None:
        return a
    if b is not None:
        return b
    return None


def _center(skel):
    sh = _mid(skel, 5, 6)
    hip = _mid(skel, 11, 12)
    if sh is not None and hip is not None:
        return ((sh[0] + hip[0]) / 2.0, (sh[1] + hip[1]) / 2.0)
    if sh is not None:
        return sh
    return hip


def _torso(skel):
    sh = _mid(skel, 5, 6)
    hip = _mid(skel, 11, 12)
    if sh is None or hip is None:
        return None
    th = math.sqrt((sh[0] - hip[0]) ** 2 + (sh[1] - hip[1]) ** 2)
    eff = max(th, 0.05 * (skel.bbox[3] - skel.bbox[1]))
    if eff <= 0.0:
        return None
    return eff


def _d(a, b):
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)


def facing_direction(skel):
    nose = _kp(skel, 0)
    if nose is None:
        return None
    el, er = _kp(skel, 3), _kp(skel, 4)
    if el is not None and er is not None:
        mid = ((el[0] + er[0]) / 2.0, (el[1] + er[1]) / 2.0)
        fx, fy = nose[0] - mid[0], nose[1] - mid[1]
    else:
        sl, sr = _kp(skel, 5), _kp(skel, 6)
        if sl is None or sr is None:
            return None
        lx, ly = sr[0] - sl[0], sr[1] - sl[1]
        nx, ny = -ly, lx
        mid = ((sl[0] + sr[0]) / 2.0, (sl[1] + sr[1]) / 2.0)
        side = nx * (nose[0] - mid[0]) + ny * (nose[1] - mid[1])
        if side == 0.0:
            return None
        if side < 0.0:
            nx, ny = -nx, -ny
        fx, fy = nx, ny
    norm = math.sqrt(fx**2 + fy**2)
    if norm == 0.0:
        return None
    return (fx / norm, fy / norm)


def _clamp(c):
    return min(1.0, max(-1.0, c))


def elbow_angle(skel, shoulder, elbow, wrist):
    """The interior angle at ``elbow`` in degrees; None when a joint is invalid
    or either limb has zero length."""
    sp, ep, wp = _kp(skel, shoulder), _kp(skel, elbow), _kp(skel, wrist)
    if sp is None or ep is None or wp is None:
        return None
    ux, uy = sp[0] - ep[0], sp[1] - ep[1]
    wx, wy = wp[0] - ep[0], wp[1] - ep[1]
    nu = math.sqrt(ux**2 + uy**2)
    nw = math.sqrt(wx**2 + wy**2)
    if nu == 0.0 or nw == 0.0:
        return None
    return math.degrees(math.acos(_clamp((ux * wx + uy * wy) / (nu * nw))))


def arm_extension(skel):
    """The longer valid wrist-to-shoulder distance, in torso heights."""
    th = _torso(skel)
    if th is None:
        return None
    reach = []
    for sh, w in ((5, 9), (6, 10)):
        sp, wp = _kp(skel, sh), _kp(skel, w)
        if sp is not None and wp is not None:
            reach.append(_d(wp, sp) / th)
    return max(reach) if reach else None


def wrist_step(prev, cur, dt):
    """(speed in torso heights/s, vx, vy, joint) of the faster wrist valid in
    both skeletons, the left one on a tie; None when there is none."""
    th = _torso(cur)
    if dt <= 0 or th is None:
        return None
    best = None
    for w in (9, 10):
        c, p = _kp(cur, w), _kp(prev, w)
        if c is None or p is None:
            continue
        vx = c[0] - p[0]
        vy = c[1] - p[1]
        s = math.sqrt(vx**2 + vy**2) / dt / th
        if best is None or s > best[0]:
            best = (s, vx, vy, w)
    return best


def _mean_torso(a, b):
    ta, tb = _torso(a), _torso(b)
    return None if ta is None or tb is None else (ta + tb) / 2.0


def relative_step(pa, pb, a, b, dt):
    """(relative center speed, hand-toward cosine) from row (pa, pb) to row (a, b)."""
    ca, cb, pca, pcb = _center(a), _center(b), _center(pa), _center(pb)
    th = _mean_torso(a, b)
    speed = None
    if not (ca is None or cb is None or pca is None or pcb is None or th is None or dt <= 0):
        rx = (ca[0] - cb[0]) - (pca[0] - pcb[0])
        ry = (ca[1] - cb[1]) - (pca[1] - pcb[1])
        speed = math.sqrt(rx**2 + ry**2) / dt / th
    step = wrist_step(pa, a, dt)
    if cb is None or step is None:
        return speed, None
    _, vx, vy, w = step
    wpos = _kp(a, w)
    nv = math.sqrt(vx**2 + vy**2)
    if nv == 0.0:
        return speed, None
    dx = cb[0] - wpos[0]
    dy = cb[1] - wpos[1]
    nd = math.sqrt(dx**2 + dy**2)
    if nd == 0.0:
        return speed, None
    return speed, _clamp((vx * dx + vy * dy) / (nv * nd))


def hand_reach(a, b):
    """A's nearer valid wrist to B's center and to B's hip midpoint, in B's torso heights."""
    th = _torso(b)
    if th is None:
        return None, None
    wrists = [p for p in (_kp(a, 9), _kp(a, 10)) if p is not None]
    if not wrists:
        return None, None
    cb, hip = _center(b), _mid(b, 11, 12)
    to_torso = None if cb is None else min(_d(w, cb) / th for w in wrists)
    to_hip = None if hip is None else min(_d(w, hip) / th for w in wrists)
    return to_torso, to_hip


def facing_cosines(a, b):
    """Cosines of A's and B's facing directions with the A-to-B direction."""
    ca, cb = _center(a), _center(b)
    if ca is None or cb is None:
        return None, None
    ux, uy = cb[0] - ca[0], cb[1] - ca[1]
    nu = math.sqrt(ux**2 + uy**2)
    if nu == 0.0:
        return None, None
    fa, fb = facing_direction(a), facing_direction(b)
    return (
        None if fa is None else _clamp((fa[0] * ux + fa[1] * uy) / nu),
        None if fb is None else _clamp((fb[0] * ux + fb[1] * uy) / nu),
    )


def _pct(values, predicate):
    count = total = 0
    for v in values:
        if v is None:
            continue
        total += 1
        if predicate(v):
            count += 1
    if total == 0:
        return None
    return 100.0 * count / total


def _diff(times, values):
    out = [None] * len(values)
    for i in range(1, len(values)):
        if values[i] is not None and values[i - 1] is not None:
            dt = times[i] - times[i - 1]
            if dt > 0:
                out[i] = (values[i] - values[i - 1]) / dt
    return out


def _argmax(values):
    best_i, best_v = None, -math.inf
    for i, v in enumerate(values):
        if v is not None and v > best_v:
            best_i, best_v = i, v
    return best_i


def _argmin(values):
    best_i, best_v = None, math.inf
    for i, v in enumerate(values):
        if v is not None and v < best_v:
            best_i, best_v = i, v
    return best_i


def _wrist_speeds(times, skels):
    """The faster wrist's speed at each row; None at row 0 and without one."""
    speeds = [None] * len(times)
    for i in range(1, len(times)):
        step = wrist_step(skels[i - 1], skels[i], times[i] - times[i - 1])
        if step is not None:
            speeds[i] = step[0]
    return speeds


def _person_features(times, skels, fps, aggressor):
    """Individual feature aggregates for one track of the segment."""
    n = len(times)
    out = {}
    centers = [_center(s) for s in skels]
    torsos = [_torso(s) for s in skels]

    speed = [None] * n
    for i in range(1, n):
        dt = times[i] - times[i - 1]
        if centers[i] is not None and centers[i - 1] is not None and torsos[i] is not None and dt > 0:
            speed[i] = _d(centers[i], centers[i - 1]) / dt / torsos[i]
    speed = _rule(speed)
    accel = _rule(_diff(times, speed))

    wrist_speed = _rule(_wrist_speeds(times, skels))
    hand_accel = _rule(_diff(times, wrist_speed))
    hand_jerk = _rule(_diff(times, hand_accel))

    ext = _rule([arm_extension(s) for s in skels])
    ang_l = [elbow_angle(s, 5, 7, 9) for s in skels]
    ang_r = [elbow_angle(s, 6, 8, 10) for s in skels]

    areas = [(s.bbox[2] - s.bbox[0]) * (s.bbox[3] - s.bbox[1]) for s in skels]
    box_rate = [None] * n
    for i in range(1, n):
        dt = times[i] - times[i - 1]
        # a previous area whose product with dt underflows to 0.0 counts as zero
        if dt > 0 and areas[i - 1] * dt != 0.0:
            box_rate[i] = (areas[i] - areas[i - 1]) / (areas[i - 1] * dt)
    box_rate = _rule(box_rate)

    prefix = "A_" if aggressor else "B_"
    series = [("velocity", speed), ("acceleration", accel), ("handVelocity", wrist_speed),
              ("armExtension", ext), ("elbowAngleL", ang_l), ("elbowAngleR", ang_r),
              ("bboxAreaRate", box_rate)]
    if aggressor:
        series.insert(3, ("handAcceleration", hand_accel))
    for base, vals in series:
        for stat in STATS:
            out[prefix + base + "_" + stat] = _ref_stat(vals, stat)

    out[prefix + "fastHandPct"] = _pct(wrist_speed, lambda v: v > FAST_HAND)
    peak = _argmax(wrist_speed)
    out[prefix + "timeToPeakHandVel"] = None if peak is None else float(peak)
    if aggressor:
        jerks = [v for v in hand_jerk if v is not None]
        out[prefix + "handJerkMin"] = min(jerks) if jerks else None
        ext_peak = _argmax(ext)
        out[prefix + "timeToPeakArmExt"] = None if ext_peak is None else float(ext_peak)
        retraction = None
        if ext_peak is not None:
            target = ext_peak + round(0.2 * fps)
            if target < n and ext[target] is not None:
                retraction = ext[ext_peak] - ext[target]
        out[prefix + "armRetraction0p2s"] = retraction
    out[prefix + "elbowFlexPctL"] = _pct(ang_l, lambda a: a < ELBOW_FLEX)
    out[prefix + "elbowFlexPctR"] = _pct(ang_r, lambda a: a < ELBOW_FLEX)
    return out


def reference_segment_features(pair):
    """All schema aggregates of a pair segment, sentinel-filled."""
    times = pair.aggressor.timestamps
    skels_a = pair.aggressor.skeletons
    skels_b = pair.victim.skeletons
    fps = pair.fps
    n = len(times)

    out = {}
    out.update(_person_features(times, skels_a, fps, aggressor=True))
    out.update(_person_features(times, skels_b, fps, aggressor=False))

    centers_a = [_center(s) for s in skels_a]
    centers_b = [_center(s) for s in skels_b]
    torsos_a = [_torso(s) for s in skels_a]
    torsos_b = [_torso(s) for s in skels_b]
    mean_th = [
        None if ta is None or tb is None else (ta + tb) / 2.0
        for ta, tb in zip(torsos_a, torsos_b)
    ]

    distance = [None] * n
    for i in range(n):
        if centers_a[i] is not None and centers_b[i] is not None and mean_th[i] is not None:
            distance[i] = _d(centers_a[i], centers_b[i]) / mean_th[i]
    distance = _rule(distance)
    rate = _rule(_diff(times, distance))

    ious = []
    for sa, sb in zip(skels_a, skels_b):
        ba, bb = sa.bbox, sb.bbox
        ix1, iy1 = max(ba[0], bb[0]), max(ba[1], bb[1])
        ix2, iy2 = min(ba[2], bb[2]), min(ba[3], bb[3])
        iw, ih = ix2 - ix1, iy2 - iy1
        inter = iw * ih if iw > 0 and ih > 0 else 0.0
        area_a = (ba[2] - ba[0]) * (ba[3] - ba[1])
        area_b = (bb[2] - bb[0]) * (bb[3] - bb[1])
        union = area_a + area_b - inter
        ious.append(0.0 if union <= 0 else inter / union)
    iou_peak_idx = _argmax(ious)
    iou_peak = None if iou_peak_idx is None else ious[iou_peak_idx]
    iou_drop = None
    if iou_peak_idx is not None:
        target = iou_peak_idx + round(0.2 * fps)
        if target < n:
            iou_drop = ious[iou_peak_idx] - ious[target]

    rel_speed = [None] * n
    toward = [None] * n
    for i in range(1, n):
        rel_speed[i], toward[i] = relative_step(
            skels_a[i - 1], skels_b[i - 1], skels_a[i], skels_b[i], times[i] - times[i - 1]
        )

    rel_speed = _rule(rel_speed)
    reach = [hand_reach(a, b) for a, b in zip(skels_a, skels_b)]
    hand_to_torso = _rule([r[0] for r in reach])
    hand_to_hip = _rule([r[1] for r in reach])

    # fast-and-close conjunction, using A's wrist speed recomputed
    wrist_speed_a = _rule(_wrist_speeds(times, skels_a))
    both = [None] * n
    for i in range(n):
        f = None if wrist_speed_a[i] is None else wrist_speed_a[i] > FAST_HAND
        c = None if hand_to_torso[i] is None else hand_to_torso[i] < CLOSE_HAND
        if f is not None and c is not None:
            both[i] = f and c
    longest = run = 0
    for b in both:
        if b:
            run += 1
            longest = max(longest, run)
        else:
            run = 0
    contact = _argmin(hand_to_torso)
    post_mean = None
    if contact is not None:
        stop = min(contact + round(0.4 * fps), n - 1)
        window = [distance[i] for i in range(contact, stop + 1) if distance[i] is not None]
        if window:
            post_mean = _ref_mean(window)

    cosines = [facing_cosines(a, b) for a, b in zip(skels_a, skels_b)]
    a_to_b = [c[0] for c in cosines]
    b_to_a = [c[1] for c in cosines]
    face_b = [facing_direction(s) for s in skels_b]
    face_rate = [None] * n
    tau = 2.0 * math.pi
    for i in range(1, n):
        fa, fb = face_b[i - 1], face_b[i]
        dt = times[i] - times[i - 1]
        if fa is None or fb is None or dt <= 0:
            continue
        d = math.atan2(fb[1], fb[0]) - math.atan2(fa[1], fa[0])
        d = (d + math.pi) % tau - math.pi
        face_rate[i] = abs(d) / dt
    face_rate = _rule(face_rate)

    for base, vals in (
        ("distance", distance),
        ("distanceRate", rate),
        ("iou", ious),
        ("relativeSpeed", rel_speed),
        ("handTowardCos", toward),
        ("handToTorso", hand_to_torso),
        ("handToHip", hand_to_hip),
        ("AfacingToB", a_to_b),
        ("BfacingToA", b_to_a),
        ("facingRate", face_rate),
    ):
        for stat in STATS:
            out[base + "_" + stat] = _ref_stat(vals, stat)

    out["iouPeak"] = iou_peak
    out["iouDrop0p2s"] = iou_drop
    out["handTowardGt07Pct"] = _pct(toward, lambda c: c > HAND_TOWARD)
    out["closeHandPct"] = _pct(hand_to_torso, lambda d: d < CLOSE_HAND)
    out["fastAndClosePct"] = _pct(both, lambda b: b)
    out["fastAndCloseLongest"] = float(longest)
    out["postContactSepMean"] = post_mean

    return {name: (v if v is not None else _sentinel(name)) for name, v in out.items()}
