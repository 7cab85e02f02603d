"""One benchmark workload in a fresh interpreter.

    python3 bench/worker.py --root ROOT --workload NAME --seed N \
        --seconds S --mode setup|run|trace --workdir DIR

`setup` only imports the program (and the lazy imports the workload
triggers) and reports how long that took.  `run` also times whole
rounds of the workload's fixed batch for S seconds, then checks every
output against the references in reference.py.  `trace` times rounds
untraced for S/2 seconds, then the same rounds again with every
instrumented trisub function wrapped in a span, and reports per-layer
counts and self times plus the tracing overhead.  The last line of
stdout is one JSON object.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time

from tracer import Tracer, instrument

# Calibration samples taken before and again after the timed imports.
SETUP_CAL_SAMPLES = 4
# What each workload imports before its first operation; setup_s times this.
IMPORTS = {
    "limit-address": ("trisub",),
    "verify-suites": ("trisub", "trisub.cli", "scipy.optimize"),
    "render-disk": ("trisub", "trisub.cli"),
}


def load_program(root, workload):
    """Import trisub from ROOT/src and return the import time in seconds."""
    src = os.path.join(root, "src")
    pkg = os.path.join(src, "trisub")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"no trisub sources under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    seconds = time.perf_counter() - t0
    import trisub
    if os.path.realpath(os.path.dirname(trisub.__file__)) != os.path.realpath(pkg):
        raise SystemExit(f"trisub was imported from {trisub.__file__}, not {pkg}")
    return seconds


class Workload:
    """A fixed batch of operations; rounds run the whole batch."""

    batch = ()
    parts = {}  # sub-part times of the last operation, if it reports any
    calibrate_every = 1  # operations between calibration samples

    def label(self, item):
        """Trace label of an operation (None: unlabelled)."""
        return None

    def run(self, item):
        raise NotImplementedError

    def digest(self, item, out):
        """What must repeat exactly from round to round (taken untimed)."""
        return out

    def check(self, checked):
        """(errors, extra figures) for the (item, output) pairs of a round."""
        raise NotImplementedError


# --- limit-address --------------------------------------------------------------

LIMIT_BATCH = 300
LIMIT_CALIBRATE_EVERY = 50
# Words addressing the midpoint of one edge of the current cell.
MIDPOINT_WORDS = (("B|C", "C|B", "M|A"), ("C|A", "A|C", "M|B"), ("A|B", "B|A", "M|C"))


def _word(rng, lo, hi):
    return "".join(rng.choice("ABCM") for _ in range(rng.randint(lo, hi)))


def _limit_start(rng, edges_from_angles):
    """A hyperbolic start with every edge in [0.01, 5], half given by edges
    (as verify samples them) and half by angles (as sweep builds them)."""
    while True:
        if rng.random() < 0.5:
            a, b, c = (rng.uniform(0.01, 5.0) for _ in range(3))
            if a < b + c and b < c + a and c < a + b:
                return "edges", (a, b, c)
        else:
            w = [rng.random() for _ in range(3)]
            total = math.pi - rng.uniform(0.05, 3.0)
            angles = tuple(total * x / sum(w) for x in w)
            if all(0.01 <= e <= 5.0 for e in edges_from_angles(*angles)):
                return "angles", angles


class LimitAddress(Workload):
    """Limit of one seeded start along one seeded eventually periodic
    sequence, then its exact address, an equivalence test against a
    respelling, and Proposition 3.1 witness searches."""

    calibrate_every = LIMIT_CALIBRATE_EVERY

    def __init__(self, seed, workdir):
        import reference
        rng = random.Random(f"limit-address:{seed}")
        self.batch = []
        for _ in range(LIMIT_BATCH):
            start = _limit_start(rng, reference.edges_from_angles)
            w = _word(rng, 0, 4)
            if rng.random() < 0.5:
                # one-letter cycles: a different word for the same edge
                # midpoint, and a decoy naming another edge's midpoint
                family, other = rng.sample(MIDPOINT_WORDS, 2)
                first, second = rng.sample(family, 2)
                item = (start, w + first, w + second, w + rng.choice(other))
            else:
                # the same infinite word, unrolled once and cycled twice
                cyc = _word(rng, 1, 4)
                item = (start, f"{w}|{cyc}", f"{w}{cyc[0]}|{(cyc[1:] + cyc[0]) * 2}", None)
            self.batch.append(item)

    def run(self, item):
        from trisub import shape, subdivision, symbolic
        (kind, vals), text, alt_text, decoy_text = item
        seq = symbolic.SymbolSequence.parse(text)
        if kind == "edges":
            rec = shape.shape_from_edges(*vals)
        else:
            rec = shape.shape_from_angles(*vals)
        lim = subdivision.limit_shape_info(seq, rec)
        addr = symbolic.address_exact(seq)
        alt = symbolic.SymbolSequence.parse(alt_text)
        same = symbolic.equivalent(seq, alt)
        witnesses = [symbolic.match_prop31(seq, alt) is not None]
        if decoy_text is not None:
            decoy = symbolic.SymbolSequence.parse(decoy_text)
            witnesses.append(symbolic.match_prop31(seq, decoy) is not None)
        return lim.angles.as_tuple(), tuple(addr), same, tuple(witnesses)

    def check(self, checked):
        import reference
        errors = []
        worst = 0.0
        for (start, text, alt_text, decoy_text), out in checked:
            angles, addr, same, witnesses = out
            prefix, cycle = text.split("|")
            ref = reference.limit_angles(start, prefix, cycle)
            err = reference.limit_mismatch(angles, ref)
            worst = max(worst, err)
            if not err <= reference.LIMIT_RTOL:
                errors.append(f"limit {start} {text}: {angles} vs reference {ref}")
            ref_addr = reference.address(prefix, cycle)
            if addr != ref_addr:
                errors.append(f"address {text}: {addr} vs reference {ref_addr}")
            if not same or reference.address(*alt_text.split("|")) != ref_addr:
                errors.append(f"equivalent({text}, {alt_text}) returned {same}")
            pairs = [alt_text] + ([decoy_text] if decoy_text else [])
            for other, found in zip(pairs, witnesses):
                if found and reference.address(*other.split("|")) != ref_addr:
                    errors.append(f"match_prop31({text}, {other}) witnessed unequal addresses")
        searches = sum(len(out[3]) for _, out in checked)
        found = sum(sum(out[3]) for _, out in checked)
        return errors, {"limit_worst_rel_error": worst,
                        "witness_ratio": found / searches}


# --- verify-suites --------------------------------------------------------------

# Sample counts asked of each suite.  noncontraction checks one fixed
# witness and surjectivity a fixed 5 x 5 target grid; both ignore --samples.
VERIFY_SAMPLES = {"lemma21": 200, "area": 200, "ratiolimit": 100, "cauchy": 200,
                  "angleratio": 200, "noncontraction": 1, "eq1probe": 400,
                  "continuity": 24, "surjectivity": 25}
# Suite seeds 1..100 except those on which a seeded suite fails (see README).
VERIFY_SEEDS = tuple(s for s in range(1, 101) if s not in (5, 24, 25, 75, 96))


class VerifySuites(Workload):
    """Each operation is one `trisub verify --suite NAME --seed S` through
    cli.main; one round runs all nine suites."""

    def __init__(self, seed, workdir):
        rng = random.Random(f"verify-suites:{seed}")
        self.batch = [(name, rng.choice(VERIFY_SEEDS)) for name in VERIFY_SAMPLES]

    def run(self, item):
        from trisub import cli
        name, vseed = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "--suite", name, "--seed", str(vseed),
                           "--samples", str(VERIFY_SAMPLES[name])])
        if rc != 0:
            raise RuntimeError(f"verify --suite {name} --seed {vseed} exited {rc}")
        return buf.getvalue()

    def label(self, item):
        return item[0]

    def check(self, checked):
        import reference
        errors = []
        for (name, vseed), text in checked:
            try:
                rep = json.loads(text)
            except ValueError:
                errors.append(f"{name} seed {vseed}: no JSON report")
                continue
            if rep.get("pass") is not True or rep.get("failures"):
                errors.append(f"{name} seed {vseed}: failures {rep.get('failures')}")
            if rep.get("suite") != name or rep.get("samples") != VERIFY_SAMPLES[name]:
                errors.append(f"{name} seed {vseed}: report covers {rep.get('samples')} samples")
            stats = rep.get("stats", {})
            if name == "surjectivity":
                res = stats.get("residuals", [])
                if len(res) != VERIFY_SAMPLES[name] or not max(res) < 1e-6:
                    errors.append(f"surjectivity residuals {res}")
            if name == "noncontraction":
                ref = reference.noncontraction_distances()
                got = (stats.get("distance_before"), stats.get("distance_after"))
                if not all(abs(g - r) <= 1e-12 for g, r in zip(got, ref)):
                    errors.append(f"noncontraction distances {got} vs reference {ref}")
        return errors, {}


# --- render-disk ----------------------------------------------------------------

RENDER_BATCH = 3
# (model, depth): chosen so that neither half is under a third of an operation.
RENDER_MODELS = (("klein", 8), ("poincare", 5))
ARC_SAMPLES = 32
CHECKED_CELLS = 24


class RenderDisk(Workload):
    """Each operation renders one seeded triangle through cli.main, once in
    the Klein disk and once in the Poincare disk, into the work directory."""

    def __init__(self, seed, workdir):
        rng = random.Random(f"render-disk:{seed}")
        self.workdir = workdir
        self.batch = []
        while len(self.batch) < RENDER_BATCH:
            a, b, c = (rng.uniform(0.2, 3.0) for _ in range(3))
            if a < b + c and b < c + a and c < a + b:
                self.batch.append((len(self.batch), (a, b, c)))
        self.cell_rng = random.Random(f"render-disk-cells:{seed}")

    def _path(self, idx, model):
        return os.path.join(self.workdir, f"op{idx}-{model}.svg")

    def run(self, item):
        from trisub import cli
        idx, edges = item
        self.parts = {}
        for model, depth in RENDER_MODELS:
            t0 = time.perf_counter()
            rc = cli.main(["render", "--edges", ",".join(repr(x) for x in edges),
                           "--depth", str(depth), "--model", model,
                           "--arc-samples", str(ARC_SAMPLES), "-o", self._path(idx, model)])
            self.parts[model] = time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"render {model} {edges} exited {rc}")

    def digest(self, item, out):
        # the files of the last round stay on disk; every round must match them
        digests = []
        for model, _ in RENDER_MODELS:
            # in blocks, so that the benchmark adds no file-sized buffer to
            # the peak memory it reports
            h, size = hashlib.sha256(), 0
            with open(self._path(item[0], model), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 16), b""):
                    h.update(block)
                    size += len(block)
            digests.append((size, h.hexdigest()))
        return tuple(digests)

    def check(self, checked):
        import reference
        errors = []
        total_bytes = 0
        for (idx, edges), digests in checked:
            for (model, depth), (size, _) in zip(RENDER_MODELS, digests):
                total_bytes += size
                with open(self._path(idx, model), encoding="utf-8") as fh:
                    paths = reference.svg_paths(fh.read())
                errors += _check_render(reference, edges, model, depth, paths, self.cell_rng)
        return errors, {"svg_bytes_per_op": total_bytes / max(1, len(checked))}


def _check_render(reference, edges, model, depth, paths, rng):
    errors = []
    where = f"render {model} {edges}"
    if len(paths) != 1 + 4 ** depth:
        return [f"{where}: {len(paths)} paths, expected {1 + 4 ** depth}"]
    per_edge = ARC_SAMPLES if model == "poincare" else 1
    for k, pts in enumerate(paths):
        if len(pts) != 3 * per_edge:
            errors.append(f"{where}: path {k} has {len(pts)} points")
            continue
        if not all(x * x + y * y < 1.0 for x, y in pts):
            errors.append(f"{where}: path {k} leaves the unit disk")
        if model == "poincare":
            for e in range(3):
                p, q = pts[e * per_edge], pts[((e + 1) * per_edge) % len(pts)]
                off = max(reference.off_geodesic(p, q, pts[e * per_edge + j])
                          for j in range(1, per_edge))
                if not off <= reference.SVG_ATOL:
                    errors.append(f"{where}: path {k} edge {e} is {off} off its geodesic")
    # vertices of the root and of seeded leaf cells, recomputed from edges
    leaves = [rng.randrange(4 ** depth) for _ in range(CHECKED_CELLS)]
    for leaf in [None] + leaves:
        if leaf is None:
            k, letters = 0, ""
        else:
            k = 1 + leaf
            letters = "".join("ABCM"[(leaf >> (2 * (depth - 1 - i))) & 3] for i in range(depth))
        want = reference.disk_cell(edges, letters, model)
        got = paths[k][::per_edge]
        if len(got) == 3 and max(math.dist(g, w) for g, w in zip(got, want)) > reference.SVG_ATOL:
            errors.append(f"{where}: cell {letters or 'root'} at {got}, expected {want}")
    return errors


WORKLOADS = {"limit-address": LimitAddress, "verify-suites": VerifySuites,
             "render-disk": RenderDisk}


# --- timing ---------------------------------------------------------------------

# Calibration: a fixed pure-Python loop (float arithmetic, math calls,
# integer modulo) timed between operations.  On a virtual machine whose
# cores are shared with other tenants (the 2-vCPU one the README figures
# come from) speed switches between states ~1.6x apart, for seconds to
# minutes at a time, and the loop slows with it.  Every reported time is
# scaled by CAL_REF_MS / (the loop's measured time), so it reads as the
# time at the speed where the loop takes CAL_REF_MS: that machine's fast
# state.  Raw times stay in the result record.
CAL_LOOPS = 20000
CAL_REF_MS = 3.2


def calibrate():
    """Seconds taken by the calibration loop now."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(CAL_LOOPS):
        x += math.sinh(i * 1e-4) * 0.5 + (i % 7)
    return time.perf_counter() - t0


class Rounds:
    """Times of whole rounds of a workload's batch.

    times[r][i] is operation i's time in round r, parts[r][i] its
    sub-part times ({suite or disk model: seconds}), and cal[r][i] the
    calibration time taken just before it (None between samples).
    """

    def __init__(self):
        self.times, self.parts, self.cal = [], [], []
        self.failed = self.mismatched = 0
        self.digests = None

    @property
    def attempted(self):
        return sum(len(r) for r in self.times)

    def run_scale(self):
        """CAL_REF_MS over the mean of all the run's calibration samples."""
        cal = [c for r in self.cal for c in r if c is not None]
        return CAL_REF_MS / 1e3 / statistics.mean(cal)

    def round_rates(self):
        """Per round: operations over the round's time, scaled by CAL_REF_MS
        over the mean of the round's calibration samples."""
        return [len(t) / (sum(t) * CAL_REF_MS / 1e3
                          / statistics.mean(c for c in cal if c is not None))
                for t, cal in zip(self.times, self.cal)]

    def scales(self):
        """Per operation, in run order: CAL_REF_MS over the mean of the
        calibration samples just before and just after it; the scaling
        for single operations, such as the median."""
        cal = [c for r in self.cal for c in r]
        after, nxt = [None] * len(cal), None
        for i in range(len(cal) - 1, -1, -1):
            after[i] = nxt
            if cal[i] is not None:
                nxt = cal[i]
        out, before = [], None
        for c, a in zip(cal, after):
            before = c if c is not None else before
            out.append(CAL_REF_MS / 1e3 / ((before + (a if a is not None else before)) / 2))
        return out

    def scaled(self):
        """Scaled operation times, in run order."""
        return [t * s for t, s in zip((t for r in self.times for t in r), self.scales())]

    def scaled_parts_ms(self):
        """Median scaled time of each named part over all rounds, in ms."""
        out = {}
        for p, s in zip((p for r in self.parts for p in r), self.scales()):
            for name, t in p.items():
                out.setdefault(name, []).append(t * s)
        return {name: 1e3 * statistics.median(v) for name, v in out.items()}


class Failure(str):
    """Digest of an operation that raised: its error message."""


def run_rounds(wl, seconds=None, rounds=None, tracer=None, expect=None):
    """Run whole rounds of wl.batch until `seconds` pass or `rounds` are done.

    Before each calibration sample the heap is collected (untimed).
    Operations that raise count as failed; outputs whose digest differs
    from `expect` (default: the first round's) count as mismatched.
    """
    res = Rounds()
    t_end = None if seconds is None else time.perf_counter() + seconds
    while True:
        times, parts, digests, cal = [], [], [], []
        for i, item in enumerate(wl.batch):
            if i % wl.calibrate_every == 0:
                # start from a collected heap, as a fresh CLI process would:
                # render_svg leaves a reference cycle holding ~26 MB of
                # path strings, and when the collector happens to free it
                # would otherwise decide peak_rss_mb (77.8 or 85.6 MB)
                gc.collect()
                cal.append(calibrate())
            else:
                cal.append(None)
            label = wl.label(item)
            if tracer is not None:
                tracer.label = label
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception as exc:  # a failing operation is counted, not fatal
                times.append(time.perf_counter() - t0)
                digests.append(Failure(f"{type(exc).__name__}: {exc}"))
                res.failed += 1
            else:
                times.append(time.perf_counter() - t0)
                digests.append(wl.digest(item, out))
                if expect is not None and digests[-1] != expect[i]:
                    res.mismatched += 1
            parts.append(dict(wl.parts) or ({label: times[-1]} if label else {}))
        res.times.append(times)
        res.parts.append(parts)
        res.cal.append(cal)
        if expect is None:
            expect = digests
        res.digests = expect
        if ((rounds is not None and len(res.times) >= rounds)
                or (t_end is not None and time.perf_counter() >= t_end)):
            return res


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    cal = [calibrate() for _ in range(SETUP_CAL_SAMPLES)]
    setup_raw = load_program(args.root, args.workload)
    cal += [calibrate() for _ in range(SETUP_CAL_SAMPLES)]
    result = {"setup_s": setup_raw * CAL_REF_MS / 1e3 / statistics.mean(cal),
              "setup_raw_s": setup_raw, "setup_cal_ms": [1e3 * c for c in cal]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        wl.run(wl.batch[0])  # warm-up, untimed
    except Exception:  # the timed rounds count and report the failure
        pass
    if args.mode == "run":
        plain = run_rounds(wl, seconds=args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()
        failed, mismatched, attempted = plain.failed, plain.mismatched, plain.attempted
    else:
        plain = run_rounds(wl, seconds=args.seconds / 2)
        tracer = Tracer()
        instrument(tracer)
        traced = run_rounds(wl, rounds=len(plain.times), tracer=tracer, expect=plain.digests)
        failed = plain.failed + traced.failed
        mismatched = plain.mismatched + traced.mismatched
        attempted = plain.attempted + traced.attempted
        result["spans"] = tracer.table()
    checked = [(item, out) for item, out in zip(wl.batch, plain.digests)
               if not isinstance(out, Failure)]
    errors, extra = wl.check(checked)
    if mismatched:
        errors.append(f"{mismatched} outputs differ from the first round's")
    scaled = plain.scaled()
    raw = [t for r in plain.times for t in r]
    rate = statistics.median(plain.round_rates())
    if args.mode == "trace":
        overhead = 100.0 * (rate / statistics.median(traced.round_rates()) - 1.0)
        result["layers"] = layer_metrics(result["spans"], traced.attempted,
                                         traced.run_scale(), plain.scaled_parts_ms(),
                                         extra, overhead)
    result.update(extra, attempted=attempted, failed=failed, rounds=len(plain.times),
                  ops_per_s=rate,
                  op_p50_ms=1e3 * statistics.median(scaled),
                  raw_ops_per_s=len(raw) / sum(raw),
                  raw_op_p50_ms=1e3 * statistics.median(raw),
                  round_ms=[1e3 * sum(r) for r in plain.times],
                  cal_ms=[1e3 * c for r in plain.cal for c in r if c is not None],
                  errors=errors[:20], error_count=len(errors))
    print(json.dumps(result))
    return 0


def layer_metrics(rows, n_ops, scale, part_ms, extra, overhead_pct):
    """Per-layer metrics {name: (value, unit)} from the aggregated spans.

    Counts and self times are per traced operation; self times are
    multiplied by `scale`, the calibration scaling of the traced rounds.
    The per-suite and per-model times are medians of scaled times from
    the untraced rounds of the same run.
    """
    def total(field, span=None, label=None, parent=None, prefix=None):
        return sum(r[field] for r in rows
                   if (span is None or r["span"] == span)
                   and (prefix is None or r["span"].startswith(prefix))
                   and (label is None or r["label"] == label)
                   and (parent is None or r["parent"] == parent))

    def per_op(field, **kw):
        return total(field, **kw) / n_ops * (scale if field == "self_ms" else 1.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for key, span, fields in (
            ("shape.validate", "shape.validate", ("self_ms",)),
            ("subdivision.apply", None, ("calls", "self_ms")),
            ("hyptrig.angles_from_edges", None, ("calls", "self_ms")),
            ("hyptrig.edges_from_angles", None, ("calls",)),
            ("hyptrig.medial_data", None, ("calls", "self_ms")),
            ("hyptrig.sin_angles", None, ("self_ms",)),
            ("subdivision.child_edges", None, ("calls", "self_ms")),
            ("hyptrig.area_from_edges", None, ("self_ms",)),
            ("subdivision.limit_shape_info", None, ("calls", "self_ms")),
            ("symbolic.parse", None, ("self_ms",)),
            ("symbolic.address_exact", None, ("calls", "self_ms")),
            ("symbolic.equivalent", None, ("self_ms",)),
            ("symbolic.match_prop31", None, ("calls", "self_ms")),
            ("plane_model.geodesic_point", None, ("calls", "self_ms")),
            ("plane_model.dist", None, ("calls", "self_ms")),
            ("plane_model.midpoint", None, ("calls", "self_ms")),
            ("plane_model.to_disk", None, ("calls",)),
            ("render.cell_children", None, ("calls",)),
            ("render.render_svg", None, ("self_ms",)),
            ("cli.parse", None, ("self_ms",)),
            ("fmt.dumps", None, ("self_ms",))):
        for field in fields:
            m[f"{key}.{field}"] = (per_op(field, span=span or key),
                                   "calls/op" if field == "calls" else "ms/op")
    m["shape.validations"] = (per_op("calls", span="shape.validate"), "calls/op")
    m["shape.records_built"] = (per_op("calls", span="shape.record"), "calls/op")
    m["subdivision.map_steps_per_limit"] = (ratio(
        total("calls", span="subdivision.apply", parent="subdivision.limit_shape_info"),
        total("calls", span="subdivision.limit_shape_info")), "steps")
    m["verify.self_ms"] = (per_op("self_ms", prefix="verify."), "ms/op")
    for name in VERIFY_SAMPLES:
        m[f"verify.suite.{name}.ms"] = (part_ms.get(name, 0.0), "ms")
    surj = total("calls", span="verify.surjectivity")
    m["verify.surjectivity.limit_calls"] = (ratio(
        total("calls", span="subdivision.limit_shape_info", label="surjectivity"), surj),
        "calls/op")
    m["verify.surjectivity.minimize.self_ms"] = (scale * ratio(
        total("self_ms", span="scipy.minimize", label="surjectivity"), surj), "ms/op")
    m["symbolic.match_prop31.witness_ratio"] = (extra.get("witness_ratio", 0.0), "ratio")
    m["render.klein.ms"] = (part_ms.get("klein", 0.0), "ms")
    m["render.poincare.ms"] = (part_ms.get("poincare", 0.0), "ms")
    m["render.svg_bytes"] = (extra.get("svg_bytes_per_op", 0.0), "B/op")
    m["render.write.ms"] = (per_op("self_ms", span="render.write"), "ms/op")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


if __name__ == "__main__":
    sys.exit(main())
