"""Measurement loop, per-operation correctness checks, and metrics.

One *operation* is one instance taken through what the CLI does for
``gridroots extract`` (read the instance files, extract, write the
bundle) followed by ``replay`` of the trace it wrote.  Operations run in
a closed loop with one caller: each starts after the previous one ends.
Every operation is checked; a failed check or an unexpected exception
counts as a failed operation and never stops the run.
"""
from __future__ import annotations

import gc
import hashlib
import itertools
import json
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gridroots as gr
from calibration import SpeedProbe
from tracing import LayerStats, Tracer
from workloads import Instance, Workload

SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPEATS = 100
IO_MIN_REPEATS = 3
IO_BUDGET_S = 0.1
IO_MAX_REPEATS = 25
SUCCESS_FILES = ("result.json", "base-model.json", "augmented-model.json", "trace.jsonl")
CERTIFICATE_FILES = ("certificate.json", "trace.jsonl")
REDUCTION_KINDS = ("edge-delete", "branch-edge-delete", "branch-edge-contract")

# name -> (unit, phase whose spans it reads, span name, LayerStats table)
SPAN_METRICS = {
    "separations.row_scan.calls": ("count", "extract", "separations.row_scan", "calls"),
    "separations.row_scan.s": ("s", "extract", "separations.row_scan", "total"),
    "separations.menger.calls": ("count", "extract", "separations.menger", "calls"),
    "separations.menger.self_s": ("s", "extract", "separations.menger", "self_time"),
    "separations.blocking_separation.calls": ("count", "extract", "separations.blocking_separation", "calls"),
    "separations.blocking_separation.self_s": ("s", "extract", "separations.blocking_separation", "self_time"),
    "graph.reachable_from.calls": ("count", "extract", "graph.reachable_from", "calls"),
    "graph.reachable_from.self_s": ("s", "extract", "graph.reachable_from", "self_time"),
    "graph.Subgraph.new.calls": ("count", "extract", "graph.Subgraph.new", "calls"),
    "graph.Subgraph.new.self_s": ("s", "extract", "graph.Subgraph.new", "self_time"),
    "graph.delete_edge.calls": ("count", "extract", "graph.delete_edge", "calls"),
    "graph.delete_edge.self_s": ("s", "extract", "graph.delete_edge", "self_time"),
    "graph.contract_edge.calls": ("count", "extract", "graph.contract_edge", "calls"),
    "graph.contract_edge.self_s": ("s", "extract", "graph.contract_edge", "self_time"),
    "models.validate_pseudomodel.calls": ("count", "extract", "models.validate_pseudomodel", "calls"),
    "models.validate_pseudomodel.self_s": ("s", "extract", "models.validate_pseudomodel", "self_time"),
    "models.check_augmentation.self_s": ("s", "extract", "models.check_augmentation", "self_time"),
    "models.Pseudomodel.new.calls": ("count", "extract", "models.Pseudomodel.new", "calls"),
    "extraction.validate_problem.s": ("s", "extract", "extraction.validate_problem", "total"),
    "extraction.extract.self_s": ("s", "extract", "extract", "self_time"),
    "grid.grid_graph.calls": ("count", "extract", "grid.grid_graph", "calls"),
    "grid.grid_graph.self_s": ("s", "extract", "grid.grid_graph", "self_time"),
    "formats.canonical_json.calls": ("count", "io", "formats.canonical_json", "calls"),
    "formats.canonical_json.self_s": ("s", "io", "formats.canonical_json", "self_time"),
    "instances.generate_instance.s": ("s", "setup", "instances.generate_instance", "total"),
    "extraction.check_hypothesis.s": ("s", "setup", "extraction.check_hypothesis", "total"),
}

DERIVED_UNITS = {
    "separations.row_scan.share": "ratio",
    "separations.row_scan.hit_frac": "ratio",
    "separations.menger.cut_frac": "ratio",
    "separations.menger.input_measure": "count",
    **{f"extraction.reductions.{kind}": "count" for kind in REDUCTION_KINDS},
    "extraction.recursions": "count",
    "extraction.trace_records": "count",
    "extraction.depth_max": "count",
    "extraction.scans_per_step": "ratio",
    "formats.bundle_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

PER_LAYER_UNITS = {name: spec[0] for name, spec in SPAN_METRICS.items()} | DERIVED_UNITS


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


# -- one operation ------------------------------------------------------------


@dataclass
class Outcome:
    """What one operation produced, with its timings in seconds."""

    problem: gr.ExtractionProblem | None = None  # as read back from the files
    result: gr.ExtractionResult | None = None
    refutation: gr.HypothesisViolated | None = None
    error: str | None = None
    bundle: dict[str, bytes] = field(default_factory=dict)
    replayed: object = None  # ExtractionResult, HypothesisViolated, or an error string
    times: dict[str, float] = field(default_factory=dict)


def read_problem(files: dict[str, Path], g: int, k: int) -> gr.ExtractionProblem:
    """Load an instance the way ``gridroots extract`` does."""
    host = gr.graph_from_dict(gr.read_json(files["graph"]))
    roots = gr.vertex_set_from_dict(gr.read_json(files["roots"]))
    doc = gr.read_json(files["model"])
    model = gr.model_from_dict(doc, host)
    return gr.ExtractionProblem(host, roots, model, int(doc["pattern"]["n"]), g, k)


def write_bundle(out: Outcome, out_dir: Path) -> None:
    """Write the bundle ``gridroots extract`` writes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if out.result is not None:
        res, g = out.result, out.problem.g
        gr.write_json(out_dir / "result.json", gr.result_to_dict(res))
        gr.write_json(out_dir / "base-model.json", gr.model_to_dict(res.witness.base, g))
        gr.write_json(out_dir / "augmented-model.json", gr.model_to_dict(res.witness.augmented, g))
        (out_dir / "trace.jsonl").write_text(gr.trace_to_jsonl(res.trace), encoding="utf-8")
        return
    exc = out.refutation
    gr.write_json(out_dir / "certificate.json",
                  gr.certificate_to_dict(exc.separation, exc.row, exc.depth))
    (out_dir / "trace.jsonl").write_text(gr.trace_to_jsonl(exc.trace), encoding="utf-8")


def _clock(probe: SpeedProbe | None):
    return perf_counter if probe is None else probe.clock


def _repeat_io(step, repeat: bool, probe: SpeedProbe | None) -> list[float]:
    """Time ``step()``; when ``repeat``, again while that stays cheap.

    Speed-probe ticks wait for the end of each repeat: a step this short
    would be slowed by the caches the kernel takes over.
    """
    clock, times = _clock(probe), []
    while not times or repeat and (
        len(times) < IO_MIN_REPEATS
        or (sum(times) < IO_BUDGET_S and len(times) < IO_MAX_REPEATS)
    ):
        with nullcontext() if probe is None else probe.held():
            t0 = clock()
            step()
            times.append(clock() - t0)
    return times


def run_operation(inst: Instance, files: dict[str, Path], out_dir: Path, phase,
                  repeat_io: bool = False, probe: SpeedProbe | None = None) -> Outcome:
    """Read, extract and write one instance, timing each step.

    ``phase(name)`` returns the context that encloses each step (a root
    span when tracing).  Reading and writing are short; with
    ``repeat_io`` each is repeated and its mean counts.  The steps are
    timed with ``probe``'s clock, when it is given.
    """
    clock = _clock(probe)
    out = Outcome()
    p = inst.problem

    def read():
        with phase("io"):
            out.problem = read_problem(files, p.g, p.k)

    def write():
        with phase("io"):
            write_bundle(out, out_dir)

    try:
        reads = _repeat_io(read, repeat_io, probe)
        with phase("extract"):
            t0 = clock()
            try:
                out.result = gr.extract(out.problem)
            except gr.HypothesisViolated as exc:
                out.refutation = exc
            extract_time = clock() - t0
        writes = _repeat_io(write, repeat_io, probe)
    except Exception as exc:  # counted as a failed operation, never fatal
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.times = {"extract": extract_time, "io": _mean(reads) + _mean(writes)}
    names = SUCCESS_FILES if out.result is not None else CERTIFICATE_FILES
    out.bundle = {name: (out_dir / name).read_bytes() for name in names}
    return out


def replay_operation(out: Outcome, phase, probe: SpeedProbe | None = None) -> None:
    """Replay the trace the operation wrote, as read back from its bundle."""
    clock = _clock(probe)
    if out.error is not None:
        return
    try:
        trace = gr.trace_from_jsonl(out.bundle["trace.jsonl"].decode("utf-8"))
    except Exception as exc:
        out.replayed = f"unreadable trace: {type(exc).__name__}: {exc}"
        return
    with phase("replay"):
        t0 = clock()
        try:
            out.replayed = gr.replay(out.problem, trace)
        except gr.HypothesisViolated as exc:
            out.replayed = exc
        except Exception as exc:
            out.replayed = f"replay raised {type(exc).__name__}: {exc}"
        out.times["replay"] = clock() - t0


def bundle_digest(bundle: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(bundle):
        h.update(name.encode() + b"\0" + bundle[name] + b"\0")
    return h.hexdigest()


def _check_success(inst: Instance, out: Outcome) -> list[str]:
    if out.result is None:
        return ["expected a witness, got a certificate"]
    problems = []
    res, roots = out.result, inst.problem.roots
    w = res.witness
    if not gr.validate_model(w.base).ok:
        problems.append("validate_model rejects the base model")
    if not gr.check_augmentation(w).ok:
        problems.append("check_augmentation rejects the witness")
    if any(br.vertices & roots for br in w.base.branches.values()):
        problems.append("a base branch contains a root")
    if gr.trace_from_jsonl(out.bundle["trace.jsonl"].decode("utf-8")) != list(res.trace):
        problems.append("trace.jsonl differs from the returned trace")
    rep = out.replayed
    if isinstance(rep, str):
        problems.append(rep)
    elif not isinstance(rep, gr.ExtractionResult):
        problems.append("replay did not return a result")
    else:
        if gr.result_to_dict(rep) != gr.result_to_dict(res):
            problems.append("replay result differs")
        if list(rep.trace) != list(res.trace):
            problems.append("replay trace differs")
    return problems


def _check_refutation(inst: Instance, out: Outcome) -> list[str]:
    if out.refutation is None:
        return ["expected a certificate, got a witness"]
    problems = []
    p = inst.problem
    cert = json.loads(out.bundle["certificate.json"])
    sep = gr.separation_from_dict(cert["separation"], p.host)
    if not sep.order == cert["order"] < p.k:
        problems.append(f"certificate order {sep.order} (claimed {cert['order']}) is not below k={p.k}")
    if not p.roots <= sep.a.vertices:
        problems.append("a root is missing from the A side")
    if not gr.image_of_vertices(p.model, cert["row"]) <= sep.b.vertices:
        problems.append("the row image is not on the B side")
    rep = out.replayed
    if isinstance(rep, str):
        problems.append(rep)
    elif not isinstance(rep, gr.HypothesisViolated):
        problems.append("replay did not reproduce the refutation")
    elif gr.certificate_to_dict(rep.separation, rep.row, rep.depth) != cert:
        problems.append("replay certificate differs")
    return problems


def verify(inst: Instance, out: Outcome, references: list[str]) -> list[str]:
    """Every reason the operation failed; empty when it is correct.

    ``references`` are bundle digests the bundle must equal: the one
    stored for the seed commit, if any, and the first pass's.
    """
    if out.error is not None:
        return [out.error]
    try:
        problems = [
            f"bundle digest differs from {ref[:12]}"
            for ref in references if bundle_digest(out.bundle) != ref
        ]
        check = _check_refutation if inst.refuted else _check_success
        return problems + check(inst, out)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


# -- set-up -------------------------------------------------------------------


def set_up(workload: Workload, seed: int, inst_dir: Path):
    """Build the workload and write its instance files; returns both."""
    instances = workload.build(seed)
    files = {inst.name: gr.write_instance(inst.problem, inst_dir / inst.name) for inst in instances}
    return instances, files


def check_setup(instances: list[Instance], files) -> list[str]:
    """Untimed: every instance survives the round trip through its files."""
    problems = []
    for inst in instances:
        p = inst.problem
        back = read_problem(files[inst.name], p.g, p.k)
        if (back.host, back.roots, back.model, back.n) != (p.host, p.roots, p.model, p.n):
            problems.append(f"{inst.name}: the instance files do not round-trip")
    return problems


def _file_digest(files) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        for key in sorted(files[name]):
            h.update(files[name][key].read_bytes())
    return h.hexdigest()


# -- the run ------------------------------------------------------------------


@dataclass
class RunResult:
    """Counts, failure reasons, metrics (value, unit) and report lines of a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def untraced(name: str):
    return nullcontext()


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work_dir: Path,
                 stored_digests: dict[str, str] | None = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.stored = stored_digests or {}
        self.first: dict[str, str] = {}
        self.out = RunResult()

    def _operation(self, inst: Instance, files, phase, repeat_io: bool = False,
                   probe: SpeedProbe | None = None) -> Outcome:
        gc.collect()
        out = run_operation(inst, files[inst.name], self.work_dir / "out" / inst.name,
                            phase, repeat_io, probe)
        gc.collect()
        replay_operation(out, phase, probe)
        refs = [d for d in (self.stored.get(inst.name), self.first.get(inst.name)) if d]
        problems = verify(inst, out, refs)
        if out.error is None:
            self.first.setdefault(inst.name, bundle_digest(out.bundle))
        self.out.attempted += 1
        if problems:
            self.out.failed += 1
            self.out.problems.extend(f"{inst.name}: {p}" for p in problems)
        return out

    def _setups(self, repeats: int, phase, budget: float = 0.0,
                probe: SpeedProbe | None = None):
        """Set up ``repeats`` times, and more while under ``budget`` seconds."""
        clock, durations, digests = _clock(probe), [], set()
        r = 0
        while r < repeats or (sum(durations) < budget and r < SETUP_MAX_REPEATS):
            r += 1
            gc.collect()
            with phase("setup"):
                t0 = clock()
                instances, files = set_up(self.workload, self.seed, self.work_dir / f"inst-{r}")
                durations.append(clock() - t0)
            digests.add(_file_digest(files))
        if len(digests) != 1:
            self.out.problems.append("repeated set-up wrote different instance files")
        self.out.problems.extend(check_setup(instances, files))
        return instances, files, durations

    def _finish(self, instances) -> None:
        lines = self.out.lines
        summary = hashlib.sha256("".join(self.first.get(i.name, "-") for i in instances).encode())
        lines.append(f"bundle sha256 {self.workload.name} seed {self.seed}: {summary.hexdigest()}")
        for inst in instances:
            lines.append(f"  {inst.name}: {self.first.get(inst.name, 'no bundle')}")
        att, fail = self.out.attempted, self.out.failed
        lines.append(f"failed_frac = {fail / att if att else 1.0:.4f} (failed {fail} / attempted {att})")
        for msg in self.out.problems[:20]:
            lines.append(f"  FAILED {msg}")

    def measure(self, setup_repeats: int = SETUP_REPEATS,
                setup_budget: float = SETUP_BUDGET_S) -> RunResult:
        """Untraced run: the end-to-end metrics."""
        setup_probe, probe = SpeedProbe(), SpeedProbe()
        with setup_probe.sampling():
            instances, files, setup_times = self._setups(setup_repeats, untraced, setup_budget,
                                                         setup_probe)
        samples = {inst.name: {"extract": [], "replay": [], "io": []} for inst in instances}
        # Cycle through the instances; after the first full pass, start an
        # operation only if its last duration says it ends in time.
        last = {}
        start = perf_counter()
        with probe.sampling():
            while True:
                ran = False
                for inst in instances:
                    began = perf_counter()
                    if inst.name in last and began - start + last[inst.name] > self.seconds:
                        continue
                    out = self._operation(inst, files, untraced, repeat_io=True, probe=probe)
                    last[inst.name] = perf_counter() - began
                    for key, value in out.times.items():
                        samples[inst.name][key].append(value)
                    ran = True
                if not ran:
                    break
        # Means, not medians, so that they scale with the share of the run
        # the machine spent slowed, as the probe's mean does.  The probe
        # samples the whole loop, checks included, at a fixed interval.
        m = self.out.metrics
        for key in ("extract", "replay", "io"):
            m[f"{key}_s"] = (sum(_mean(s[key]) for s in samples.values()) * probe.factor, "s")
        m["setup_s"] = (_median(setup_times) * setup_probe.factor, "s")
        m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        for inst in instances:
            s = samples[inst.name]
            for key in ("extract", "replay", "io"):
                self.out.lines.append(
                    f"  {inst.name} {key}: uncalibrated mean {_mean(s[key]):.4f} s of "
                    f"{len(s[key])} samples [{' '.join(f'{t:.4f}' for t in s[key])}]"
                )
        for name, pr in (("set-up", setup_probe), ("operations", probe)):
            self.out.lines.append(
                f"  speed factor during {name}: {pr.factor:.4f} (kernel mean "
                f"{statistics.fmean(pr.times) * 1e3:.4f} ms over {len(pr.times)} runs)"
            )
        self._finish(instances)
        return self.out

    def measure_traced(self, spans_path: Path | None = None) -> RunResult:
        """Traced run: per-layer metrics, and the overhead of tracing."""
        tracer = Tracer()
        op_ids = itertools.count()

        def traced_phase(name):
            return tracer.op(next(op_ids), name)

        with tracer.patch():
            instances, files, _ = self._setups(1, traced_phase)
        setup_stats = LayerStats(tracer.spans)
        overheads: list[float] = []
        per_pass: list[dict[str, float]] = []
        start = perf_counter()
        cycle = 0.0
        # Each cycle is an untraced and a traced pass, interleaved operation
        # by operation so that both see the same machine.  Start another
        # cycle only if it should end in time.
        while not per_pass or perf_counter() - start + cycle <= self.seconds:
            cycle_start = perf_counter()
            first_span = len(tracer.spans)
            plain, traced = [], []
            for inst in instances:
                plain.append(self._operation(inst, files, untraced))
                with tracer.patch():
                    traced.append(self._operation(inst, files, traced_phase))
            per_pass.append(layer_metrics(LayerStats(tracer.spans, first_span), setup_stats, traced))
            base = sum(sum(o.times.values()) for o in plain)
            overheads.append(sum(sum(o.times.values()) for o in traced) / base - 1 if base else 0.0)
            cycle = perf_counter() - cycle_start
        m = self.out.metrics
        for name, unit in PER_LAYER_UNITS.items():
            if name != "trace.overhead_frac":
                m[name] = (_median([p[name] for p in per_pass]), unit)
        m["trace.overhead_frac"] = (_median(overheads), "ratio")
        self.out.lines.append(f"  {len(per_pass)} traced passes, {len(tracer.spans)} spans")
        if tracer.missing:
            self.out.lines.append(f"  not traced, absent from the program: {sorted(tracer.missing)}")
        if spans_path is not None:
            tracer.write(spans_path)
        self._finish(instances)
        return self.out


def layer_metrics(stats: LayerStats, setup: LayerStats, outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    out: dict[str, float] = {}
    for name, (_unit, phase, span, table) in SPAN_METRICS.items():
        source = setup if phase == "setup" else stats
        out[name] = getattr(source, table).get((phase, span), 0)
    scans = stats.infos.get(("extract", "separations.row_scan"), [])
    flows = stats.infos.get(("extract", "separations.menger"), [])
    extract_time = stats.total.get(("extract", "extract"), 0.0)
    out["separations.row_scan.share"] = out["separations.row_scan.s"] / extract_time if extract_time else 0.0
    out["separations.row_scan.hit_frac"] = sum(scans) / len(scans) if scans else 0.0
    out["separations.menger.cut_frac"] = sum(c for c, _ in flows) / len(flows) if flows else 0.0
    out["separations.menger.input_measure"] = sum(size for _, size in flows)
    records = []
    for o in outcomes:
        if o.result is not None:
            records.extend(o.result.trace)
        elif o.refutation is not None:
            records.extend(getattr(o.refutation, "trace", ()))
    kinds = [r.get("kind") for r in records]
    for kind in REDUCTION_KINDS:
        out[f"extraction.reductions.{kind}"] = kinds.count(kind)
    out["extraction.recursions"] = kinds.count("separation-recursion")
    out["extraction.trace_records"] = len(records)
    out["extraction.depth_max"] = max((r.get("depth", 0) for r in records), default=0)
    steps = sum(kinds.count(k) for k in REDUCTION_KINDS) + out["extraction.recursions"] + len(outcomes)
    out["extraction.scans_per_step"] = len(scans) / steps
    out["formats.bundle_bytes"] = sum(len(b) for o in outcomes for b in o.bundle.values())
    return out
