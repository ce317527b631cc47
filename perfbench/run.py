#!/usr/bin/env python3
"""detorbit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository (the program is imported
from its ``src/``).  The workload's operations run one after another, each in
a fresh interpreter as a user runs the CLI (a closed loop with one client), in
whole passes for about ``--seconds`` seconds.  Every certified value is
checked.  Times are taken at each operation's fastest repetition in the run
(see ``fastest``).  The report's last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1`` (the operations
then run with the wrappers of child.py).  Scratch files live in
``.perfbench_work/`` at the root; traced runs leave their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from math import inf
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
CHILD = HERE / "child.py"
# The run's deadline is --seconds plus this; an operation still running then
# is killed and the run fails.  No new pass starts that would end after
# --seconds, so only a pass far slower than the ones before it gets here.
OVERRUN_S = 50.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
# Work counts that must repeat exactly across passes, runs and seeds.
DETERMINISTIC = (
    "latin.leaves",
    "latin.patterns",
    "invariant.det_evals",
    "tensors.symmetrizer_terms",
    "kronecker.sk_evals",
    "orbit.candidates",
)


@dataclass
class OpRun:
    op: workloads.Op
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    report_bytes: int
    checkpoint_bytes: int
    problems: list
    trace: dict | None


@dataclass
class Session:
    """What one run knows: where it works and what it has verified so far."""

    workdir: Path
    env: dict
    trace: bool
    reports: dict  # report key -> sha256 of the report bytes
    spawner: subprocess.Popen
    verified: dict = field(default_factory=dict)  # sha256 -> (problems, value)
    values: dict = field(default_factory=dict)  # op label -> report "value"
    deadline: float = 0.0


def start_spawner(workdir: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-S", str(HERE / "spawner.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=workdir,
    )


def stop_spawner(spawner: subprocess.Popen) -> None:
    spawner.stdin.close()
    spawner.wait()
    spawner.stdout.close()


def spawn(argv, session: Session, trace: bool, stdout: Path):
    """Run child.py with argv; return (spawner reply, child record)."""
    result_path = session.workdir / "child-result.json"
    result_path.unlink(missing_ok=True)
    env = dict(session.env, PERFBENCH_RESULT=str(result_path),
               PERFBENCH_TRACE="1" if trace else "0")
    timeout = max(1.0, session.deadline - perf_counter())
    request = {
        "argv": [sys.executable, str(CHILD), *argv],
        "env": env,
        "stdout": str(stdout),
        "stderr": str(session.workdir / "stderr.txt"),
        "timeout": timeout,
    }
    session.spawner.stdin.write(json.dumps(request) + "\n")
    session.spawner.stdin.flush()
    reply = json.loads(session.spawner.stdout.readline())
    if reply["exit"] == -signal.SIGKILL and perf_counter() >= session.deadline:
        raise RuntimeError(f"operation killed after {timeout:.0f} s: {argv}")
    record = {}
    if result_path.exists():
        record = json.loads(result_path.read_text(encoding="utf-8"))
    if record.get("setup_done") is not None:
        record["setup_s"] = record["setup_done"] - reply["t0"]
    return reply, record


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _stderr_tail(session: Session) -> str:
    text = (session.workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    return " | ".join(text.strip().splitlines()[-2:])


def run_op(op, session: Session) -> OpRun:
    ckpt = session.workdir / op.checkpoint if op.checkpoint else None
    before = ckpt.stat().st_size if ckpt and ckpt.exists() else 0
    out = session.workdir / "stdout.txt"
    reply, record = spawn(op.argv, session, session.trace, out)
    code = reply["exit"]
    after = ckpt.stat().st_size if ckpt and ckpt.exists() else 0
    problems: list = []
    if code != 0:
        problems.append(f"exit {code}, expected 0: {_stderr_tail(session)}")
    else:
        digest = _sha256(out)
        if digest not in session.verified:
            try:
                report = json.loads(out.read_bytes())
                found = op.check(report)
                value = report.get("value")
            except (ValueError, KeyError, TypeError) as exc:
                found, value = [f"unreadable report: {exc!r}"], None
            session.verified[digest] = (found, value)
        found, value = session.verified[digest]
        problems += found
        session.values[op.label] = value
        known = session.reports.setdefault(op.report_key, digest)
        if known != digest:
            problems.append(f"report bytes differ from earlier runs of {op.report_key!r}")
        if op.same_value_as and session.values.get(op.same_value_as) != value:
            problems.append(f"value differs from {op.same_value_as!r}")
    return OpRun(
        op=op,
        wall_s=reply["wall_s"],
        cpu_s=reply["cpu_s"],
        rss_mb=reply["maxrss_kb"] / 1024.0,
        setup_s=record.get("setup_s"),
        report_bytes=out.stat().st_size if op.argv[0] == "cli" else 0,
        checkpoint_bytes=after - before,
        problems=problems,
        trace=record if session.trace else None,
    )


def run_pass(wl, session: Session) -> list:
    for path in session.workdir.glob("*.ndjson"):
        path.unlink()
    return [run_op(op, session) for op in wl.ops]


def torn_probe(probe, seed: int, session: Session) -> dict:
    """Cut the last record of a complete checkpoint at a seeded offset, resume."""
    data = (session.workdir / probe.source).read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    last = len(data) - start
    keep = 1 + random.Random(seed).randrange(last - 2)
    (session.workdir / probe.argv[probe.argv.index("--checkpoint") + 1]).write_bytes(
        data[: start + keep]
    )
    out = session.workdir / "stdout.txt"
    code = spawn(probe.argv, session, False, out)[0]["exit"]
    ok = code == 0 and _sha256(out) == session.reports.get(probe.group)
    return {"cut_at": f"{keep} of {last} bytes of the last record", "exit": code, "ok": ok}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def fastest(runs: list, attr: str) -> float:
    """Sum over operations of each one's fastest value of attr in the run.

    On a shared machine, contention only ever adds time, and it comes in
    phases of seconds: a window's median moves with the host's load, while
    an operation's fastest repetition across passes stays put.
    """
    best: dict = {}
    for r in runs:
        best[r.op.label] = min(best.get(r.op.label, inf), getattr(r, attr))
    return sum(best.values())


def end_to_end(runs: list, setups: list) -> dict:
    return {
        "setup_s": min(setups),
        "wall_s": fastest(runs, "wall_s"),
        "cpu_s": fastest(runs, "cpu_s"),
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }


def layer_counts(runs: list) -> dict:
    """Per-layer metrics of one pass, read off its spans and counters."""
    spans = [s for r in runs for s in r.trace.get("spans", [])]
    counters: dict = {}
    for r in runs:
        for k, v in r.trace.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v

    def module(name, key):
        return sum(s[key] for s in spans if s["name"].startswith(name + "."))

    def fn(name, key):
        return sum(s[key] for s in spans if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    tally_s = fn("latin.signed_tally", "self_s") + fn("latin.column_order_tally", "self_s")
    writes = fn("latin.write_checkpoint_record", "calls")
    reused = counters.get("latin.blocks_reused", 0)
    det_s = fn("invariant.exact_det", "total_s")
    return {
        "latin.calls": module("latin", "calls"),
        "latin.busy_s": module("latin", "self_s"),
        "latin.leaves": counters.get("latin.leaves", 0),
        "latin.patterns": counters.get("latin.patterns", 0),
        "latin.leaves_per_s": ratio(counters.get("latin.leaves", 0), tally_s),
        "latin.checkpoint_writes": writes,
        "latin.checkpoint_write_s": fn("latin.write_checkpoint_record", "total_s"),
        "latin.checkpoint_bytes": sum(r.checkpoint_bytes for r in runs),
        "latin.checkpoint_load_s": fn("latin.load_checkpoint", "total_s"),
        "latin.blocks_reused": reused,
        "latin.reuse_ratio": ratio(reused, reused + writes),
        "tensors.calls": module("tensors", "calls"),
        "tensors.busy_s": module("tensors", "self_s"),
        "tensors.symmetrizer_calls": fn("tensors.apply_symmetrizer", "calls"),
        "tensors.symmetrizer_s": fn("tensors.apply_symmetrizer", "total_s"),
        "tensors.symmetrizer_terms": counters.get("tensors.symmetrizer_terms", 0),
        "tensors.budget_refusals": counters.get("tensors.budget_refusals", 0),
        "invariant.calls": module("invariant", "calls"),
        "invariant.busy_s": module("invariant", "self_s"),
        "invariant.det_power_calls": fn("invariant.polarized_det_power", "calls"),
        "invariant.det_power_s": fn("invariant.polarized_det_power", "total_s"),
        "invariant.det_evals": fn("invariant.exact_det", "calls"),
        "invariant.det_s": det_s,
        "invariant.det_evals_per_s": ratio(fn("invariant.exact_det", "calls"), det_s),
        "orbit.calls": module("orbit", "calls"),
        "orbit.busy_s": module("orbit", "self_s"),
        "orbit.candidates": counters.get("orbit.candidates", 0),
        "orbit.permanent_calls": fn("orbit.permanent", "calls"),
        "kronecker.calls": module("kronecker", "calls"),
        "kronecker.busy_s": module("kronecker", "self_s"),
        "kronecker.sk_evals": fn("kronecker.symmetric_kronecker_coeff", "calls"),
        "kronecker.sk_s": fn("kronecker.symmetric_kronecker_coeff", "total_s"),
        "cli.calls": module("cli", "calls"),
        "cli.self_s": module("cli", "self_s"),
        "cli.report_bytes": sum(r.report_bytes for r in runs),
    }


def per_layer(passes: list, torn_failures: int) -> tuple:
    """The run's per-layer metrics: medians over passes of each pass's
    counts and times, and the run-wide figures.  Also returns the passes'
    own counts, for the deterministic-count check."""
    layers = [layer_counts(p) for p in passes]
    metrics = {k: median(m[k] for m in layers) for k in layers[0]}
    runs = [r for p in passes for r in p]
    metrics["latin.torn_resume_failures"] = torn_failures
    # The traced counterpart of wall_s, without the traced prelude.
    metrics["trace.wall_s"] = fastest([r for r in runs if not r.op.traced_only], "wall_s")
    metrics["resume_s"] = fastest([r for r in runs if r.op.resume], "wall_s")
    return {k: metrics[k] for k in PER_LAYER}, layers


def high_percentile(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"p-high n/a (n={n} < 11)"
    k = n - 10  # the k-th smallest value has n - k = 10 samples above it
    return f"p{100 * k // n} {sorted(values)[k - 1]:.4f} (n={n})"


# ---------------------------------------------------------------------------
# Persistent state: report digests and work counts, per program version.
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """Hash of the program and of the benchmark, which defines the counts."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def load_state(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"reports": {}, "counts": {}}


def save_state(path: Path, state: dict) -> None:
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WHY))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 170 - OVERRUN_S:
        ap.error(f"--seconds must be in (0, {170 - OVERRUN_S:g}], so that a run "
                 "ends within 170 s")
    if not (ROOT / "src" / "detorbit" / "cli.py").is_file():
        print(f"no detorbit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    t_start = perf_counter()
    base = ROOT / ".perfbench_work"
    workdir = base / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    state_path = base / f"state-{source_digest()}.json"
    state = load_state(state_path)
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    session = Session(
        workdir=workdir,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        trace=bool(args.trace),
        reports=dict(state["reports"]),
        spawner=start_spawner(workdir),
        deadline=t_start + args.seconds + OVERRUN_S,
    )
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            wl.ops[:0] = workloads.traced_prelude()
        passes, durations, torn = [], [], None
        while True:
            t0 = perf_counter()
            passes.append(run_pass(wl, session))
            durations.append(perf_counter() - t0)
            if wl.torn and torn is None:  # needs the complete file of pass 1
                torn = torn_probe(wl.torn, args.seed, session)
            if perf_counter() - t_start + median(durations) > args.seconds:
                break
    finally:
        stop_spawner(session.spawner)
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r for p in passes for r in p]
    setups = [r.setup_s for r in runs if r.setup_s is not None]
    failed = [r for r in runs if r.problems]
    problems: list = []

    print(f"# detorbit benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"# why: {WHY[args.workload]}")
    print(f"# machine: nproc={os.cpu_count()} "
          f"(usable {len(os.sched_getaffinity(0))}), Python {platform.python_version()}, "
          f"{platform.system()} {platform.machine()}")
    print(f"# {workloads.EXCLUDED}")
    print("# load: closed loop, one client, one operation at a time, each in a "
          "fresh interpreter")
    for k, runs_k in enumerate(passes, 1):
        print(f"# pass {k}: {sum(r.wall_s for r in runs_k):.3f} s of operations")
        for r in runs_k:
            setup = f"{r.setup_s:.4f}" if r.setup_s is not None else "-"
            status = "ok" if not r.problems else "FAIL " + "; ".join(r.problems)
            print(f"#   {r.wall_s:8.3f} s wall {r.cpu_s:8.3f} s cpu {r.rss_mb:7.1f} MB "
                  f"setup {setup:>6}  {r.op.label}: {status}")
    if torn is not None:
        verdict = "ok" if torn["ok"] else "FAILS (known defect: ROADMAP item 4 bug (b))"
        print(f"# torn-checkpoint probe (untimed, not in attempted/failed): cut at "
              f"{torn['cut_at']}, exit {torn['exit']}: {verdict}")
    print(f"# error_rate: {len(failed)}/{len(runs)} operations failed")

    if args.trace:
        metrics, layers = per_layer(passes, 0 if torn is None or torn["ok"] else 1)
        counts = {k: layers[0][k] for k in DETERMINISTIC}
        if any({k: m[k] for k in DETERMINISTIC} != counts for m in layers):
            problems.append("work counts differ between passes")
        known = state["counts"].setdefault(args.workload, counts)
        if known != counts:
            problems.append(f"work counts {counts} differ from earlier runs {known}")
        units = PER_LAYER
        trace_path = base / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "why": WHY[args.workload],
            "passes": [[{"op": r.op.label, "wall_s": r.wall_s, **r.trace} for r in p]
                       for p in passes],
        }), encoding="utf-8")
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(runs, setups)
        units = END_TO_END
        print(f"# set-up per operation: fastest {min(setups):.4f} s, median "
              f"{median(setups):.4f} s, {high_percentile(setups)}")
        pass_walls = [sum(r.wall_s for r in p) for p in passes]
        print(f"# wall time per pass: median {median(pass_walls):.3f} s, "
              f"{high_percentile(pass_walls)}; with each operation at its fastest "
              f"{metrics['wall_s']:.3f} s")
        resumes = [r for r in runs if r.op.resume]
        if resumes:  # a per-layer metric, also shown where the workload resumes
            print(f"# resume_s: {fastest(resumes, 'wall_s'):.4f} s, the resumes at "
                  f"their fastest")
    for k, v in metrics.items():
        print(f"# {k} = {v:.6g} {units[k]}")
    for p in problems:
        print(f"# FAIL {p}")

    correct = not failed and not problems
    if correct:
        state["reports"] = session.reports
        save_state(state_path, state)
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
