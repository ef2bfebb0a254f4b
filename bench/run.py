"""Benchmark of bigraded: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):
  report-scrambled  `bigraded report FILE --rmax 4`, one fresh interpreter per input
  towers-hodge      towers, BC/A, verdicts and Hodge theory on Calabi-Eckmann models
                    (runnable by hand; not in BENCHMARK.json, see bench/README.md)
  batch-small       93 small scrambled complexes end to end, including pairings

The seed picks only the random changes of basis and Gram entries.  A run
times the workload's set-up SETUP_REPEATS times, then repeats whole rounds
of the fixed batch, each in fresh processes, as long as another round is
expected to end within S seconds (always at least one round).
Every operation of the first round is checked (bench/checks.py); later rounds
must reproduce its outputs byte for byte.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics from spans with --trace 1).
Files are written under .bench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("report-scrambled", "towers-hodge", "batch-small")
RMAX = 4
SETUP_REPEATS = 9
CHILD_TIMEOUT = 100
# what the installed `bigraded` console script runs
CLI = "import sys; from bigraded.cli import main; sys.exit(main())"

# per-layer metrics: (name, unit, better); derived in `layer_metrics`
LAYER_METRICS = [
    ("cli.self_s", "s", "lower"),
    ("cli.load_input.self_s", "s", "lower"),
    ("cli.build_report.self_s", "s", "lower"),
    ("cli.render_json.self_s", "s", "lower"),
    ("bicomplex.self_s", "s", "lower"),
    ("bicomplex.validate.self_s", "s", "lower"),
    ("bicomplex.de_rham_dims.self_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.entries", "count", "lower"),
    ("linalg.rank_bareiss.calls", "count", "lower"),
    ("linalg.rank_bareiss.self_s", "s", "lower"),
    ("linalg.matrix_init.calls", "count", "lower"),
    ("linalg.matrix_init.self_s", "s", "lower"),
    ("linalg.solve_tower.calls", "count", "lower"),
    ("linalg.solve_tower.self_s", "s", "lower"),
    ("linalg.kernel_basis.calls", "count", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("spectral.space.calls", "count", "lower"),
    ("spectral.space.built", "count", "lower"),
    ("spectral.space.hit_ratio", "ratio", "higher"),
    ("spectral.degeneration_page.self_s", "s", "lower"),
    ("spectral.page_dims.self_s", "s", "lower"),
    ("bca.self_s", "s", "lower"),
    ("bca.bca_dims.calls", "count", "lower"),
    ("bca.bca_dims.self_s", "s", "lower"),
    ("bca.page_ddbar_verdict.self_s", "s", "lower"),
    ("bca.inequality_check.self_s", "s", "lower"),
    ("zigzag.self_s", "s", "lower"),
    ("zigzag.multiplicity_solve.calls", "count", "lower"),
    ("zigzag.multiplicity_solve.self_s", "s", "lower"),
    ("zigzag.multiplicity_solve.total_s", "s", "lower"),
    ("zigzag.hom_dim.calls", "count", "lower"),
    ("zigzag.hom_dim.self_s", "s", "lower"),
    ("zigzag.verify_certificate.self_s", "s", "lower"),
    ("models.self_s", "s", "lower"),
    ("models.build_shape.calls", "count", "lower"),
    ("models.build_shape.self_s", "s", "lower"),
    ("models.build_cdga.self_s", "s", "lower"),
    ("hodge.self_s", "s", "lower"),
    ("hodge.harmonic_tower.self_s", "s", "lower"),
    ("hodge.three_space_decomposition.self_s", "s", "lower"),
    ("hodge.bc_a_harmonic_spaces.calls", "count", "lower"),
    ("hodge.bc_a_harmonic_spaces.self_s", "s", "lower"),
    ("hodge.flipped_adjoint_workspace.calls", "count", "lower"),
    ("pairing.self_s", "s", "lower"),
    ("pairing.validate_pairing.self_s", "s", "lower"),
    ("pairing.induced_pairing.self_s", "s", "lower"),
]
INDUCED = ("pairing.induced_pairing_er", "pairing.induced_pairing_bc_a",
           "pairing.induced_pairing_bc_bc")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"  # same set iteration order in every process
    return env


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_child(cmd, env, stdout=subprocess.PIPE):
    return subprocess.run(cmd, env=env, stdout=stdout, timeout=CHILD_TIMEOUT, check=False)


def measure_setup(manifest_path, env):
    """Median over SETUP_REPEATS fresh interpreters of import + load + validate."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = run_child([sys.executable, str(BENCH / "worker.py"), "setup",
                          str(manifest_path)], env)
        if proc.returncode != 0:
            raise SystemExit("set-up failed")
        times.append(json.loads(proc.stdout)["setup_s"])
    return statistics.median(times)


def report_round(manifest, run_dir, env, trace, index):
    """One `bigraded report` process per input, timed from outside."""
    ops, traces = [], []
    for item in manifest["inputs"]:
        name = item["name"]
        stem = run_dir / f"spans-{name}"
        if trace:
            cmd = [sys.executable, str(BENCH / "spans.py"), str(stem)]
        else:
            cmd = [sys.executable, "-c", CLI]
        cmd += ["report", item["path"], "--rmax", str(RMAX)]
        out_path = run_dir / f"{name}.round{index}.report.json"
        rec = {"name": name}
        cpu0, t0 = children_cpu(), time.perf_counter()
        try:
            with open(out_path, "wb") as fh:
                proc = run_child(cmd, env, stdout=fh)
        except subprocess.TimeoutExpired:
            rec["error"] = f"timed out after {CHILD_TIMEOUT} s"
            ops.append(rec)
            continue
        rec.update(wall=time.perf_counter() - t0, cpu=children_cpu() - cpu0)
        data = out_path.read_bytes()
        if proc.returncode != 0:
            rec["error"] = f"exit code {proc.returncode}: {data[:300]!r}"
        rec["digest"] = hashlib.sha256(data).hexdigest()
        rec["output"] = str(out_path)
        if trace:
            with open(f"{stem}.json") as fh:
                traces.append(json.load(fh)["metrics"])
        ops.append(rec)
    return {"ops": ops, "traces": traces}


def worker_round(manifest_path, run_dir, env, trace, check):
    cmd = [sys.executable, str(BENCH / "worker.py"), "run", str(manifest_path),
           str(run_dir / "round.json")]
    if check:
        cmd.append("--check")
    if trace:
        cmd += ["--trace", str(run_dir / "spans")]
    cpu0, t0 = children_cpu(), time.perf_counter()
    proc = run_child(cmd, env)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    with open(run_dir / "round.json") as fh:
        result = json.load(fh)
    print(f"  round process: {time.perf_counter() - t0:.2f} s wall, "
          f"{children_cpu() - cpu0:.2f} s cpu", file=sys.stderr)
    return {"ops": result["ops"], "traces": [result["trace"]] if trace else []}


def merge_traces(traces):
    spans, counters = {}, {}
    for tr in traces:
        for label, v in tr["spans"].items():
            acc = spans.setdefault(label, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        for k, v in tr["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return {"spans": spans, "counters": counters}


def layer_metrics(trace):
    """Per-layer metric values of one round's merged trace."""
    spans, counters = trace["spans"], trace["counters"]
    module_self = {}
    for label, v in spans.items():
        mod = label.split(".")[0]
        module_self[mod] = module_self.get(mod, 0.0) + v["self_s"]
    space_calls = spans.get("spectral.space", {}).get("calls", 0)
    values = {}
    for name, _, _ in LAYER_METRICS:
        head, _, field = name.rpartition(".")
        if name == "spectral.space.built":
            values[name] = counters["spectral.space.built"]
        elif name == "spectral.space.hit_ratio":
            values[name] = counters["spectral.space.hits"] / space_calls if space_calls else 0.0
        elif name == "linalg.rref.entries":
            values[name] = counters["linalg.rref.entries"]
        elif name == "pairing.induced_pairing.self_s":
            values[name] = sum(spans.get(l, {}).get("self_s", 0.0) for l in INDUCED)
        elif "." not in head:
            values[name] = module_self.get(head, 0.0)
        else:
            values[name] = spans.get(head, {}).get(field, 0)
    return values


def check_rounds(workload, manifest, rounds):
    """Count failed operations; a wrong output also makes the run incorrect."""
    import checks
    attempted = failed = 0
    correct = True
    reference = {}
    for index, rnd in enumerate(rounds):
        for rec in rnd["ops"]:
            attempted += 1
            name = rec["name"]
            if "error" in rec:
                print(f"  FAILED {name} (round {index + 1}): {rec['error']}", file=sys.stderr)
                failed += 1
                continue
            if index == 0:
                if workload == "report-scrambled":
                    item = next(it for it in manifest["inputs"] if it["name"] == name)
                    with open(rec["output"]) as fh:
                        report = json.load(fh)
                    with open(item["path"]) as fh:
                        source = json.load(fh)
                    fails = checks.check_report(report, source, item["inventory"], RMAX)
                else:
                    fails = rec["fails"]
                if not fails:
                    reference[name] = rec["digest"]
            elif reference.get(name) is None:
                fails = ["its first-round output failed"]
            elif rec["digest"] != reference[name]:
                fails = ["output differs from the first round"]
            else:
                fails = []
            if fails:
                correct = False
                failed += 1
                for msg in fails:
                    print(f"  WRONG {name} (round {index + 1}): {msg}", file=sys.stderr)
    return correct, attempted, failed


def batch_totals(rounds, field):
    """Sum over operations of the per-operation median across rounds."""
    per_op = {}
    for rnd in rounds:
        for rec in rnd["ops"]:
            if "error" not in rec:
                per_op.setdefault(rec["name"], []).append(rec[field])
    return sum(statistics.median(v) for v in per_op.values())


def main(argv=None):
    args = parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "bigraded" / "__init__.py").is_file():
        print(f"error: bigraded sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import inputs

    run_dir = OUT / args.workload  # one run's files at a time
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    manifest = inputs.write_inputs(args.workload, args.seed, run_dir)
    inputs.check_makeup(manifest)
    manifest_path = run_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    env = child_env()

    setup_s = measure_setup(manifest_path, env)
    rounds, round_s = [], []
    t_start = time.perf_counter()
    # start a round only if a round as long as the longest so far still ends in time
    while not rounds or time.perf_counter() - t_start + max(round_s) <= args.seconds:
        print(f"round {len(rounds) + 1}", file=sys.stderr)
        t0 = time.perf_counter()
        if args.workload == "report-scrambled":
            rounds.append(report_round(manifest, run_dir, env, args.trace, len(rounds) + 1))
        else:
            rounds.append(worker_round(manifest_path, run_dir, env, args.trace,
                                       check=not rounds))
        round_s.append(time.perf_counter() - t0)
    correct, attempted, failed = check_rounds(args.workload, manifest, rounds)
    (run_dir / "rounds.json").write_text(json.dumps([rnd["ops"] for rnd in rounds]))

    wall_s = batch_totals(rounds, "wall")
    cpu_s = batch_totals(rounds, "cpu")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(manifest['inputs'])} operations, batch wall {wall_s:.3f} s, "
          f"cpu {cpu_s:.3f} s, set-up {setup_s:.3f} s"
          + (" (traced)" if args.trace else ""))
    if args.trace:
        per_round = [layer_metrics(merge_traces(rnd["traces"])) for rnd in rounds]
        metrics = {name: {"value": statistics.median(v[name] for v in per_round), "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "cpu_s": {"value": cpu_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
