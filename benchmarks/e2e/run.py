"""End-to-end benchmark of the repro package: one command, every metric.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--quick] [--check-stability] [--out DIR]

For each workload (all five when ``--workload`` is absent) this driver
times the set-up in fresh interpreters, then hands the workload to one
fresh ``child.py`` process that runs the sequential engine, the
simulated cluster and the real-process executor with tracing off,
checks every answer against the benchmark's own oracle and reports the
walls; ``--trace 1`` reports the per-layer metrics instead.  Every
metric is printed by name with its unit, and the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The metric catalogue (names, units, bounds) is ``BENCHMARK.json`` at the
root of the checkout; see README.md beside this file for what each
metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD = str(HERE / "child.py")
SETUP_SAMPLES = 5
# The contract gives one run 180 s; the child is killed before that.
CHILD_DEADLINE_S = 165.0
EXACT_COUNTERS = ("engine.firings", "engine.probes", "engine.iterations",
                  "engine.facts_out", "sim.rounds", "sim.tuples_sent",
                  "sim.channel_messages", "sim.channel_bytes", "sim.firings")


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a counted failure)."""


def load_catalogue():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint():
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        if found.returncode == 0:
            commit = found.stdout.strip()
    nproc = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": nproc,
        # Two workers need two cores; with fewer the mp walls measure
        # time-slicing and are printed but flagged.
        "oversubscribed": nproc < 2,
        "load_1min": os.getloadavg()[0],
        "commit": commit,
    }


def fresh_python(arguments, environment=None):
    """Wall seconds of one fresh interpreter running ``arguments``."""
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *arguments], env=environment,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_DEADLINE_S)
    seconds = time.perf_counter() - started
    if done.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(arguments)} exited {done.returncode}:\n{done.stderr}")
    return seconds


def run_child(arguments, deadline):
    """Run the measuring child; return its JSON document.

    The child leads its own process group so that a child that outlives
    ``deadline`` is killed together with any worker it spawned.
    """
    child = subprocess.Popen([sys.executable, CHILD, *arguments],
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        output, _ = child.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except BaseException as error:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchmarkError(
                "the measuring process outlived its deadline") from None
        raise
    if child.returncode != 0:
        raise BenchmarkError(f"the measuring process exited {child.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def describe(samples):
    """Median with quartiles, range and count, for the printed report."""
    if len(samples) < 2:
        return f"n={len(samples)}"
    low, _, high = statistics.quantiles(samples, n=4)
    return (f"q1 {low:.4f}  q3 {high:.4f}  min {min(samples):.4f}  "
            f"max {max(samples):.4f}  n={len(samples)}")


def run_workload(name, options, catalogue, out):
    """Measure one workload; return its record, result line included."""
    started = time.perf_counter()
    common = ["--workload", name, "--seed", str(options.seed)]
    if options.quick:
        common.append("--quick")
    trace = bool(options.trace)
    samples = {}
    if trace:
        environment = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(
            None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        samples["cli.import_s"] = [
            fresh_python(["-c", "import repro"], environment)
            for _ in range(1 if options.quick else SETUP_SAMPLES)]
    else:
        samples["setup_s"] = [
            fresh_python([CHILD, "--phase", "setup", *common])
            for _ in range(1 if options.quick else SETUP_SAMPLES)]
    spans = out / f"{name}-seed{options.seed}-spans.jsonl"
    document = run_child(
        ["--phase", "measure", *common, "--seconds", str(options.seconds),
         "--trace", str(int(trace)), "--spans", str(spans)],
        deadline=started + CHILD_DEADLINE_S)

    for executor, walls in document["walls"].items():
        samples[f"{executor}_wall_s"] = walls
    values = {metric: statistics.median(walls)
              for metric, walls in samples.items() if walls}
    if trace:
        values.update(document["layers"])
        declared = catalogue["per_layer"]
    else:
        values["peak_rss_mb"] = document["peak_rss_mb"]
        declared = catalogue["end_to_end"]
    attempted = document["attempted"]
    failed = len(document["failures"])

    print(f"== {name}  seed {options.seed}  "
          f"{'per-layer (traced)' if trace else 'end-to-end (tracing off)'}"
          f"{'  QUICK: not comparable' if options.quick else ''}")
    print(f"   edb {document['edb_facts']} facts, answer "
          f"{document['oracle_facts']} facts, {attempted} runs, "
          f"{failed} failed, {time.perf_counter() - started:.1f} s")
    for failure in document["failures"]:
        print(f"   FAILED {failure}")
    metrics = {}
    for entry in declared:
        metric, unit = entry["name"], entry["unit"]
        if metric not in values:
            # Only a failed executor leaves a declared metric without a
            # sample; the run is reported incorrect below.
            print(f"   {metric:32s} (no sample)")
            continue
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"   {metric:32s} {values[metric]:14.6g} {unit:10s}"
              f"{describe(samples[metric]) if metric in samples else ''}")
    missing = len(declared) - len(metrics)
    line = {"correct": failed == 0 and missing == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return {"workload": name, "seed": options.seed, "quick": options.quick,
            "trace": trace, "samples": samples, "child": document, **line}


def run_all(names, options, catalogue, out, tag=""):
    """Measure ``names`` in turn; write and return the result document."""
    records = {"fingerprint": fingerprint(), "workloads": {}}
    print("fingerprint " + json.dumps(records["fingerprint"]))
    for name in names:
        records["workloads"][name] = run_workload(name, options, catalogue,
                                                  out)
    mode = "quick" if options.quick else "trace" if options.trace else "e2e"
    which = names[0] if len(names) == 1 else "all"
    path = out / f"results-{mode}-{which}-seed{options.seed}{tag}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)
    return records


def check_stability(names, options, catalogue, out):
    """Two back-to-back untraced runs must agree within the bounds."""
    first_records = run_all(names, options, catalogue, out, "-a")
    second_records = run_all(names, options, catalogue, out, "-b")
    violations = []
    spread = {}
    for name in names:
        first = first_records["workloads"][name]
        second = second_records["workloads"][name]
        if not (first["correct"] and second["correct"]):
            violations.append(f"{name}: a run failed, nothing to compare")
            continue
        for entry in catalogue["end_to_end"]:
            metric = entry["name"]
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            share = abs(a - b) / a
            spread.setdefault(name, {})[metric] = share
            if share > entry["bound"]:
                violations.append(f"{name} {metric}: {a:.4f} vs {b:.4f} "
                                  f"differ by {share:.1%} > {entry['bound']:.0%}")
        for record, label in ((first, "first"), (second, "second")):
            for runs in record["child"]["counters"].values():
                for counter in EXACT_COUNTERS:
                    seen = {run[counter] for run in runs if counter in run}
                    if len(seen) > 1:
                        violations.append(f"{name} {counter} varied within "
                                          f"the {label} run: {sorted(seen)}")
        for executor in ("seq", "sim"):
            a = first["child"]["counters"][executor]
            b = second["child"]["counters"][executor]
            if a and b and a[0] != b[0]:
                violations.append(f"{name} {executor} counters differ between "
                                  f"the runs: {a[0]} vs {b[0]}")
    with open(out / "stability.json", "w", encoding="utf-8") as handle:
        json.dump({"fingerprint": first_records["fingerprint"],
                   "spread": spread, "violations": violations}, handle,
                  indent=1)
    print("== stability: share by which the two runs differ")
    for name, shares in spread.items():
        print(f"   {name:20s} " + "  ".join(
            f"{metric} {share:.3f}" for metric, share in shares.items()))
    for violation in violations:
        print(f"   UNSTABLE {violation}")
    return 1 if violations else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="reaches only the input generators")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: small graphs, one repetition")
    parser.add_argument("--check-stability", action="store_true",
                        help="run the untraced benchmark twice and compare")
    parser.add_argument("--out", default=None,
                        help="directory for result and span files "
                             "(default: .bench_out in the checkout)")
    options = parser.parse_args(argv)

    toggles = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if toggles:
        print(f"refusing to run with {', '.join(toggles)} set: the benchmark "
              "measures the defaults", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    try:
        catalogue = load_catalogue()
        if options.seconds is None:
            options.seconds = float(catalogue["run_seconds"])
        out = pathlib.Path(options.out) if options.out else ROOT / ".bench_out"
        out.mkdir(parents=True, exist_ok=True)
        names = [options.workload] if options.workload else list(WORKLOADS)
        if options.check_stability:
            options.trace = 0
            return check_stability(names, options, catalogue, out)
        records = run_all(names, options, catalogue, out)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 3
    return 0 if all(record["correct"]
                    for record in records["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
