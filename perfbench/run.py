"""The dualdeg benchmark: four workloads, outputs checked against refs.py.

    python3 perfbench/run.py --workload degree --seed 1 --seconds 16 --trace 0

Run from the repository root; dualdeg is imported from ./src.  The run
measures whole sweeps until --seconds have passed and at least MIN_OPS
operations were timed, then prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 every other sweep runs traced and the
metrics are the per-layer ones.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import checks
import workloads

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 16  # the run_seconds of BENCHMARK.json
MIN_OPS = 100  # so that ten operations lie beyond the 90th percentile
SETUP_REPEATS = 5  # fresh interpreters per traced set-up figure
SETUP_SAMPLES = 5  # timed imports: two before the sweeps, one after each of the first three
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
SUITES = ("criterion", "product", "theta", "jellyfish", "collapse", "width", "exceptional", "pinned",
          "conjecture", "random-determinant")
PER_LAYER = {
    **{f"tableaux.{m}": "count" for m in ("determinant.calls", "enumerate_ssyt.calls",
                                           "enumerate_ssyt.cache_hits", "enumerate_ssyt.items")},
    **{f"tableaux.{f}.self_s": "s" for f in ("determinant", "enumerate_ssyt")},
    **{f"dualpair.count_Q_determinant.{fam}.self_s": "s" for fam in ("upq", "mp", "ostar")},
    **{f"dualpair.{m}": "count" for m in ("count_Q_determinant.calls", "enumerate_Q.items", "in_Q_definition.calls")},
    "dualpair.enumerate_Q.self_s": "s",
    **{f"diagrams.{f}.self_s": "s" for f in ("count_P_product", "enumerate_P", "c_statistic", "numerator_polynomial")},
    "diagrams.enumerate_P.items": "count",
    **{f"posets.{f}.self_s": "s" for f in ("width", "enumerate_facets", "theta", "theta_inverse", "corners")},
    "posets.enumerate_facets.items": "count",
    **{f"jellyfish.{f}.self_s": "s" for f in ("enumerate_maximal_F", "enumerate_jellyfish")},
    "jellyfish.enumerate_jellyfish.items": "count",
    **{f"repdims.{f}.self_s": "s" for f in ("dim_F_lambda", "dim_weyl")},
    **{f"degree.{f}.self_s": "s" for f in ("bernstein_degree", "hilbert_report", "verify_all")},
    **{f"degree.suite.{s}.s": "s" for s in SUITES},
    **{f"cli.{m}": "s" for m in ("interpreter_start_s", "import_s", "import.networkx_s", "main.self_s", "emit.self_s")},
    "cli.output_bytes": "bytes",
    **{f"trace.{m}": "s" for m in ("sweep_s", "untraced_sweep_s", "overhead_s")},
}


class Runner:
    def __init__(self, root, workload, seed, trace):
        self.root, self.workload, self.seed, self.trace = root, workload, seed, trace
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.clock = calib.Clock()
        self.failed = 0
        self.problems = []

    def timed(self, argv):
        """Run one child; returns (completed process, calibrated seconds, factor)."""
        self.clock.maybe_sample()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=self.env, cwd=self.root,
                              timeout=CHILD_TIMEOUT_S)
        t1 = time.perf_counter()
        for _ in range(3):
            self.clock.sample()
        factor = self.clock.factor(t0, t1)
        return proc, (t1 - t0) * factor, factor

    def import_time(self):
        """Time to a ready `import dualdeg` in a fresh interpreter."""
        proc, seconds, _ = self.timed([sys.executable, "-c", "import dualdeg"])
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import dualdeg from {self.root / 'src'}: {proc.stderr[-500:]}")
        return seconds

    def setup(self):
        """Import times after one untimed import that writes the bytecode
        cache; more are taken between sweeps.  Traced runs add the layers."""
        self.import_time()
        self.imports = [self.import_time() for _ in range(2)]
        layers = {}
        if self.trace:
            start = [sys.executable, "-c", "pass"]
            layers["cli.interpreter_start_s"] = statistics.median(self.timed(start)[1] for _ in range(SETUP_REPEATS))
            inner = ("import time; t0 = time.perf_counter(); import networkx; t1 = time.perf_counter(); "
                     "import dualdeg; print(t1 - t0, time.perf_counter() - t0)")
            rows = []
            for _ in range(SETUP_REPEATS):
                proc, _, factor = self.timed([sys.executable, "-c", inner])
                rows.append([float(x) * factor for x in proc.stdout.split()])
            layers["cli.import.networkx_s"] = statistics.median(r[0] for r in rows)
            layers["cli.import_s"] = statistics.median(r[1] for r in rows)
        return layers

    def sweep(self, ops, traced, index):
        """Returns (calibrated seconds per operation, peak MB, layer totals)."""
        if self.workload == "cli":
            return self.cli_sweep(ops, traced)
        job = {"ops": ops, "trace": traced, "spans": None}
        if traced:
            out = self.root / "perfbench" / "out"
            out.mkdir(exist_ok=True)
            job["spans"] = str(out / f"spans-{self.workload}-seed{self.seed}-sweep{index}.tsv")
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job), capture_output=True,
                              text=True, env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
        sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.failed += result["failed"]
        self.problems += result["problems"]
        times = [raw * f for raw, f in zip(result["raw_s"], result["factors"])]
        return times, result["peak_rss_mb"], result.get("layers", {})

    def cli_sweep(self, ops, traced):
        entry = [sys.executable, str(HERE / "cli_shim.py")] if traced else [sys.executable, "-m", "dualdeg.cli"]
        times, layers = [], {}
        for op in ops:
            proc, seconds, factor = self.timed(entry + op["argv"])
            times.append(seconds)
            try:
                payload = json.loads(proc.stdout) if proc.returncode == 0 else None
            except json.JSONDecodeError:
                payload = None
            if payload is None:
                self.failed += 1
                print(f"call failed ({proc.returncode}): {op['argv']}: {proc.stderr[-500:]}", file=sys.stderr)
                continue
            problems = checks.check_cli(op, payload)
            if problems and op.get("fault"):
                self.failed += 1
            else:
                self.problems += [f"{op['argv']}: {p}" for p in problems]
            if traced:
                stats = json.loads(proc.stderr.strip().splitlines()[-1])
                for key in ("main.self_s", "emit.self_s"):
                    layers[f"cli.{key}"] = layers.get(f"cli.{key}", 0.0) + stats[key] * factor
                layers["cli.output_bytes"] = layers.get("cli.output_bytes", 0) + stats["output_bytes"]
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return times, peak_mb, layers

    def run(self, seconds):
        setup_layers = self.setup()
        plan = workloads.plan(self.workload, self.seed)
        min_sweeps, min_ops = (4, 0) if self.trace else (3, MIN_OPS)
        sweeps, attempted, plain_ops = [], 0, 0
        start = time.perf_counter()
        while len(sweeps) < workloads.MAX_SWEEPS and (
            time.perf_counter() - start < seconds or plain_ops < min_ops or len(sweeps) < min_sweeps
        ):
            traced = self.trace and len(sweeps) % 2 == 1
            ops = plan.sweep(len(sweeps))
            times, peak_mb, layers = self.sweep(ops, traced, len(sweeps))
            sweeps.append((traced, times, peak_mb, layers))
            attempted += len(ops)
            plain_ops += 0 if traced else len(ops)
            if len(self.imports) < SETUP_SAMPLES:
                self.imports.append(self.import_time())
        plain = [s for s in sweeps if not s[0]]
        latencies = sorted(t for s in plain for t in s[1])
        metrics = {
            "setup_s": statistics.median(self.imports),
            "sweep_s": statistics.mean(sum(s[1]) for s in plain),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1],
            "peak_rss_mb": statistics.median(s[2] for s in plain),
        }
        units = END_TO_END
        if self.trace:
            traced = [s for s in sweeps if s[0]]
            layer_values = dict.fromkeys(PER_LAYER, 0)
            layer_values.update(setup_layers)
            for name in {key for s in traced for key in s[3]}:
                if name in PER_LAYER:
                    layer_values[name] = statistics.median(s[3].get(name, 0) for s in traced)
            layer_values["trace.sweep_s"] = statistics.mean(sum(s[1]) for s in traced)
            layer_values["trace.untraced_sweep_s"] = metrics["sweep_s"]
            layer_values["trace.overhead_s"] = layer_values["trace.sweep_s"] - metrics["sweep_s"]
            metrics, units = layer_values, PER_LAYER
        print(f"{len(sweeps)} sweeps, {attempted} operations; calibrated sweep seconds "
              + " ".join(f"{sum(s[1]):.3f}" for s in plain), file=sys.stderr)
        for problem in self.problems[:20]:
            print(f"wrong output: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("degree", "hilbert", "oracle", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dualdeg" / "__init__.py").is_file():
        print(f"error: {root} holds no src/dualdeg; run from the repository root", file=sys.stderr)
        return 2
    calib.pin_to_one_cpu()
    result = Runner(root, args.workload, args.seed, bool(args.trace)).run(args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
