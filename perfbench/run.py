"""focusrl benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tiny-train --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; the program is imported from
the checkout's `src/`.  With `--trace 0` the result line carries the
end-to-end metrics.  With `--trace 1` every step runs twice, untraced and
then traced, and the result line carries the per-layer metrics derived from
the traced spans plus the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Run files (generated config, spans, the full result record) go to
`.perfbench_runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread and no evaluation threads, fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FOCUSRL_THREADS", None)

import spans  # noqa: E402  (after the pin; spans itself loads no numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups repeat until there are at least MIN_SETUPS and SETUP_SECONDS of
# them, so cheap set-ups get enough samples; setup_s is their median.
MIN_SETUPS = 3
SETUP_SECONDS = 5.0
MIN_ORACLE_OPS = 10

END_TO_END = [
    ("setup_s", "s"),
    ("env_steps_per_s", "steps/s"),
    ("oracle_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_program() -> None:
    """Import focusrl from this checkout's src/, or exit nonzero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import focusrl
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import focusrl from {src}: {exc}")
    if src.resolve() not in Path(focusrl.__file__).resolve().parents:
        sys.exit(f"perfbench: focusrl resolved to {focusrl.__file__}, not under {src}")


# -- run record -----------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count read back from the loaded OpenBLAS, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args: argparse.Namespace, horizon: dict | None, config: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = blas_threads()
    if threads is not None and threads != 1:
        sys.exit(f"perfbench: BLAS pin did not take effect ({threads} threads)")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads if threads is not None else "unverified",
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "horizon": horizon,
        "config": config,
    }


# -- the run ---------------------------------------------------------------


class Run:
    """One benchmark run: set-ups, then rounds of operations until time is up."""

    def __init__(self, args: argparse.Namespace, workload):
        self.args = args
        self.workload = workload
        self.dir = ROOT / ".perfbench_runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "ops").mkdir(parents=True)
        self.recorder = spans.Recorder() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.untraced_s = 0.0
        self.overhead_s = 0.0
        self.samples: dict[str, list[float]] = {"setup_s": [], "env_steps_per_s": [],
                                                "oracle_s": []}
        self.ops: list[dict] = []

    def step(self, kind: str, fn):
        """One operation; in trace mode, untraced first and then traced."""
        result, wall = self._attempt(kind, fn, traced=False)
        if self.recorder is not None:
            result, traced_wall = self._attempt(kind, fn, traced=True)
            self.overhead_s += traced_wall - wall
        return result

    def _attempt(self, kind: str, fn, traced: bool):
        self.attempted += 1
        restore = None
        if traced:
            self.recorder.op = self.attempted
            restore = spans.install(self.recorder)
        start = time.perf_counter()
        try:
            result, failures = fn()
        except Exception:  # an operation boundary: record the failure, keep going
            result, failures = None, [f"{kind}: {traceback.format_exc()}"]
        finally:
            wall = time.perf_counter() - start
            if restore is not None:
                restore()
                self.recorder.op = None
        if not traced:
            self.untraced_s += wall
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED {failure}", flush=True)
        elif not traced:
            self._sample(kind, result, wall)
        return result, wall

    def _sample(self, kind: str, result, wall: float) -> None:
        if kind == "setup":
            self.samples["setup_s"].append(wall)
            print(f"op setup: {wall:.4f} s", flush=True)
            return
        self.ops.append({"kind": kind, **result})
        if kind == "oracle":
            self.samples["oracle_s"].append(result["wall_s"])
            vi = result["value_iteration"]
            print(f"op oracle: {result['wall_s']:.4f} s; value-iteration greedy accuracy "
                  f"{vi['accuracy']:.3f} avg_steps {vi['avg_steps']:.3f}; hill-climb accuracy "
                  f"{result['hill_climb']['accuracy']:.3f}; scan argmax {result['scan_argmax']}",
                  flush=True)
            return
        self.samples["env_steps_per_s"].append(result["rate"])
        final = result["final_eval"]
        line = (f"op {kind}: {result['steps']} env steps in {result['wall_s']:.3f} s"
                f" -> {result['rate']:.4f} steps/s")
        if kind == "train":
            line += (f" (its {result['eval_steps']} evaluation steps, {result['eval_s']:.3f} s,"
                     f" excluded); train_log.csv sha256 {result['train_log_sha256'][:16]}")
        line += (f"; final eval accuracy {final['accuracy']:.3f} avg_steps "
                 f"{final['avg_steps']:.3f} outcomes {final['outcome_counts']}")
        print(line, flush=True)

    def _train(self, setup, index: int):
        import workloads

        out = self.dir / "ops" / str(self.attempted)
        try:
            return workloads.train_op(setup, self.args.seed, index, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def execute(self) -> int:
        import workloads
        from focusrl.net import count_macs

        args, w = self.args, self.workload
        config = workloads.generate_config(w, args.seed)
        config_path = self.dir / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
        record = run_record(args, w.train, config)
        print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print(f"record {json.dumps(record, sort_keys=True)}", flush=True)

        setup, setups = None, 0
        while (setups < MIN_SETUPS or self.untraced_s < SETUP_SECONDS) and self.failed == 0:
            setup = None  # release the previous stack before building the next
            setup = self.step("setup", lambda: workloads.setup(w, config_path, self.dir))
            setups += 1
        if self.failed:
            print("FAILED setup: no usable set-up; nothing else can run")
            return self.finish(record, {})

        measured_from = self.untraced_s
        rounds = 0
        while True:
            before = self.untraced_s
            if w.train is not None:
                self.step("train", lambda: self._train(setup, rounds))
            else:
                self.step("eval", lambda: workloads.eval_op(setup))
            self.step("oracle", lambda: workloads.oracle_op(setup))
            rounds += 1
            round_s = self.untraced_s - before
            if self.untraced_s - measured_from + round_s > args.seconds:
                break
        # Oracle operations fill the rest of the run, and number at least
        # MIN_ORACLE_OPS: the machine's speed drifts over seconds, so
        # oracle_s averages over as long a stretch as the run allows.
        while self.failed == 0 and (len(self.samples["oracle_s"]) < MIN_ORACLE_OPS
                                    or self.untraced_s - measured_from < args.seconds):
            self.step("oracle", lambda: workloads.oracle_op(setup))

        if self.recorder is None:
            return self.finish(record, self.end_to_end())
        span_path = self.dir / "spans.jsonl"
        self.recorder.write(span_path)
        metrics, lines = spans.layer_metrics(span_path, count_macs(setup.arch),
                                             self.overhead_s)
        for line in lines:
            print(f"layer {line}")
        return self.finish(record, metrics)

    def end_to_end(self) -> dict:
        metrics = {}
        for name, unit in END_TO_END:
            if name == "peak_rss_mb":
                # ru_maxrss is in KiB on Linux.
                value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                basis = "ru_maxrss of this process"
            elif name == "oracle_s":
                # The mean, not the median: the machine switches between a
                # fast and a slow state for seconds at a time, and the
                # median of such a mixture jumps from one state to the
                # other where the mean moves with the share of each.
                values = self.samples[name]
                value = statistics.fmean(values) if values else 0.0
                basis = f"mean of {len(values)}"
            else:
                values = self.samples[name]
                value = statistics.median(values) if values else 0.0
                basis = f"median of {len(values)}"
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} {value:.6g} {unit} ({basis})")
        return metrics

    def finish(self, record: dict, metrics: dict) -> int:
        info = self.informational()
        for key, value in info.items():
            print(f"info {key}: {json.dumps(value, sort_keys=True)}")
        rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"error_rate = {self.failed}/{self.attempted} = {rate:.4f} ratio "
              f"(operations whose output check failed / operations attempted)")
        result = {
            "correct": self.failed == 0 and bool(metrics),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        (self.dir / "result.json").write_text(
            json.dumps({"record": record, "result": result, "ops": self.ops, "info": info},
                       indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        shutil.rmtree(self.dir / "ops", ignore_errors=True)
        print(json.dumps(result, sort_keys=True), flush=True)
        return 0

    def informational(self) -> dict:
        """Learning-quality outputs that are recorded but never gated on."""
        played = [op for op in self.ops if op["kind"] != "oracle"]
        oracles = [op for op in self.ops if op["kind"] == "oracle"]
        info: dict = {}
        if played:
            final = played[-1]["final_eval"]
            info["final_eval"] = final
            if "train_log_sha256" in played[0]:
                info["train_log_sha256"] = [op["train_log_sha256"] for op in played]
            if oracles:
                vi = oracles[-1]["value_iteration"]
                info["oracle_gap"] = {
                    "accuracy": final["accuracy"] - vi["accuracy"],
                    "avg_steps": final["avg_steps"] - vi["avg_steps"],
                }
        return info


def parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, overrides: dict | None = None) -> int:
    """Entry point; `overrides` replaces workload definitions (smoke test)."""
    import_program()
    import workloads

    table = {**workloads.WORKLOADS, **(overrides or {})}
    args = parse_args(argv, sorted(table))
    return Run(args, table[args.workload]).execute()


if __name__ == "__main__":
    sys.exit(main())
