"""Command-line entry point.

Batch runs only: every subcommand reads a JSON config plus flags, writes
files, and exits nonzero on any failure.  Re-running a subcommand with the
same config and seed reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import importlib.resources
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from focusrl import agent, baselines
from focusrl.env import AutofocusEnv, EnvConfig
from focusrl.imaging import (
    FocalStack,
    crop,
    generate_stack,
    load_stack,
    render_scene,
    save_stack,
)
from focusrl.net import (
    MAC_BUDGET,
    MAC_TOLERANCE,
    PARAM_BUDGET,
    PARAM_TOLERANCE,
    NetArch,
    atomic_open,
    count_macs,
    count_params,
    load_checkpoint,
)

STACK_GEN_KEYS = {
    "seed",
    "width",
    "height",
    "render_width",
    "render_height",
    "crop_x",
    "crop_y",
    "z_min",
    "z_max",
    "spacing",
    "z_star",
    "blur_gain",
    "view_id",
}


class ConfigError(ValueError):
    """Malformed run configuration."""


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _dataclass_kwargs(section: dict, cls, where: str, skip: set[str] = frozenset()) -> dict:
    allowed = {f.name for f in dataclasses.fields(cls)} - skip
    _check_keys(section, allowed, where)
    return dict(section)


@dataclasses.dataclass(frozen=True)
class StackSource:
    """Either a saved stack directory or generation arguments."""

    path: str | None = None
    gen: dict | None = None

    @classmethod
    def parse(cls, section: Any, where: str) -> "StackSource":
        if not isinstance(section, dict) or not section:
            raise ConfigError(f"{where} must be a non-empty object")
        if "path" in section:
            _check_keys(section, {"path"}, where)
            return cls(path=str(section["path"]))
        _check_keys(section, STACK_GEN_KEYS, where)
        for key in ("seed", "z_min", "z_max", "spacing", "z_star"):
            if key not in section:
                raise ConfigError(f"{where} needs '{key}' (or a 'path')")
        return cls(gen=dict(section))

    def build(self, base_dir: Path | None = None) -> FocalStack:
        if self.path is not None:
            path = Path(self.path)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return load_stack(path)
        return _generate_from_args(self.gen or {})


def _generate_from_args(args: dict) -> FocalStack:
    width = int(args.get("width", 256))
    height = int(args.get("height", 256))
    render_w = int(args.get("render_width", width))
    render_h = int(args.get("render_height", height))
    if render_w < width or render_h < height:
        raise ConfigError("render size must be at least the target size")
    scene = render_scene(int(args["seed"]), render_w, render_h)
    if (render_w, render_h) != (width, height) or "crop_x" in args or "crop_y" in args:
        x = int(args.get("crop_x", 0))
        y = int(args.get("crop_y", 0))
        content = crop(scene.content, x, y, width, height)
        scene = dataclasses.replace(scene, width=width, height=height, content=content)
    return generate_stack(
        scene,
        z_min=float(args["z_min"]),
        z_max=float(args["z_max"]),
        spacing=float(args["spacing"]),
        z_star=float(args["z_star"]),
        blur_gain=float(args.get("blur_gain", 0.5)),
        view_id=args.get("view_id"),
    )


@dataclasses.dataclass(frozen=True)
class RunConfig:
    seed: int
    stack: StackSource
    env: dict
    net: dict
    train: dict
    test_stacks: dict[str, StackSource]

    TOP_KEYS = {"seed", "stack", "env", "net", "train", "test_stacks"}

    @classmethod
    def parse(cls, doc: Any) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        _check_keys(doc, cls.TOP_KEYS, "config")
        if "seed" not in doc:
            raise ConfigError("config needs a 'seed'")
        if "stack" not in doc:
            raise ConfigError("config needs a 'stack' section")
        # The env renders at the net's input size, `net.input_size`.
        env = _dataclass_kwargs(doc.get("env", {}), EnvConfig, "env",
                                skip={"stack", "net_input_size"})
        net = _dataclass_kwargs(doc.get("net", {}), NetArch, "net")
        train = _dataclass_kwargs(doc.get("train", {}), agent.Hyperparams, "train")
        tests = {
            name: StackSource.parse(sub, f"test_stacks.{name}")
            for name, sub in doc.get("test_stacks", {}).items()
        }
        return cls(
            seed=int(doc["seed"]),
            stack=StackSource.parse(doc["stack"], "stack"),
            env=env,
            net=net,
            train=train,
            test_stacks=tests,
        )

    def env_config(self, stack: FocalStack) -> EnvConfig:
        return EnvConfig(stack=stack, net_input_size=self.net_arch().input_size, **self.env)

    def net_arch(self) -> NetArch:
        return NetArch(**{k: tuple(v) if isinstance(v, list) else v for k, v in self.net.items()})

    def hyperparams(self) -> agent.Hyperparams:
        if "total_timesteps" not in self.train:
            raise ConfigError("train section needs 'total_timesteps'")
        return agent.Hyperparams(**self.train)


def load_config(spec: str) -> tuple[RunConfig, dict]:
    """Load a config from a file path or a bundled preset name."""
    path = Path(spec)
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
    else:
        name = spec[:-5] if spec.endswith(".json") else spec
        resource = importlib.resources.files("focusrl.presets") / f"{name}.json"
        if not resource.is_file():
            raise ConfigError(f"no config file or preset named '{spec}'")
        doc = json.loads(resource.read_text(encoding="utf-8"))
    return RunConfig.parse(doc), doc


def list_presets() -> list[str]:
    root = importlib.resources.files("focusrl.presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _require_empty_dir(path: Path) -> None:
    if path.exists() and any(path.iterdir()):
        raise FileExistsError(f"refusing to write into non-empty directory {path}")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _machine_info() -> dict:
    """The software and CPU a run was made on.

    Bit-for-bit reproducibility rests on the BLAS build: its kernels fix
    the summation order of every matrix product.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy < 1.25 has no mode="dicts"
        blas = {}
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
    }


def _value_iteration_report(env: AutofocusEnv, gamma: float) -> agent.EvalReport:
    """The greedy policy of the exact Q-table for the env's stack, run through the env."""
    mdp = baselines.mdp_from_stack(env.cfg.stack, env.cfg)
    return baselines.greedy_policy_report(baselines.value_iteration(mdp, gamma), mdp, env)


# -- subcommands ---------------------------------------------------------


def cmd_gen_stack(args: argparse.Namespace) -> int:
    config, _ = load_config(args.config)
    out = Path(args.out)
    targets: list[tuple[Path, StackSource]] = []
    if config.test_stacks:
        targets.append((out / "train", config.stack))
        targets.extend((out / name, src) for name, src in sorted(config.test_stacks.items()))
    else:
        targets.append((out, config.stack))
    for directory, _ in targets:
        _require_empty_dir(directory)
    for directory, source in targets:
        stack = source.build()
        save_stack(stack, directory)
        print(f"{directory}: {len(stack)} frames, sharpest index {stack.sharpest_index}")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    stack = load_stack(args.stack)
    normalized = stack.focus_values / stack.focus_max
    lines = ["index,position_rad,focus,normalized"]
    for i, row in enumerate(zip(stack.positions, stack.focus_values, normalized)):
        lines.append(f"{i}," + ",".join(repr(float(v)) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(stack)} rows to {out}")
    else:
        sys.stdout.write(text)
    return 0


def _resolve_stack(args: argparse.Namespace, config: RunConfig) -> FocalStack:
    if getattr(args, "stack", None):
        return load_stack(args.stack)
    return config.stack.build()


def cmd_train(args: argparse.Namespace) -> int:
    config, doc = load_config(args.config)
    seed = config.seed if args.seed is None else args.seed
    stack = _resolve_stack(args, config)
    env = AutofocusEnv(config.env_config(stack))
    arch = config.net_arch()
    hyper = config.hyperparams()
    # The optimum this run is judged against, solved on a copy of the env so
    # the training env starts untouched.
    oracle = _value_iteration_report(copy.copy(env), hyper.gamma)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "run_meta.json",
        {
            "config": doc,
            "seed": seed,
            "stack_view": stack.view_id,
            "positions": len(stack),
            "distinct_frames": len(set(env.frame_ids)),
            "net": arch.to_dict(),
            "params": count_params(arch),
            "macs": count_macs(arch),
            "machine": _machine_info(),
            "oracle": {
                "gamma": hyper.gamma,
                "accuracy": oracle.accuracy,
                "avg_steps": oracle.avg_steps,
            },
        },
    )
    started = time.time()
    rng = np.random.default_rng(seed)

    def progress(timestep: int, accuracy: float | None) -> None:
        elapsed = time.time() - started
        print(
            f"step {timestep}/{hyper.total_timesteps}"
            f"  accuracy {accuracy:.3f}  elapsed {elapsed:.0f}s",
            flush=True,
        )

    agent.train(
        env,
        hyper,
        arch,
        rng,
        out,
        resume_from=args.resume,
        progress=progress,
    )
    elapsed = time.time() - started
    # Stamped after the fact so wall time rides along with the run; the
    # meta file is not part of the bit-reproducible artifact set.
    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    meta["elapsed_seconds"] = round(elapsed, 3)
    _write_json(out / "run_meta.json", meta)
    print(f"finished {hyper.total_timesteps} steps in {elapsed:.0f}s -> {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config, _ = load_config(args.config)
    params, arch, step = load_checkpoint(args.ckpt)
    stack = _resolve_stack(args, config)
    # Frames at the size the checkpoint was trained on, whatever the config's net.
    env = AutofocusEnv(EnvConfig(stack=stack, net_input_size=arch.input_size, **config.env))
    report = agent.evaluate(params, arch, env)
    payload = report.to_dict()
    payload["checkpoint_step"] = step
    payload["stack_view"] = stack.view_id
    if args.out:
        _write_json(Path(args.out), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    config, _ = load_config(args.config)
    stack = _resolve_stack(args, config)
    env = AutofocusEnv(config.env_config(stack))
    if args.kind == "hill-climb":
        payload = baselines.hill_climb(env).to_dict()
    elif args.kind == "value-iteration":
        gamma = (config.hyperparams().gamma if "total_timesteps" in config.train
                 else agent.Hyperparams.gamma)
        payload = _value_iteration_report(env, gamma).to_dict()
    else:  # scan
        result = baselines.exhaustive_scan(stack)
        payload = {
            "argmax_index": result.argmax_index,
            "evaluations": result.evaluations,
            "position_rad": result.position_rad,
        }
    payload["baseline"] = args.kind
    payload["stack_view"] = stack.view_id
    if args.out:
        _write_json(Path(args.out), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.config:
        config, _ = load_config(args.config)
        arch = config.net_arch()
    else:
        arch = NetArch()
    params = count_params(arch)
    macs = count_macs(arch)
    param_lo = PARAM_BUDGET * (1 - PARAM_TOLERANCE)
    param_hi = PARAM_BUDGET * (1 + PARAM_TOLERANCE)
    mac_lo = MAC_BUDGET * (1 - MAC_TOLERANCE)
    mac_hi = MAC_BUDGET * (1 + MAC_TOLERANCE)
    param_ok = param_lo <= params <= param_hi
    mac_ok = mac_lo <= macs <= mac_hi
    print(f"parameters: {params}  budget {PARAM_BUDGET} ±{PARAM_TOLERANCE:.0%}  "
          f"[{param_lo:.0f}, {param_hi:.0f}]  {'PASS' if param_ok else 'FAIL'}")
    print(f"macs: {macs}  budget {MAC_BUDGET} ±{MAC_TOLERANCE:.0%}  "
          f"[{mac_lo:.0f}, {mac_hi:.0f}]  {'PASS' if mac_ok else 'FAIL'}")
    return 0 if (param_ok and mac_ok) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focusrl",
        description="Learned and classical autofocus on simulated focal stacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument(
            "--config",
            required=required,
            help=f"config file path or preset name ({', '.join(list_presets()) or 'none bundled'})",
        )

    p = sub.add_parser("gen-stack", help="render a config's focal stack(s) to disk")
    add_config(p)
    p.add_argument("--out", required=True, help="target directory (must be empty)")
    p.set_defaults(func=cmd_gen_stack)

    p = sub.add_parser("curve", help="export a saved stack's stored focus curve as CSV")
    p.add_argument("stack", help="stack directory")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("train", help="train the control policy")
    add_config(p)
    p.add_argument("--out", required=True, help="run directory for logs and checkpoints")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--stack", help="train on this saved stack instead of the config's")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a stack")
    p.add_argument("ckpt", help="checkpoint file")
    add_config(p)
    p.add_argument("--stack", help="saved stack directory (default: the config's stack)")
    p.add_argument("--out", help="write the report JSON here as well")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="run a classical baseline on a stack")
    p.add_argument("kind", choices=("hill-climb", "value-iteration", "scan"))
    add_config(p)
    p.add_argument("--stack", help="saved stack directory (default: the config's stack)")
    p.add_argument("--out", help="write the report JSON here as well")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("count", help="print parameter and MAC counts vs the budgets")
    add_config(p, required=False)
    p.set_defaults(func=cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileExistsError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
