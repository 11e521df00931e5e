"""End-to-end tests of the command-line interface.

Every test drives `focusrl.cli.main` in-process with a miniature
configuration (96px scene, 16px net input, a few hundred steps) so the
whole file stays fast while still exercising real training runs.
"""

import json
import os
from pathlib import Path
import platform
import shutil
import struct

import numpy as np
import pytest

from focusrl import baselines
from focusrl.agent import Hyperparams
from focusrl.cli import _write_json, list_presets, load_config, main
from focusrl.env import AutofocusEnv
from focusrl.imaging import load_stack

MINI = {
    "seed": 5,
    "stack": {
        "seed": 7,
        "width": 96,
        "height": 96,
        "z_min": 30.0,
        "z_max": 36.0,
        "spacing": 0.3,
        "z_star": 32.4,
        "blur_gain": 0.5,
        "view_id": "mini",
    },
    "net": {
        "input_size": 16, "conv_channels": [2, 2, 2, 2], "reduce_channels": 2, "embed_dim": 8,
        "fc_width": 8,
    },
    "train": {
        "total_timesteps": 300,
        "learn_start": 50,
        "eval_interval": 100,
        "target_sync": 100,
        "replay_capacity": 400,
    },
}


@pytest.fixture(scope="module")
def mini_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.json"
    path.write_text(json.dumps(MINI), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def mini_stack_dir(tmp_path_factory, mini_config):
    out = tmp_path_factory.mktemp("stack") / "frames"
    assert main(["gen-stack", "--config", mini_config, "--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory, mini_config):
    out = tmp_path_factory.mktemp("run") / "r1"
    assert main(["train", "--config", mini_config, "--out", str(out)]) == 0
    return out


class TestConfig:
    def test_bundled_presets_listed(self):
        assert {"tiny", "exp1", "exp2", "exp3"} <= set(list_presets())

    def test_load_preset_by_name(self):
        config, doc = load_config("tiny")
        assert doc["stack"]["view_id"] == "tiny"
        assert config.hyperparams().total_timesteps == 20_000

    def test_unknown_name_fails(self, capsys):
        assert main(["baseline", "scan", "--config", "nope.json"]) == 2
        assert "no config file or preset" in capsys.readouterr().err

    def test_unknown_top_key_rejected(self, tmp_path, capsys):
        doc = dict(MINI, bogus=1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["count", "--config", str(path)]) == 2
        assert "unknown config keys: bogus" in capsys.readouterr().err

    def test_unknown_train_key_rejected(self, tmp_path, capsys):
        doc = dict(MINI, train=dict(MINI["train"], warmup=9))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["count", "--config", str(path)]) == 2
        assert "unknown train keys: warmup" in capsys.readouterr().err

    def test_stack_section_needs_geometry(self, tmp_path, capsys):
        doc = dict(MINI, stack={"seed": 1})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["count", "--config", str(path)]) == 2
        assert "needs 'z_min'" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [("env", "net_input_size"), ("net", "history"),
                                             ("net", "action_vocab"), ("net", "n_actions")])
    def test_settings_the_program_fixes_are_unknown_keys(self, section, key, tmp_path, capsys):
        # The env renders at net.input_size; the env fixes the action sizes.
        doc = dict(MINI, **{section: {key: 16}})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["count", "--config", str(path)]) == 2
        assert f"unknown {section} keys: {key}" in capsys.readouterr().err


class TestCount:
    def test_reference_arch_passes_budgets(self, capsys):
        assert main(["count"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert "408813" in out

    def test_undersized_arch_fails(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        path.write_text(json.dumps(MINI), encoding="utf-8")
        assert main(["count", "--config", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestGenStack:
    def test_writes_frames_and_manifest(self, mini_stack_dir):
        stack = load_stack(mini_stack_dir)
        assert len(stack) == 21
        assert stack.view_id == "mini"
        assert (Path(mini_stack_dir) / "frame_0000.pgm").is_file()

    def test_refuses_non_empty_target(self, mini_config, mini_stack_dir, capsys):
        assert main(["gen-stack", "--config", mini_config, "--out", mini_stack_dir]) == 2
        assert "non-empty" in capsys.readouterr().err

    def test_writes_train_and_named_test_stacks(self, tmp_path):
        doc = dict(
            MINI,
            test_stacks={"similar": dict(MINI["stack"], seed=8, view_id="sim")},
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "stacks"
        assert main(["gen-stack", "--config", str(path), "--out", str(out)]) == 0
        assert load_stack(out / "train").view_id == "mini"
        assert load_stack(out / "similar").view_id == "sim"


class TestCurve:
    def test_csv_to_stdout(self, mini_stack_dir, capsys):
        assert main(["curve", mini_stack_dir]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,position_rad,focus,normalized"
        assert len(lines) == 22
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 30.0
        # Normalized column peaks at exactly 1.0 somewhere.
        assert max(float(row.split(",")[3]) for row in lines[1:]) == 1.0

    def test_csv_to_file(self, mini_stack_dir, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", mini_stack_dir, "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").strip().splitlines()) == 22

    def test_reports_the_manifest_curve(self, mini_stack_dir, capsys):
        assert main(["curve", mini_stack_dir]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        manifest = json.loads((Path(mini_stack_dir) / "manifest.json").read_text(encoding="utf-8"))
        stack = load_stack(mini_stack_dir)
        focus = [float(row[2]) for row in rows]
        normalized = [float(row[3]) for row in rows]
        assert focus == manifest["focus_curve"]
        assert normalized == [v / manifest["focus_max"] for v in manifest["focus_curve"]]
        assert int(np.argmax(normalized)) == stack.sharpest_index

    def test_failed_write_keeps_the_previous_file(self, mini_stack_dir, tmp_path, monkeypatch):
        out = tmp_path / "curve.csv"
        out.write_text("previous\n", encoding="utf-8")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            main(["curve", mini_stack_dir, "--out", str(out)])
        assert out.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


class TestTrain:
    def test_run_directory_contents(self, mini_run):
        names = {p.name for p in mini_run.iterdir()}
        assert {
            "run_meta.json",
            "train_log.csv",
            "ckpt_100",
            "ckpt_200",
            "ckpt_300",
            "eval_100.json",
            "eval_200.json",
            "eval_300.json",
        } <= names

    def test_log_rows_match_eval_interval(self, mini_run):
        lines = (mini_run / "train_log.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "timestep,loss,epsilon,eval_accuracy,eval_avg_steps"
        assert [row.split(",")[0] for row in lines[1:]] == ["100", "200", "300"]

    def test_run_meta_records_arch_and_counts(self, mini_config, mini_run):
        meta = json.loads((mini_run / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["seed"] == 5
        assert meta["positions"] == 21
        config, _ = load_config(mini_config)
        env = AutofocusEnv(config.env_config(config.stack.build()))
        assert meta["distinct_frames"] == len(set(env.frame_ids)) < meta["positions"]
        assert meta["net"]["conv_channels"] == [2, 2, 2, 2]
        assert meta["params"] > 0 and meta["macs"] > 0
        assert meta["elapsed_seconds"] > 0

    def test_run_meta_records_the_machine(self, mini_run):
        meta = json.loads((mini_run / "run_meta.json").read_text(encoding="utf-8"))
        machine = meta["machine"]
        assert set(machine) == {
            "numpy", "blas_name", "blas_version", "openblas_num_threads", "python", "cpu_model",
        }
        assert machine["numpy"] == np.__version__
        assert machine["python"] == platform.python_version()
        assert machine["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert machine["cpu_model"]

    def test_run_meta_records_the_oracle_optimum(self, mini_config, mini_run, capsys):
        meta = json.loads((mini_run / "run_meta.json").read_text(encoding="utf-8"))
        capsys.readouterr()
        assert main(["baseline", "value-iteration", "--config", mini_config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert meta["oracle"] == {
            "gamma": Hyperparams.gamma,
            "accuracy": report["accuracy"],
            "avg_steps": report["avg_steps"],
        }

    def test_fixed_seed_runs_are_bit_identical(self, mini_config, mini_run, tmp_path):
        out = tmp_path / "r2"
        assert main(["train", "--config", mini_config, "--out", str(out)]) == 0
        first = (mini_run / "train_log.csv").read_bytes()
        assert (out / "train_log.csv").read_bytes() == first
        assert (out / "ckpt_300").read_bytes() == (mini_run / "ckpt_300").read_bytes()

    def test_one_env_serves_training_evaluation_and_the_oracle(self, mini_config, tmp_path,
                                                                monkeypatch):
        # Evaluation and the oracle run on copies that share its frames.
        built = []
        init = AutofocusEnv.__init__

        def counted(env, cfg):
            built.append(cfg)
            init(env, cfg)

        monkeypatch.setattr(AutofocusEnv, "__init__", counted)
        assert main(["train", "--config", mini_config, "--out", str(tmp_path / "r4")]) == 0
        assert len(built) == 1

    def test_seed_flag_changes_the_run(self, mini_config, mini_run, tmp_path):
        out = tmp_path / "r3"
        assert main(["train", "--config", mini_config, "--out", str(out), "--seed", "6"]) == 0
        assert (out / "train_log.csv").read_bytes() != (mini_run / "train_log.csv").read_bytes()

    def test_resume_continues_to_the_end(self, mini_config, mini_run, tmp_path):
        out = tmp_path / "r4"
        ckpt = str(mini_run / "ckpt_200")
        assert main(["train", "--config", mini_config, "--out", str(out), "--resume", ckpt]) == 0
        names = {p.name for p in out.iterdir()}
        assert "ckpt_300" in names
        assert "ckpt_100" not in names

    def test_resume_rejects_wrong_arch_checkpoint(self, mini_run, tmp_path, capsys):
        doc = dict(MINI, net=dict(MINI["net"], fc_width=16))
        path = tmp_path / "wider.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        ckpt = str(mini_run / "ckpt_200")
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "r5"), "--resume", ckpt])
        assert code == 2
        assert "arch" in capsys.readouterr().err.lower()


class TestEval:
    def test_report_written_and_printed(self, mini_config, mini_run, tmp_path, capsys):
        out = tmp_path / "report.json"
        ckpt = str(mini_run / "ckpt_300")
        assert main(["eval", ckpt, "--config", mini_config, "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out.read_text(encoding="utf-8"))
        assert printed == written
        assert written["checkpoint_step"] == 300
        assert written["stack_view"] == "mini"
        assert written["episodes"] == 21

    def test_matches_training_time_eval(self, mini_config, mini_run, capsys):
        ckpt = str(mini_run / "ckpt_300")
        assert main(["eval", ckpt, "--config", mini_config]) == 0
        fresh = json.loads(capsys.readouterr().out)
        logged = json.loads((mini_run / "eval_300.json").read_text(encoding="utf-8"))
        for key in logged:
            assert fresh[key] == logged[key]

    def test_renders_at_the_checkpoint_input_size(self, mini_run, tmp_path, capsys):
        # A config whose net is the 64 px default still evaluates a 16 px checkpoint.
        doc = {key: value for key, value in MINI.items() if key != "net"}
        path = tmp_path / "cfg64.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        ckpt = str(mini_run / "ckpt_300")
        assert main(["eval", ckpt, "--config", str(path)]) == 0
        fresh = json.loads(capsys.readouterr().out)
        logged = json.loads((mini_run / "eval_300.json").read_text(encoding="utf-8"))
        assert {key: fresh[key] for key in logged} == logged

    @pytest.mark.parametrize(
        "data",
        [
            b"FRLQ\x01",
            b"FRLQ" + struct.pack("<I", 14) + b'{"version": 1}',
            b"FRLQ" + struct.pack("<I", 51) + b'{"version": 1, "arch": {}, "step": 0, "arrays": []}',
        ],
        ids=["cut_in_header_length", "header_without_arch", "empty_arch"],
    )
    def test_malformed_checkpoint_is_a_clean_error(self, data, mini_config, tmp_path, capsys):
        path = tmp_path / "bad_ckpt"
        path.write_bytes(data)
        assert main(["eval", str(path), "--config", mini_config]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["arch"].update(colour=1),
            lambda h: h["arch"].update(conv_channels=8),
            lambda h: h["arch"].update(input_size=16.0),
            lambda h: h.update(arch=[["input_size", 16]]),
            lambda h: h.update(step=-1),
            lambda h: h.update(step="300"),
            lambda h: h.update(step=1.5),
            lambda h: h.update(step=True),
            lambda h: h.update(arrays={}),
            lambda h: h["arrays"][0].pop("shape"),
            lambda h: h["arrays"][0].pop("name"),
            lambda h: h["arrays"][0].update(name=3),
            lambda h: h["arrays"][0].update(shape=2),
            lambda h: h["arrays"][0].update(shape=[-1, 2]),
            lambda h: h["arrays"][0].update(shape=[2.0, 3, 5, 5]),
            lambda h: h["arrays"].append(h["arrays"][0]),
            lambda h: h["arrays"].reverse(),
            lambda h: h["arch"].update(bn_eps="x"),
            lambda h: h["arch"].update(bn_eps=-1.0),
            lambda h: h["arch"].update(bn_momentum="0.99"),
            lambda h: h["arch"].update(bn_momentum=1.5),
        ],
        ids=[
            "arch_unknown_key", "arch_bad_channels", "arch_float_size", "arch_not_object",
            "step_negative", "step_string", "step_float", "step_bool",
            "arrays_not_list", "entry_without_shape", "entry_without_name",
            "name_not_string", "shape_not_list", "negative_dim", "float_dim",
            "duplicate_entry", "reordered_entries", "bn_eps_string", "bn_eps_negative",
            "bn_momentum_string", "bn_momentum_above_one",
        ],
    )
    def test_malformed_header_values_are_clean_errors(
        self, edit, mini_config, mini_run, tmp_path, capsys
    ):
        # Only the edited header value is wrong: the arrays are the real ones.
        data = (mini_run / "ckpt_300").read_bytes()
        (header_len,) = struct.unpack("<I", data[4:8])
        header = json.loads(data[8 : 8 + header_len])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "bad_ckpt"
        path.write_bytes(b"FRLQ" + struct.pack("<I", len(blob)) + blob + data[8 + header_len :])
        assert main(["eval", str(path), "--config", mini_config]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestBaseline:
    @pytest.mark.parametrize("kind", ["hill-climb", "value-iteration", "scan"])
    def test_kinds_emit_labeled_json(self, kind, mini_config, mini_stack_dir, tmp_path, capsys):
        out = tmp_path / f"{kind}.json"
        code = main(
            ["baseline", kind, "--config", mini_config, "--stack", mini_stack_dir, "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["baseline"] == kind
        assert payload["stack_view"] == "mini"
        assert json.loads(capsys.readouterr().out) == payload

    def test_manifest_without_a_key_is_a_clean_error(self, mini_config, mini_stack_dir,
                                                      tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        shutil.copytree(mini_stack_dir, stack_dir)
        manifest = json.loads((stack_dir / "manifest.json").read_text(encoding="utf-8"))
        del manifest["z_min"]
        (stack_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        code = main(["baseline", "scan", "--config", mini_config, "--stack", str(stack_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lacks z_min" in err

    def test_value_iteration_solves_the_mini_stack(self, mini_config, mini_stack_dir, capsys):
        code = main(
            ["baseline", "value-iteration", "--config", mini_config, "--stack", mini_stack_dir]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == 1.0
        assert payload["avg_steps"] < 3.0

    def test_value_iteration_without_train_section_uses_default_gamma(
        self, mini_stack_dir, tmp_path, monkeypatch
    ):
        doc = {key: value for key, value in MINI.items() if key != "train"}
        path = tmp_path / "no_train.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        solve = baselines.value_iteration
        used = []

        def spy(mdp, gamma, *args, **kwargs):
            used.append(gamma)
            return solve(mdp, gamma, *args, **kwargs)

        monkeypatch.setattr(baselines, "value_iteration", spy)
        code = main(["baseline", "value-iteration", "--config", str(path), "--stack", mini_stack_dir])
        assert code == 0
        assert used == [Hyperparams.gamma]


class TestWriteJson:
    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.json"
        _write_json(path, {"a": 1})
        before = path.read_bytes()
        # json.dump writes the first key before it meets the object it cannot encode.
        with pytest.raises(TypeError):
            _write_json(path, {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
