import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adds import training
from adds.checkpoint import load_checkpoint, save_checkpoint
from adds.cli import OUT_DIR_ENV, main, read_config_file
from adds.errors import ConfigurationError
from adds.training import TrainConfig

TINY_CONFIG = """\
# small world for fast command tests
classes = 8
n_seen = 6
image_side = 32
base_size = 32
embed_dim = 8
depth = 1
ffn_hidden = 16
epochs = 2
n_train = 16
lr = 0.005
seed = 3
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One small training run and one evaluation of it, shared by the tests
    that only read them: the config, the checkpoint, both manifests and the
    world's class names."""
    root = tmp_path_factory.mktemp("tiny_run")
    config = root / "tiny.cfg"
    config.write_text(_FUZZ_BASE)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(config), "--out", str(root / "train")]) == 0
        assert main(["eval", "--checkpoint", str(root / "train" / "checkpoint.adds"),
                     "--n-eval", "4", "--out", str(root / "eval")]) == 0
    ckpt = load_checkpoint(root / "train" / "checkpoint.adds")
    names = training.restore_model(ckpt)[1].class_names
    return {"config": config, "checkpoint": root / "train" / "checkpoint.adds",
            "train_manifest": root / "train" / "run_manifest.json",
            "eval_manifest": root / "eval" / "run_manifest.json",
            "missing": root / "missing", "names": names, "vocab": ",".join(names[:3])}


class TestConfigFile:
    def test_parses_values_and_comments(self, config_file):
        cfg = read_config_file(config_file)
        assert cfg["classes"] == 8
        assert cfg["lr"] == 0.005
        assert "#" not in str(cfg)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_field = 1\n")
        with pytest.raises(ConfigurationError, match="unknown config key"):
            read_config_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigurationError, match="expected key = value"):
            read_config_file(path)

    def test_pyramid_levels_list(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("pyramid_levels = 0, 2\n")
        assert read_config_file(path)["pyramid_levels"] == [0, 2]


class TestPlan:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "plan", "--base-size", "336",
                           "--target-size", "1344")
        assert code == 0
        assert "total tiles: 21" in out
        assert "naive units: 256" in out

    def test_record_output(self, capsys):
        code, out, _ = run(capsys, "plan", "--base-size", "336",
                           "--target-size", "1344", "--format", "record")
        assert code == 0
        record = json.loads(out)
        assert record["pyramid_units"] == 21
        assert record["naive_units"] == 256
        assert [lv["grid"] for lv in record["levels"]] == [1, 2, 4]

    def test_invalid_sizes_exit_1(self, capsys):
        code, _, err = run(capsys, "plan", "--base-size", "336",
                           "--target-size", "100")
        assert code == 1
        assert "error" in err

    def test_zero_base_size_exit_1(self, capsys):
        code, _, err = run(capsys, "plan", "--base-size", "0", "--target-size", "64")
        assert code == 1
        assert err.startswith("error: base size")

    def test_bad_level_selection_exit_1(self, capsys):
        code, _, err = run(capsys, "plan", "--base-size", "32",
                           "--target-size", "64", "--levels", "5")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("levels", ["x", "0,x", "1.5", "0;1"])
    def test_malformed_level_list_names_the_option_exit_1(self, capsys, levels):
        code, _, err = run(capsys, "plan", "--base-size", "32", "--target-size", "64",
                           "--levels", levels)
        assert code == 1
        assert err == (f"error: --levels must be comma-separated level indices, "
                       f"got {levels!r}\n")

    @pytest.mark.parametrize("levels", [",", " , ", ""])
    def test_empty_level_list_is_every_level(self, capsys, levels):
        # the config file's reading of pyramid_levels
        assert (run(capsys, "plan", "--base-size", "32", "--target-size", "128",
                    "--levels", levels)
                == run(capsys, "plan", "--base-size", "32", "--target-size", "128"))


class TestTrainEval:
    def test_train_writes_artifacts(self, capsys, tmp_path, config_file):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "train", "--config", str(config_file),
                           "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "checkpoint.adds").is_file()
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        assert manifest["config"]["classes"] == 8
        loss_lines = (out_dir / "loss_log.txt").read_text().splitlines()
        assert len(loss_lines) == 2
        assert loss_lines[0].startswith("epoch 0 loss ")
        float(loss_lines[0].split()[-1])

    def test_manifest_rerun_byte_identical(self, capsys, tmp_path, config_file):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        assert run(capsys, "train", "--config", str(config_file),
                   "--out", str(run_a))[0] == 0
        assert run(capsys, "train",
                   "--manifest", str(run_a / "run_manifest.json"),
                   "--out", str(run_b))[0] == 0
        assert ((run_a / "checkpoint.adds").read_bytes()
                == (run_b / "checkpoint.adds").read_bytes())
        assert ((run_a / "loss_log.txt").read_bytes()
                == (run_b / "loss_log.txt").read_bytes())
        # manifests agree on everything except their own artifact paths
        ma = json.loads((run_a / "run_manifest.json").read_text())
        mb = json.loads((run_b / "run_manifest.json").read_text())
        ma.pop("artifacts")
        mb.pop("artifacts")
        assert ma == mb

    def test_cli_overrides_apply(self, capsys, tmp_path, config_file):
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--config", str(config_file),
                         "--out", str(out_dir), "--epochs", "3")
        assert code == 0
        ckpt = load_checkpoint(out_dir / "checkpoint.adds")
        assert ckpt.epoch == 3

    def test_train_flags_set_their_fields(self, capsys, tmp_path, config_file):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--config", "--manifest", "--out", "--seed", "--lr",
                         "--epochs", "--depth", "--kind", "--batch-size", "--n-train",
                         "--alpha", "--dropout", "--weight-decay"}
        code, _, _ = run(capsys, "train", "--config", str(config_file), "--out",
                         str(tmp_path), "--seed", "5", "--lr", "1", "--epochs", "1",
                         "--depth", "2", "--kind", "baseline", "--batch-size", "4",
                         "--n-train", "8", "--alpha", "0.5", "--dropout", "0",
                         "--weight-decay", "0")
        assert code == 0
        config = json.loads((tmp_path / "run_manifest.json").read_text())["config"]
        assert {k: config[k] for k in ("seed", "lr", "epochs", "depth", "kind",
                                       "batch_size", "n_train", "alpha", "dropout",
                                       "weight_decay")} == {
            "seed": 5, "lr": 1.0, "epochs": 1, "depth": 2, "kind": "baseline",
            "batch_size": 4, "n_train": 8, "alpha": 0.5, "dropout": 0.0,
            "weight_decay": 0.0}

    def test_eval_writes_metrics_record(self, capsys, tmp_path, config_file):
        train_dir = tmp_path / "train"
        eval_dir = tmp_path / "eval"
        run(capsys, "train", "--config", str(config_file), "--out", str(train_dir))
        code, out, _ = run(capsys, "eval",
                           "--checkpoint", str(train_dir / "checkpoint.adds"),
                           "--out", str(eval_dir), "--n-eval", "8",
                           "--k", "1", "--k", "3", "--format", "record")
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"run_id", "mAP", "f1@1", "f1@3", "timestamp"}
        lines = (eval_dir / "metrics.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == record

    def test_eval_manifest_rerun_byte_identical(self, capsys, tmp_path,
                                                config_file):
        train_dir = tmp_path / "train"
        a = tmp_path / "ea"
        b = tmp_path / "eb"
        run(capsys, "train", "--config", str(config_file), "--out", str(train_dir))
        run(capsys, "eval", "--checkpoint", str(train_dir / "checkpoint.adds"),
            "--out", str(a), "--n-eval", "8")
        run(capsys, "eval", "--manifest", str(a / "run_manifest.json"),
            "--out", str(b))
        assert ((a / "metrics.jsonl").read_bytes()
                == (b / "metrics.jsonl").read_bytes())

    def test_eval_without_checkpoint_exit_2(self, capsys):
        code, _, err = run(capsys, "eval")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_out_is_a_file_exit_1(self, capsys, tmp_path, config_file, command):
        source = ("--config", str(config_file))
        if command == "eval":
            assert run(capsys, "train", *source, "--out", str(tmp_path / "run"))[0] == 0
            source = ("--checkpoint", str(tmp_path / "run" / "checkpoint.adds"),
                      "--n-eval", "4")
        out = tmp_path / "taken"
        out.write_text("a file\n")
        code, _, err = run(capsys, command, *source, "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and "taken" in err
        assert out.read_text() == "a file\n"

    @pytest.mark.parametrize("command, flag", [("train", "--config"),
                                               ("eval", "--checkpoint")])
    def test_failed_run_makes_no_out_dir(self, capsys, tmp_path, command, flag):
        code, _, err = run(capsys, command, flag, str(tmp_path / "missing"),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["batch_size = 0", "n_train = 0", "n_seen = 8",
                                      "kind = mystery", "heads = 3", "heads = 0",
                                      "depth = 0", "dropout = 1.0", "dropout = -0.5",
                                      "gamma_neg = -1", "margin = 1.5", "alpha = -1",
                                      "image_side = 16", "patch_size = 5",
                                      "patch_size = 0",
                                      "pyramid_levels = 7", "pyramid_levels = x",
                                      "dtype = float16", "classes = 5000",
                                      "embed_dim = 0", "ffn_hidden = -1",
                                      "batch_size = 1.5", "n_seen = 2.5", "depth = true",
                                      "lr = nan", "lr = inf", "weight_decay = -1",
                                      "weight_decay = nan", "weight_decay = inf",
                                      "noise_std = nan", "noise_std = inf",
                                      "noise_std = -1", "cls_only_non_bottom = no",
                                      "cls_only_non_bottom = 2", "alpha = true",
                                      "alpha = nan", "alpha = inf", "gamma_pos = nan",
                                      "gamma_neg = inf"])
    def test_invalid_config_exit_1(self, capsys, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG + line + "\n")
        code, _, err = run(capsys, "train", "--config", str(path),
                           "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error:")
        assert not (tmp_path / "checkpoint.adds").exists()

    @pytest.mark.parametrize("flag", ["--lr=nan", "--lr=-inf", "--weight-decay=-1",
                                      "--weight-decay=nan"])
    def test_invalid_optimiser_flag_exit_1(self, capsys, tmp_path, config_file, flag):
        code, _, err = run(capsys, "train", "--config", str(config_file),
                           "--out", str(tmp_path), flag)
        assert code == 1
        assert err.startswith("error:")
        assert not (tmp_path / "checkpoint.adds").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("defect", ["truncated", "no_timestamp", "not_object",
                                        "directory", "missing_key", "unknown_key"])
    def test_bad_manifest_exit_1(self, capsys, tmp_path, config_file, command, defect):
        assert run(capsys, "train", "--config", str(config_file),
                   "--out", str(tmp_path))[0] == 0
        if command == "eval":
            assert run(capsys, "eval", "--checkpoint", str(tmp_path / "checkpoint.adds"),
                       "--n-eval", "4", "--out", str(tmp_path))[0] == 0
        text = (tmp_path / "run_manifest.json").read_text()
        manifest = json.loads(text)
        config = manifest["config"]
        # a train manifest without lr would retrain at the default lr
        dropped = {"train": "lr", "eval": "n_eval"}[command]
        path = tmp_path / "bad_manifest.json"
        if defect == "directory":
            path.mkdir()
        else:
            path.write_text({
                "truncated": text[: len(text) // 2],
                "no_timestamp": json.dumps({"config": config}),
                "not_object": json.dumps([manifest]),
                "missing_key": json.dumps({**manifest, "config": {
                    k: v for k, v in config.items() if k != dropped}}),
                "unknown_key": json.dumps({**manifest, "config": {**config, "n_evals": 3}}),
            }[defect])
        code, _, err = run(capsys, command, "--manifest", str(path),
                           "--out", str(tmp_path / "rerun"))
        assert code == 1
        assert err.startswith("error:")
        keys = {"missing_key": f"missing ['{dropped}'], unknown []",
                "unknown_key": "missing [], unknown ['n_evals']"}.get(defect)
        if keys:
            assert err == f"error: manifest {path}: config keys {keys}\n"
        assert not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("key, value", [("pyramid_levels", [True]),
                                            ("pyramid_levels", [False]),
                                            ("cls_only_non_bottom", "no"),
                                            ("lr", "0.1")])
    def test_invalid_manifest_config_exit_1(self, capsys, tmp_path, config_file, key,
                                            value):
        assert run(capsys, "train", "--config", str(config_file),
                   "--out", str(tmp_path))[0] == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        manifest["config"][key] = value
        path = tmp_path / "bad_manifest.json"
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "train", "--manifest", str(path),
                           "--out", str(tmp_path / "rerun"))
        assert code == 1
        assert err.startswith(f"error: {key}")
        assert not (tmp_path / "rerun" / "checkpoint.adds").exists()

    def test_checkpoint_config_breaking_a_rule_exit_1(self, capsys, tmp_path,
                                                      config_file):
        assert run(capsys, "train", "--config", str(config_file),
                   "--out", str(tmp_path))[0] == 0
        ckpt = load_checkpoint(tmp_path / "checkpoint.adds")
        ckpt.config["cls_only_non_bottom"] = "no"
        save_checkpoint(ckpt, tmp_path / "old.adds")
        code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "old.adds"),
                           "--n-eval", "4", "--out", str(tmp_path / "e"))
        assert code == 1
        assert err.startswith("error: cls_only_non_bottom")
        assert not (tmp_path / "e" / "metrics.jsonl").exists()

    def test_non_finite_loss_exit_1(self, capsys, tmp_path, config_file, monkeypatch):
        asl_loss_node = training.asl_loss_node

        def inf_loss(*args):
            node = asl_loss_node(*args)
            node.value = np.full_like(node.value, np.inf)
            return node

        monkeypatch.setattr(training, "asl_loss_node", inf_loss)
        code, _, err = run(capsys, "train", "--config", str(config_file),
                           "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: epoch 0 step 0")
        assert list(tmp_path.iterdir()) == [config_file]

    # the update overflows; the error line must come first, with no numpy warning
    def test_non_finite_parameter_exit_1(self, capsys, tmp_path):
        # one step, so no later minibatch loss sees what the update left
        path = tmp_path / "huge_lr.cfg"
        path.write_text(TINY_CONFIG + "lr = 1e308\nepochs = 1\nn_train = 8\n")
        code, _, err = run(capsys, "train", "--config", str(path),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error: epoch 0 step 0: decoder.block0.")
        assert not (tmp_path / "out").exists()

    def test_eval_non_finite_scores_exit_1(self, capsys, tmp_path, config_file):
        run(capsys, "train", "--config", str(config_file), "--out", str(tmp_path))
        ckpt = load_checkpoint(tmp_path / "checkpoint.adds")
        wq = ckpt.weights["decoder.block0.attn_text.wq"]
        wq[...] = np.finfo(wq.dtype).max  # finite, but its products overflow
        save_checkpoint(ckpt, tmp_path / "huge.adds")
        code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "huge.adds"),
                           "--n-eval", "4", "--out", str(tmp_path / "e"))
        assert code == 1
        assert err.startswith("error: score of eval image 0 for label ")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("defect", ["nan", "shape"])
    def test_eval_bad_weight_exit_1(self, capsys, tmp_path, config_file, defect):
        run(capsys, "train", "--config", str(config_file), "--out", str(tmp_path))
        ckpt = load_checkpoint(tmp_path / "checkpoint.adds")
        name = "decoder.block0.attn_text.wq"
        if defect == "nan":
            ckpt.weights[name][1, 2] = np.nan  # one weight of 64
        else:
            for blobs in (ckpt.weights, ckpt.opt_m, ckpt.opt_v):
                blobs[name] = np.zeros((8, 16), np.float32)
        save_checkpoint(ckpt, tmp_path / "bad.adds")
        code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "bad.adds"),
                           "--n-eval", "4", "--out", str(tmp_path / "e"))
        assert code == 1
        assert err.startswith(f"error: checkpoint parameter {name}")
        assert not (tmp_path / "e" / "metrics.jsonl").exists()

    def test_failed_rerun_keeps_previous_artifacts(self, capsys, tmp_path, config_file,
                                                   monkeypatch):
        assert run(capsys, "train", "--config", str(config_file),
                   "--out", str(tmp_path))[0] == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        before = {n: (tmp_path / n).read_bytes() for n in names}

        def dump_half(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:20])
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_half)
        code, _, err = run(capsys, "train", "--config", str(config_file),
                           "--out", str(tmp_path))
        assert code == 1
        assert err == "error: disk full\n"
        # checkpoint and loss log are rewritten with the same bytes; the
        # manifest write fails part way and leaves the old one in place
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert {n: (tmp_path / n).read_bytes() for n in names} == before

    def test_checkpoint_write_onto_directory_exit_1(self, capsys, tmp_path, config_file):
        (tmp_path / "checkpoint.adds").mkdir()
        code, _, err = run(capsys, "train", "--config", str(config_file),
                           "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and "checkpoint.adds" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.adds", "tiny.cfg"]

    @pytest.mark.parametrize("key, value", [("ks", ["x"]), ("ks", 3), ("ks", []),
                                            ("ks", [True]), ("n_eval", "4"),
                                            ("n_eval", 4.5), ("n_eval", True),
                                            ("checkpoint", 0), ("vocab", "a,b"),
                                            ("vocab", [1]), ("eval_seed", 1.0),
                                            ("ks", [3, 5, 3])])
    def test_bad_eval_manifest_setting_exit_1(self, capsys, tmp_path, tiny_run, key,
                                              value):
        manifest = json.loads(tiny_run["eval_manifest"].read_text())
        manifest["config"][key] = value
        path = tmp_path / "bad_manifest.json"
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "eval", "--manifest", str(path),
                           "--out", str(tmp_path / "e"))
        assert code == 1
        assert err.startswith(f"error: manifest {path}: {key} must be ")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--epochs", "3"), ("train", "--config", "{config}"),
        ("eval", "--checkpoint", "{checkpoint}"), ("eval", "--k", "1"),
        ("eval", "--vocab", "x"), ("eval", "--n-eval", "4"), ("eval", "--eval-seed", "1")])
    def test_option_beside_manifest_exit_2(self, capsys, tmp_path, tiny_run, command,
                                           flag, value):
        manifest = tiny_run[f"{command}_manifest"]
        code, _, err = run(capsys, command, "--manifest", str(manifest), flag,
                           value.format(**tiny_run), "--out", str(tmp_path / "rerun"))
        assert code == 2
        assert err.startswith(f"error: {flag} cannot be combined with --manifest")
        assert not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("command, flag", [("train", "--config"),
                                               ("train", "--manifest"),
                                               ("eval", "--checkpoint"),
                                               ("eval", "--manifest"),
                                               ("eval", "--vocab")])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_bad_path_exit_1(self, capsys, tmp_path, tiny_run, command, flag, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"classes = 8\n\xff\xfe\n")
        argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
        if flag == "--vocab":
            argv += ["--checkpoint", str(tiny_run["checkpoint"]), "--n-eval", "4"]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        if kind == "not_utf8" and flag != "--checkpoint":
            assert err.startswith(f"error: {path} is not UTF-8 text: ")
        assert not (tmp_path / "out").exists()

    def test_non_checkpoint_error_names_the_file(self, capsys, tmp_path, tiny_run):
        code, _, err = run(capsys, "eval", "--checkpoint", str(tiny_run["config"]),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == (f"error: {tiny_run['config']}: bad checkpoint magic, "
                       "expected b'ADDSCKP1'\n")

    @pytest.mark.parametrize("value", ["./vocab.txt", "vocab.txt", "lists/vocab", "a.b"])
    def test_missing_vocab_file_exit_1(self, capsys, tmp_path, tiny_run, monkeypatch,
                                       value):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "eval", "--checkpoint", str(tiny_run["checkpoint"]),
                           "--n-eval", "4", "--vocab", value, "--out", "out")
        assert code == 1
        assert err == f"error: no such vocabulary file: {value}\n"
        assert not (tmp_path / "out").exists()

    def test_vocab_file_and_label_list_agree(self, capsys, tmp_path, tiny_run):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(tiny_run["names"][:3]) + "\n")
        outs = []
        for value in (str(vocab), tiny_run["vocab"]):
            code, out, _ = run(capsys, "eval", "--checkpoint", str(tiny_run["checkpoint"]),
                               "--n-eval", "4", "--vocab", value, "--format", "record",
                               "--out", str(tmp_path / "out"))
            assert code == 0
            outs.append({k: v for k, v in json.loads(out).items() if k != "timestamp"})
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("k", [0, -1])
    def test_eval_k_below_one_exit_1(self, capsys, tmp_path, config_file, k):
        run(capsys, "train", "--config", str(config_file), "--out", str(tmp_path))
        ckpt = str(tmp_path / "checkpoint.adds")
        code, _, err = run(capsys, "eval", "--checkpoint", ckpt, "--n-eval", "4",
                           "--out", str(tmp_path / "e"), "--k", str(k))
        assert code == 1
        assert err.startswith("error:")
        manifest = tmp_path / "bad_manifest.json"
        manifest.write_text(json.dumps({
            "config": {"checkpoint": ckpt, "ks": [k], "vocab": None,
                       "n_eval": 4, "eval_seed": 1},
            "timestamp": "2000-01-01T00:00:00Z",
        }))
        code, _, err = run(capsys, "eval", "--manifest", str(manifest),
                           "--out", str(tmp_path / "m"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag, value, named", [("--n-eval", "0", "n_eval"),
                                                    ("--vocab", ",", "vocab"),
                                                    ("--vocab", "", "vocab")])
    def test_empty_eval_set_or_vocab_exit_1(self, capsys, tmp_path, config_file,
                                            flag, value, named):
        run(capsys, "train", "--config", str(config_file), "--out", str(tmp_path))
        code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "checkpoint.adds"),
                           "--n-eval", "4", flag, value, "--out", str(tmp_path / "e"))
        assert code == 1
        assert err.startswith("error:") and named in err
        assert not (tmp_path / "e" / "metrics.jsonl").exists()

    def test_bad_setting_refused_before_the_checkpoint_is_read(self, capsys, tmp_path,
                                                               monkeypatch):
        monkeypatch.setattr("adds.cli.evaluation_scores", lambda *a, **kw: pytest.fail())
        code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "missing.adds"),
                           "--k", "0", "--out", str(tmp_path / "e"))
        assert code == 1
        assert err == "error: ks must be a non-empty list of distinct ints >= 1, got [0]\n"
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("source", ["argv", "manifest"])
    def test_repeated_vocab_label_refused_before_the_checkpoint_is_read(
            self, capsys, tmp_path, monkeypatch, source):
        # a repeated label would be scored, and counted in mAP and F1, twice
        monkeypatch.setattr("adds.cli.load_checkpoint", lambda *a, **kw: pytest.fail())
        ckpt = str(tmp_path / "missing.adds")
        argv, where = ["--checkpoint", ckpt, "--vocab", "baba,baba,bada"], ""
        if source == "manifest":
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps({
                "config": {"checkpoint": ckpt, "ks": [3], "vocab": ["baba", "baba", "bada"],
                           "n_eval": 4, "eval_seed": 1},
                "timestamp": "2000-01-01T00:00:00Z",
            }))
            argv, where = ["--manifest", str(path)], f"manifest {path}: "
        code, _, err = run(capsys, "eval", *argv, "--out", str(tmp_path / "e"))
        assert code == 1
        assert err == (f"error: {where}vocab must be null or a non-empty list of distinct "
                       "strings, got ['baba', 'baba', 'bada']\n")
        assert not (tmp_path / "e").exists()

    def test_repeated_cutoff_reported_once(self, capsys, tmp_path, tiny_run):
        code, out, _ = run(capsys, "eval", "--checkpoint", str(tiny_run["checkpoint"]),
                           "--n-eval", "4", "--k", "3", "--k", "3", "--out", str(tmp_path))
        assert code == 0
        assert out.count("F1@3") == 1
        assert json.loads((tmp_path / "run_manifest.json").read_text())["config"]["ks"] == [3]

    def test_out_dir_env_var(self, capsys, tmp_path, config_file, monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
        code, _, _ = run(capsys, "train", "--config", str(config_file))
        assert code == 0
        assert (env_dir / "checkpoint.adds").is_file()


# Each example appends one line to this config. Selection runs (6 seen labels
# above a threshold of 2), so alpha reaches select_labels.
_FUZZ_BASE = TINY_CONFIG + "epochs = 1\nn_train = 4\nselection_threshold = 2\n"
# A valid run grows with these fields: a huge value is a long run, not a bad input.
_RUN_SIZES = {"image_side", "embed_dim", "ffn_hidden", "depth", "epochs", "n_train"}
_FUZZ_VALUES = st.one_of(
    st.sampled_from([-2**63, -1, 0, 1, 2, 3, 8, 64, 4900, 4901, 2**31, 2**63]).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "0.5", "1e-3", "1e308", "true", "false",
                     "True", "no", "baseline", "float64", "mystery", "0,1", "0, 0", "1,x",
                     ",", ""]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@example(key="alpha", value="nan")
@given(key=st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)]),
       value=_FUZZ_VALUES)
def test_generated_config_line_exits_0_or_1(key, value):
    assume(not (key in _RUN_SIZES and value.lstrip("-").isdigit() and int(value) > 64))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(_FUZZ_BASE + f"{key} = {value}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", str(path), "--out", tmp])
        assert code in (0, 1)
        assert (code == 1) == err.getvalue().startswith("error:")
        assert (code == 0) == (Path(tmp) / "checkpoint.adds").exists()


class TestGradcheck:
    def test_self_test_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--self-test")
        assert code == 0
        assert "max relative gradient error" in out

    def test_decoder_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--dims", "4", "--depth", "1")
        assert code == 0

    def test_corrupt_gradient_fails(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--dims", "4", "--depth", "1",
                           "--corrupt-gradient")
        assert code == 1

    def test_self_test_with_corrupt_gradient_exit_2(self, capsys):
        # the self-test has no gradient to corrupt, so the pair is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--self-test", "--corrupt-gradient"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err

    @pytest.mark.parametrize("args", [("--dims", "0", "--depth", "-3"), ("--dims", "8"),
                                      ("--depth", "1")])
    def test_self_test_refuses_decoder_settings(self, capsys, args):
        # the self-test builds no decoder, so a --dims or --depth (even its
        # default value) would be silently ignored
        code, out, err = run(capsys, "gradcheck", "--self-test", *args)
        assert code == 1
        assert err == "error: --dims and --depth do not apply to --self-test\n"
        assert out == ""

    # an eps of 1e200 overflows the perturbed loss
    @pytest.mark.parametrize("args", [("--dims", "0"), ("--depth", "0"), ("--eps", "0"),
                                      ("--self-test", "--eps", "0"),
                                      ("--self-test", "--eps", "1e200")])
    def test_bad_setting_exit_1(self, capsys, args):
        code, out, err = run(capsys, "gradcheck", *args)
        assert code == 1
        assert err.startswith("error:")
        assert "max relative gradient error" not in out


# Each option of a generated argv, with values across its bounds; a flag
# takes None, and "{name}" is the tiny_run path or vocabulary of that name.
# Sizes stay small: a valid plan, check, run or evaluation grows with them.
_ARGV_OPTIONS = {
    "plan": {"--base-size": ["-1", "0", "1", "3", "32", "100", "x", "2.5"],
             "--target-size": ["-1", "0", "1", "32", "64", "100", "nan", ""],
             "--levels": ["0", "0,2", "2,0", "0,0", "5", "-1", "x", ",", ""],
             "--cls-only": [None], "--format": ["text", "record", "json"]},
    "gradcheck": {"--dims": ["-1", "0", "1", "2", "x"], "--depth": ["-1", "0", "1", "2", "x"],
                  "--eps": ["0", "-1", "1e-300", "1e-5", "1", "1e200", "1e308", "inf",
                            "nan", "-inf", "x"],
                  "--self-test": [None], "--corrupt-gradient": [None]},
    "train": {"--config": ["{config}"], "--manifest": ["{train_manifest}", "{missing}"],
              "--seed": ["-1", "0", "3", str(2**63), "x"],
              "--lr": ["-1", "0", "1e-3", "1", "1e308", "nan", "inf", "x"],
              "--epochs": ["-1", "0", "1", "2", "1.5"], "--depth": ["-1", "0", "1", "2"],
              "--kind": ["baseline", "dual_modal", "mystery"],
              "--batch-size": ["-1", "0", "1", "4", "64"],
              "--n-train": ["-1", "0", "1", "4", "8"],
              "--alpha": ["-1", "0", "0.5", "3", "nan", "inf"],
              "--dropout": ["-0.1", "0", "0.5", "1", "nan"],
              "--weight-decay": ["-1", "0", "1e-4", "inf", "nan"]},
    "eval": {"--checkpoint": ["{checkpoint}", "{config}", "{missing}"],
             "--manifest": ["{eval_manifest}", "{train_manifest}"],
             "--k": ["-1", "0", "1", "3", "100", "x"],
             "--vocab": ["{vocab}", ",", "nope", "{config}"],
             "--n-eval": ["-1", "0", "1", "4", "x"], "--eval-seed": ["-1", "0", "1234", "x"],
             "--format": ["text", "record", "json"]},
}
# always given: a check at the default of 8 dims takes about a second, a run
# without --config trains the default world, and eval needs a checkpoint
_ALWAYS = {"--dims", "--config", "--checkpoint"}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    argv = [command]
    for flag, values in _ARGV_OPTIONS[command].items():
        if flag in _ALWAYS or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return [arg for arg in argv if arg is not None]


@settings(max_examples=200, deadline=None, derandomize=True)
@example(argv=["gradcheck", "--dims", "4", "--depth", "1", "--eps", "inf"])
@example(argv=["gradcheck", "--self-test", "--eps", "1e200"])
@example(argv=["train", "--config", "{config}", "--lr", "1e308"])
@example(argv=["eval", "--checkpoint", "{checkpoint}", "--vocab", "{vocab}",
               "--n-eval", "4"])
@given(argv=_argv())
def test_generated_argv_exits_0_1_or_2(tiny_run, argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.format(**tiny_run) for arg in argv]
        if argv[0] in ("train", "eval"):
            argv += ["--out", tmp]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error, from argparse
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 1) <= err.getvalue().startswith("error:")


# Each example sets one setting of a valid eval manifest; "{name}" is the
# tiny_run path or class list of that name.
_MANIFEST_VALUES = st.sampled_from([
    None, True, False, -2**63, -1, 0, 1, 3, 8, 2**63, 4.5, float("nan"), float("inf"), "",
    "4", "x", "{checkpoint}", "{config}", "{missing}", [], [0], [1], [3, 5], [2**63],
    [True], ["x"], [1.5], "{names}", {"ks": [3]},
])


@settings(max_examples=100, deadline=None, derandomize=True)
@example(key="checkpoint", value=0)
@given(key=st.sampled_from(["checkpoint", "ks", "vocab", "n_eval", "eval_seed"]),
       value=_MANIFEST_VALUES)
def test_generated_eval_manifest_setting_exits_0_or_1(tiny_run, key, value):
    # a huge eval set is a long evaluation, not a bad input
    assume(not (key == "n_eval" and type(value) is int and value > 8))
    if value == "{names}":
        value = tiny_run["names"][:3]
    elif isinstance(value, str):
        value = value.format(**tiny_run)
    manifest = json.loads(tiny_run["eval_manifest"].read_text())
    manifest["config"][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps(manifest))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["eval", "--manifest", str(path), "--out", tmp])
        assert code in (0, 1)
        assert (code == 1) == err.getvalue().startswith("error:")
        assert (code == 0) == (Path(tmp) / "metrics.jsonl").exists()
