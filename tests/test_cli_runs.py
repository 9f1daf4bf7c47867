"""Multi-seed fan-out, manifests, the ablation grid and the CLI surface."""

import hashlib
import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

import saflab.data
import saflab.runs as runs
from saflab.cli import main
from saflab.config import default_config, parse_config
from saflab.data import DomainSpec, gen_two_moons, save_csv, write_atomic
from saflab.exceptions import DataError, StateError
from saflab.training import run_experiment


TINY_CFG = """
[data]
source = source.csv
target = target.csv

[model]
backbone = dann
f_widths = 5,4
bottleneck_dim = 3
saf_dim = 3
dropout = 0.0

[train]
iterations = 4
batch_size = 4
eval_every = 2
"""


@pytest.fixture
def data_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    save_csv(gen_two_moons(DomainSpec(n_samples=16, seed=0)), d / "source.csv")
    save_csv(gen_two_moons(DomainSpec(n_samples=16, seed=0, rotation_deg=35.0)),
             d / "target.csv")
    (d / "tiny.cfg").write_text(TINY_CFG, encoding="utf-8")
    return d


class TestAggregate:
    def test_mean_and_sample_sd(self):
        mean, sd = runs.aggregate([0.5, 0.7, 0.9])
        assert mean == pytest.approx(0.7)
        assert sd == pytest.approx(math.sqrt(0.04 / 2 * 2))
        assert runs.aggregate([0.4]) == (0.4, 0.0)


class TestRunWithSeeds:
    def test_manifest_and_recompute(self, data_dir, tmp_path):
        cfg = parse_config((data_dir / "tiny.cfg").read_text())
        out = tmp_path / "multi"
        manifest = runs.run_with_seeds(cfg, [0, 1, 2], out, runs.load_hashed(cfg, data_dir))
        assert [r["seed"] for r in manifest["runs"]] == [0, 1, 2]
        accs = [runs.final_target_accuracy(out / f"seed_{s}") for s in (0, 1, 2)]
        mean, sd = runs.aggregate(accs)
        assert manifest["aggregate"]["mean_target_accuracy"] == mean
        assert manifest["aggregate"]["sd_target_accuracy"] == sd
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["aggregate"] == manifest["aggregate"]
        assert set(on_disk["data_hashes"]) == {"source", "target"}
        assert (out / "config.cfg").exists()

    def test_seed_runs_match_single_runs(self, data_dir, tmp_path):
        cfg = parse_config((data_dir / "tiny.cfg").read_text())
        runs.run_with_seeds(cfg, [0, 1], tmp_path / "multi", runs.load_hashed(cfg, data_dir))
        source, target = runs.load_datasets(cfg, data_dir)
        for k in (0, 1):
            single = run_experiment(replace(cfg.train, seed=k), source, target,
                                    tmp_path / f"single_{k}")
            for name in ("model.txt", "metrics.csv"):
                assert (tmp_path / "multi" / f"seed_{k}" / name).read_bytes() \
                    == (single / name).read_bytes()


def _refuse_replace(src, dst):
    raise OSError(f"cannot replace {dst}")


class TestWholeOrNothing:
    """Every whole-file artifact appears complete or not at all."""

    @pytest.fixture
    def failing_replace(self, monkeypatch):
        """Every os.replace fails but config.cfg's, so a run gets to its end."""
        replace_ = os.replace

        def fail(src, dst):
            if os.path.basename(dst) == "config.cfg":
                return replace_(src, dst)
            _refuse_replace(src, dst)

        monkeypatch.setattr(os, "replace", fail)

    def test_write_atomic_replaces_whole_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old contents that are longer\n")
        write_atomic(target, "new\n")
        assert target.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_keeps_old_file(self, tmp_path, failing_replace):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(OSError):
            write_atomic(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_save_params_leaves_nothing(self, tmp_path, tiny_bundle, failing_replace):
        bundle, _ = tiny_bundle
        with pytest.raises(OSError):
            bundle.save_params(tmp_path / "model.txt")
        assert list(tmp_path.iterdir()) == []

    def test_save_params_refuses_a_non_finite_array(self, tmp_path, tiny_bundle):
        bundle, _ = tiny_bundle
        bundle.C.layers[1].b.tensor.data[0, 1] = math.inf
        with pytest.raises(StateError, match=r"^C\.1\.b is not finite; .*is not written$"):
            bundle.save_params(tmp_path / "model.txt")
        assert list(tmp_path.iterdir()) == []

    def test_run_with_seeds_leaves_no_model_or_manifest(self, data_dir, tmp_path,
                                                        failing_replace):
        cfg = parse_config((data_dir / "tiny.cfg").read_text())
        out = tmp_path / "multi"
        with pytest.raises(OSError):
            runs.run_with_seeds(cfg, [0, 1], out, runs.load_hashed(cfg, data_dir))
        left = {p.relative_to(out).as_posix() for p in out.rglob("*")}
        assert left == {"config.cfg", "seed_0", "seed_0/metrics.csv"}

    def test_train_exits_two(self, data_dir, tmp_path, capsys, failing_replace):
        out = tmp_path / "run"
        code = main(["train", "--config", str(data_dir / "tiny.cfg"), "--out", str(out)])
        assert code == 2
        assert "cannot replace" in capsys.readouterr().err
        left = {p.relative_to(out).as_posix() for p in out.rglob("*")}
        assert left == {"config.cfg", "seed_0", "seed_0/metrics.csv"}

    def test_gen_data_exits_two(self, tmp_path, capsys, failing_replace):
        out = tmp_path / "d"
        assert main(["gen-data", "--samples", "12", "--out", str(out)]) == 2
        assert "cannot replace" in capsys.readouterr().err
        assert not out.exists()

    def test_export_embeddings_exits_two(self, data_dir, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(data_dir / "tiny.cfg"), "--out", str(run_dir)]) == 0
        monkeypatch.setattr(os, "replace", _refuse_replace)
        out = tmp_path / "emb"
        assert main(["export-embeddings", "--config", str(data_dir / "tiny.cfg"),
                     "--model", str(run_dir / "seed_0" / "model.txt"),
                     "--source", str(data_dir / "source.csv"),
                     "--target", str(data_dir / "target.csv"), "--out", str(out)]) == 2
        assert "cannot replace" in capsys.readouterr().err
        assert not out.exists()


def _fail_second_write(monkeypatch):
    """The second file that ``write_all`` writes cannot be replaced."""
    write_atomic_ = saflab.data.write_atomic
    written = []

    def write(path, text):
        written.append(path)
        if len(written) == 2:
            _refuse_replace(None, path)
        write_atomic_(path, text)

    monkeypatch.setattr(saflab.data, "write_atomic", write)


class TestWholeSet:
    """A command that writes a set of files leaves all of them or none."""

    def test_gen_data_exits_two_leaving_no_file(self, tmp_path, capsys, monkeypatch):
        _fail_second_write(monkeypatch)
        out = tmp_path / "d"
        assert main(["gen-data", "--samples", "12", "--out", str(out)]) == 2
        assert f"cannot replace {out / 'target.csv'}" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_data_removes_every_directory_it_made(self, tmp_path, capsys, monkeypatch):
        _fail_second_write(monkeypatch)
        out = tmp_path / "a" / "b" / "c"
        assert main(["gen-data", "--samples", "12", "--out", str(out)]) == 2
        assert f"cannot replace {out / 'target.csv'}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gen_data_keeps_an_existing_out_dir(self, tmp_path, capsys, monkeypatch):
        _fail_second_write(monkeypatch)
        out = tmp_path / "d"
        out.mkdir()
        assert main(["gen-data", "--samples", "12", "--out", str(out)]) == 2
        assert f"cannot replace {out / 'target.csv'}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_export_embeddings_exits_two_leaving_no_file(self, data_dir, tmp_path, capsys,
                                                        monkeypatch):
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(data_dir / "tiny.cfg"), "--out", str(run_dir)]) == 0
        _fail_second_write(monkeypatch)
        out = tmp_path / "emb"
        assert main(["export-embeddings", "--config", str(data_dir / "tiny.cfg"),
                     "--model", str(run_dir / "seed_0" / "model.txt"),
                     "--source", str(data_dir / "source.csv"),
                     "--target", str(data_dir / "target.csv"), "--out", str(out)]) == 2
        assert f"cannot replace {out / 'embeddings.svg'}" in capsys.readouterr().err
        assert not out.exists()


class TestAblationGrid:
    def test_exactly_ten_named_variants(self):
        assert len(runs.ABLATION_VARIANTS) == 10
        assert runs.ABLATION_VARIANTS[-1] == "full_saf"

    def test_full_saf_equals_base(self):
        base = default_config()
        assert runs.ablation_config(base, "full_saf") is base

    def test_variant_transforms(self):
        base = default_config()
        assert runs.ablation_config(base, "backbone_only").train.saf_enabled is False
        assert runs.ablation_config(base, "no_bottleneck").train.mixup_after_bottleneck
        assert runs.ablation_config(base, "beta_eta").train.mixup.mode == "beta"
        assert runs.ablation_config(base, "constant_eta").train.mixup.mode == "constant"
        assert runs.ablation_config(base, "one_bottleneck").train.saf_bottlenecks == 1
        assert runs.ablation_config(base, "four_bottlenecks").train.saf_bottlenecks == 4
        assert runs.ablation_config(base, "include_source").train.mixup.include_source
        assert runs.ablation_config(base, "only_uncertain").train.mixup.entropy_filter \
            == "only_uncertain"
        assert runs.ablation_config(base, "only_certain").train.mixup.entropy_filter \
            == "only_certain"
        # transforms never mutate the base
        assert base.train.saf_enabled and base.train.mixup.mode == "saf"

    def test_run_ablation_loads_each_dataset_once(self, data_dir, tmp_path, monkeypatch):
        loaded = []
        load_csv_ = runs.load_csv

        def load_csv(path, *args, **kwargs):
            loaded.append(path)
            return load_csv_(path, *args, **kwargs)

        monkeypatch.setattr(runs, "load_csv", load_csv)
        cfg = parse_config((data_dir / "tiny.cfg").read_text())
        runs.run_ablation(cfg, [0], tmp_path / "ablate", data_dir)
        assert loaded == [data_dir / "source.csv", data_dir / "target.csv"]

    def test_run_ablation_table_and_controlled_comparison(self, data_dir, tmp_path):
        cfg = parse_config((data_dir / "tiny.cfg").read_text())
        out = tmp_path / "ablate"
        table = runs.run_ablation(cfg, [0, 1], out, data_dir)
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "variant,mean_tgt_acc,sd_tgt_acc,status"
        assert len(lines) == 11
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == list(runs.ABLATION_VARIANTS)
        hashes = set()
        seeds = set()
        for variant in runs.ABLATION_VARIANTS:
            m = json.loads((out / variant / "manifest.json").read_text())
            hashes.add((m["data_hashes"]["source"], m["data_hashes"]["target"]))
            seeds.add(tuple(m["seeds"]))
        assert len(hashes) == 1 and len(seeds) == 1


class TestInputsReadOnce:
    """A training command reads its config and each data CSV once, and the
    manifest hashes the bytes that were parsed."""

    @pytest.mark.parametrize("command, manifest", [
        (["train"], "manifest.json"),
        (["train", "--seeds", "0..1"], "manifest.json"),
        (["ablate", "--seeds", "0"], "full_saf/manifest.json"),
    ], ids=["train", "train-seeds", "ablate"])
    def test_each_file_is_read_once(self, data_dir, tmp_path, monkeypatch, command, manifest):
        read, read_bytes = [], Path.read_bytes

        def counting(path):
            read.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        out = tmp_path / "out"
        assert main([*command, "--config", str(data_dir / "tiny.cfg"), "--out", str(out)]) == 0
        assert read == ["tiny.cfg", "source.csv", "target.csv"]
        monkeypatch.undo()
        hashes = json.loads((out / manifest).read_text())["data_hashes"]
        assert hashes == {name: hashlib.sha256((data_dir / f"{name}.csv").read_bytes()).hexdigest()
                          for name in ("source", "target")}

    def test_a_byte_order_mark_changes_no_output_byte(self, data_dir, tmp_path):
        marked = data_dir / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + (data_dir / "tiny.cfg").read_bytes())
        for cfg, out in ((data_dir / "tiny.cfg", "plain"), (marked, "marked")):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        for name in ("config.cfg", "manifest.json", "seed_0/metrics.csv", "seed_0/model.txt"):
            assert (tmp_path / "marked" / name).read_bytes() \
                == (tmp_path / "plain" / name).read_bytes()


class TestDataMustFitTheConfig:
    """A dataset that does not fit the model is refused at load, naming the
    file, the row and the config key; no command writes anything.  The data
    are checked before the model file is read, so none needs to exist."""

    COMMANDS = {
        "train": ["train"],
        "train-seeds": ["train", "--seeds", "0..1"],
        "ablate": ["ablate", "--seeds", "0"],
        "eval": ["eval"],
        "export-embeddings": ["export-embeddings"],
    }

    def run(self, command, cfg, data, out):
        argv = [*self.COMMANDS[command], "--config", str(cfg)]
        if command in ("eval", "export-embeddings"):
            argv += ["--model", str(out.parent / "model.txt"),
                     "--source", str(data / "source.csv"), "--target", str(data / "target.csv")]
        if command != "eval":
            argv += ["--out", str(out)]
        return main(argv)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_labels_beyond_num_classes_exit_two(self, tmp_path, capsys, command):
        data = tmp_path / "blobs"
        assert main(["gen-data", "--kind", "gaussian_blobs", "--classes", "3",
                     "--samples", "16", "--out", str(data)]) == 0
        (data / "tiny.cfg").write_text(TINY_CFG, encoding="utf-8")
        lines = (data / "source.csv").read_text(encoding="utf-8").splitlines()
        row = next(i for i, line in enumerate(lines, start=1) if line.endswith(",2"))
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.run(command, data / "tiny.cfg", data, out) == 2
        assert capsys.readouterr().err == (f"saflab: error: {data / 'source.csv'}: row {row}: "
                                           "label 2, but model.num_classes = 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_width_other_than_input_dim_exits_two(self, data_dir, tmp_path, capsys, command):
        cfg = data_dir / "wide.cfg"
        cfg.write_text(TINY_CFG.replace("[model]\n", "[model]\ninput_dim = 3\n"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert self.run(command, cfg, data_dir, out) == 2
        assert capsys.readouterr().err == (f"saflab: error: {data_dir / 'source.csv'}: row 1: "
                                           "2 feature columns, but model.input_dim = 3\n")
        assert not out.exists()

    def test_the_target_is_checked_too(self, data_dir):
        target = data_dir / "target.csv"
        lines = target.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][:lines[2].rindex(",")] + ",5"
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = parse_config((data_dir / "tiny.cfg").read_text())
        with pytest.raises(DataError, match=re.escape(f"{target}: row 3: label 5, but ")):
            runs.load_datasets(cfg, data_dir)


class TestOneRowBatch:
    """A training run that would reach a one-row batch at the end of an epoch
    is refused at load: batch norm cannot train on one row.  13 rows at batch
    size 4 leave one row for step 3."""

    @pytest.fixture
    def short_epoch(self, data_dir):
        def write(name):
            spec = DomainSpec(n_samples=13, seed=0, rotation_deg=35.0 * (name == "target.csv"))
            save_csv(gen_two_moons(spec), data_dir / name)
            return data_dir / name
        return write

    @pytest.mark.parametrize("name", ["source.csv", "target.csv"])
    @pytest.mark.parametrize("command", [["train"], ["train", "--seeds", "0..1"],
                                         ["ablate", "--seeds", "0"]],
                             ids=["train", "train-seeds", "ablate"])
    def test_refused_before_anything_is_written(self, data_dir, tmp_path, capsys, short_epoch,
                                                command, name):
        path = short_epoch(name)
        out = tmp_path / "out"
        assert main([*command, "--config", str(data_dir / "tiny.cfg"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"saflab: error: {path}: 13 rows end an epoch in a one-row batch at train step 3, "
            "too small for batch norm (train.batch_size = 4)\n")
        assert not out.exists()

    def test_shorter_runs_eval_and_export_still_work(self, data_dir, tmp_path, short_epoch):
        short_epoch("source.csv")
        cfg = data_dir / "short.cfg"
        cfg.write_text(TINY_CFG.replace("iterations = 4", "iterations = 3"), encoding="utf-8")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        files = ["--model", str(run / "seed_0" / "model.txt"),
                 "--source", str(data_dir / "source.csv"),
                 "--target", str(data_dir / "target.csv")]
        assert main(["eval", "--config", str(data_dir / "tiny.cfg"), *files]) == 0
        assert main(["export-embeddings", "--config", str(data_dir / "tiny.cfg"), *files,
                     "--out", str(tmp_path / "emb")]) == 0


class TestCli:
    def test_print_config(self, capsys):
        assert main(["--print-config"]) == 0
        out = capsys.readouterr().out
        assert "[train]" in out and "base_lr = 0.004" in out

    def test_gen_data_files_and_determinism(self, tmp_path, capsys):
        args = ["gen-data", "--kind", "two_moons", "--rotation", "35", "--seed", "7",
                "--samples", "20", "--out", str(tmp_path / "d")]
        assert main(args) == 0
        d = tmp_path / "d"
        first = {p.name: p.read_bytes() for p in d.iterdir()}
        assert set(first) == {"source.csv", "target.csv", "data_manifest.json"}
        assert main(args) == 0
        second = {p.name: p.read_bytes() for p in d.iterdir()}
        assert first == second

    def test_gen_data_zero_rotation_identical_files(self, tmp_path):
        out = tmp_path / "d0"
        assert main(["gen-data", "--rotation", "0", "--samples", "12",
                     "--out", str(out)]) == 0
        assert (out / "source.csv").read_bytes() == (out / "target.csv").read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag, field", [
        ("--noise", "noise_sd"), ("--rotation", "rotation_deg"),
        ("--translate-x", "translation"), ("--translate-y", "translation"),
        ("--scale", "scale"),
    ])
    def test_gen_data_non_finite_value_exits_two(self, tmp_path, capsys, flag, field, value):
        out = tmp_path / "d"
        assert main(["gen-data", flag, value, "--samples", "12", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"saflab: error: {field} must be finite, got "), err
        assert not out.exists()

    def test_train_single_run(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", str(data_dir / "tiny.cfg"), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.startswith(f"1 runs -> {out}: mean tgt acc ")
        assert (out / "seed_0" / "metrics.csv").exists()
        assert (out / "seed_0" / "model.txt").exists()
        assert (out / "config.cfg").exists()
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [0]

    def test_train_multi_seed_manifest(self, data_dir, tmp_path):
        out = tmp_path / "multi"
        code = main(["train", "--config", str(data_dir / "tiny.cfg"),
                     "--seeds", "0..2", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [0, 1, 2]

    @pytest.mark.parametrize("flag, value", [("--saf", "off"), ("--backbone", "dann")])
    def test_config_keys_are_not_train_flags(self, data_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(data_dir / "tiny.cfg"), flag, value,
                  "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"saflab: error: unrecognized arguments: {flag} {value}\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_eval_prints_metrics_row(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(data_dir / "tiny.cfg"), "--out", str(out)])
        capsys.readouterr()
        code = main(["eval", "--config", str(data_dir / "tiny.cfg"),
                     "--model", str(out / "seed_0" / "model.txt"),
                     "--source", str(data_dir / "source.csv"),
                     "--target", str(data_dir / "target.csv")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("iter,eps_c")
        assert len(lines) == 2

    def test_export_embeddings_cli(self, data_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["train", "--config", str(data_dir / "tiny.cfg"), "--out", str(run_dir)])
        out = tmp_path / "emb"
        code = main(["export-embeddings", "--config", str(data_dir / "tiny.cfg"),
                     "--model", str(run_dir / "seed_0" / "model.txt"),
                     "--source", str(data_dir / "source.csv"),
                     "--target", str(data_dir / "target.csv"),
                     "--out", str(out)])
        assert code == 0
        assert (out / "embeddings.csv").exists()
        assert (out / "embeddings.svg").exists()

    @pytest.mark.parametrize("command", ["eval", "export-embeddings"])
    @pytest.mark.parametrize("record, reason", [
        ("F.0.w 2 5 abc", "bad value in record 'F.0.w'"),
        ("F.0.w 2.5 5 0", "bad shape in record 'F.0.w'"),
        ("F.0.w 2", "a record needs a name, rows and cols"),
        ("F.0.w 1 1 inf", "record 'F.0.w' holds a non-finite value"),
    ])
    def test_malformed_model_file_exits_two(self, data_dir, tmp_path, capsys, command,
                                            record, reason):
        model = tmp_path / "model.txt"
        model.write_text("\n" + record + "\n", encoding="utf-8")
        argv = [command, "--config", str(data_dir / "tiny.cfg"), "--model", str(model),
                "--source", str(data_dir / "source.csv"),
                "--target", str(data_dir / "target.csv")]
        if command == "export-embeddings":
            argv += ["--out", str(tmp_path / "emb")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"saflab: error: {model}, line 2: {reason}"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, command", [
        ("config", "train"), ("config", "ablate"), ("config", "eval"), ("csv", "train"),
        ("csv", "export-embeddings"), ("model", "eval"), ("model", "export-embeddings"),
    ])
    def test_non_utf8_byte_exits_two_naming_file_and_offset(self, data_dir, tmp_path, capsys,
                                                            kind, command):
        run = tmp_path / "run"
        assert main(["train", "--config", str(data_dir / "tiny.cfg"), "--out", str(run)]) == 0
        capsys.readouterr()
        path = {"config": data_dir / "tiny.cfg", "csv": data_dir / "source.csv",
                "model": run / "seed_0" / "model.txt"}[kind]
        raw = path.read_bytes()
        path.write_bytes(raw[:20] + b"\xff" + raw[20:])
        out = tmp_path / "out"
        argv = [command, "--config", str(data_dir / "tiny.cfg")]
        if command in ("eval", "export-embeddings"):
            argv += ["--model", str(run / "seed_0" / "model.txt"),
                     "--source", str(data_dir / "source.csv"),
                     "--target", str(data_dir / "target.csv")]
        if command != "eval":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"saflab: error: {path}: byte 20 is not UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("classes", ["1", "5"])
    def test_gen_data_classes_out_of_range_is_usage_error(self, tmp_path, capsys, classes):
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--kind", "gaussian_blobs", "--classes", classes,
                  "--out", str(out)])
        assert exc.value.code == 1
        assert f"argument --classes: invalid choice: {classes}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", [None, "0..1"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_cell_exits_two_writing_nothing(self, data_dir, tmp_path, capsys,
                                                           cell, seeds):
        source = data_dir / "source.csv"
        lines = source.read_text(encoding="utf-8").splitlines()
        lines[3] = cell + lines[3][lines[3].index(","):]
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        argv = ["train", "--config", str(data_dir / "tiny.cfg"), "--out", str(out)]
        assert main(argv + (["--seeds", seeds] if seeds else [])) == 2
        err = capsys.readouterr().err
        assert err == f"saflab: error: {source}: row 4: non-finite cell\n"
        assert not out.exists()

    def test_ablate_data_error_exits_two_writing_nothing(self, data_dir, tmp_path, capsys):
        source = data_dir / "source.csv"
        lines = source.read_text(encoding="utf-8").splitlines()
        lines[3] = "nan" + lines[3][lines[3].index(","):]
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(data_dir / "tiny.cfg"), "--seeds", "0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"saflab: error: {source}: row 4: non-finite cell\n"
        assert not out.exists()

    def test_export_embeddings_of_a_one_wide_bottleneck_exits_two(self, data_dir, tmp_path,
                                                                   capsys):
        cfg = data_dir / "narrow.cfg"
        cfg.write_text(TINY_CFG.replace("bottleneck_dim = 3", "bottleneck_dim = 1"),
                       encoding="utf-8")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "emb"
        assert main(["export-embeddings", "--config", str(cfg),
                     "--model", str(run_dir / "seed_0" / "model.txt"),
                     "--source", str(data_dir / "source.csv"),
                     "--target", str(data_dir / "target.csv"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("saflab: error: projection needs at least 3 samples "
                                           "of at least 2 columns, got shape (32, 1)\n")
        assert not out.exists()

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--kind", "fractal", "--out", "x"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required flags
        assert exc.value.code == 1

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_config_key_exits_two_naming_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nturbo = on\n", encoding="utf-8")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "train.turbo" in err

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_removed_conditioned_adversary_key_exits_two(self, tmp_path, capsys):
        old = tmp_path / "old.cfg"
        old.write_text("[model]\nconditioned_adversary = off\n", encoding="utf-8")
        code = main(["train", "--config", str(old), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "model.conditioned_adversary" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_negative_config_seed_exits_two_writing_nothing(self, data_dir, tmp_path,
                                                            capsys, command):
        cfg = data_dir / "neg.cfg"
        cfg.write_text(TINY_CFG + "seed = -1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err \
            == f"saflab: error: {cfg}: train.seed: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["train"], ["train", "--seeds", "0..1"],
                                         ["ablate", "--seeds", "0"]],
                             ids=["train", "train-seeds", "ablate"])
    def test_run_ending_before_its_first_evaluation_exits_two_writing_nothing(
            self, data_dir, tmp_path, capsys, command):
        cfg = data_dir / "late.cfg"
        cfg.write_text(TINY_CFG.replace("eval_every = 2", "eval_every = 5"), encoding="utf-8")
        out = tmp_path / "o"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"saflab: error: {cfg}: train.eval_every: 5 exceeds "
                                           "train.iterations = 4, so the run writes no "
                                           "evaluation row\n")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("eval_every = 2", "eval_every = 2\nlambda_d_max = nan",
         "train.lambda_d_max: must be finite, got nan"),
        ("dropout = 0.0", "dropout = 1.5", "model.dropout: dropout must be in [0, 1), got 1.5"),
    ], ids=["lambda_d_max_nan", "dropout_1.5"])
    def test_bad_config_value_exits_two_writing_nothing(self, data_dir, tmp_path, capsys,
                                                        old, new, message):
        cfg = data_dir / "bad.cfg"
        cfg.write_text(TINY_CFG.replace(old, new), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"saflab: error: {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_run_exits_two_and_ablate_records_errors(self, data_dir, tmp_path,
                                                              capsys):
        cfg = data_dir / "diverge.cfg"
        # one update at this rate makes every trained parameter huge, so the
        # forward pass of step t = 1 overflows and its losses are NaN; the step
        # raises, with no numpy warning, before the evaluation
        cfg.write_text(TINY_CFG.replace("backbone = dann", "backbone = mdd")
                       + "base_lr = 1e300\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "train step 1: non-finite eps_c (nan)" in capsys.readouterr().err
        assert not (tmp_path / "run" / "seed_0" / "model.txt").exists()
        assert main(["ablate", "--config", str(cfg), "--seeds", "0",
                     "--out", str(tmp_path / "abl")]) == 0
        rows = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()[1:]
        assert len(rows) == len(runs.ABLATION_VARIANTS)
        assert all(",nan,nan,error: train step 1: non-finite eps_c (nan)" in r
                   for r in rows), rows

    def test_overflowed_running_variance_exits_two_naming_it(self, data_dir, tmp_path,
                                                              capsys):
        cfg = data_dir / "overflow.cfg"
        # at this rate B's running variance overflows to inf by step 4, while
        # batch norm keeps the activations, and so every loss, finite
        cfg.write_text(TINY_CFG.replace("backbone = dann", "backbone = mdd")
                       + "base_lr = 1e14\n", encoding="utf-8")
        error = "evaluation at iteration 4: non-finite B.0.bn_var; the model has diverged"
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"saflab: error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "seed_0" / "model.txt").exists()
        assert main(["ablate", "--config", str(cfg), "--seeds", "0",
                     "--out", str(tmp_path / "abl")]) == 0
        rows = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()[1:]
        assert [r.split(",", 1)[0] for r in rows] == list(runs.ABLATION_VARIANTS)
        assert all(r.endswith(f",nan,nan,error: {error}") for r in rows), rows

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("seeds", ["4..0", ",", "a", "0,0", "1..x", "-1"])
    def test_bad_seed_list_is_usage_error(self, data_dir, tmp_path, capsys, command, seeds):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(data_dir / "tiny.cfg"), f"--seeds={seeds}",
                  "--out", str(out)])
        assert exc.value.code == 1
        assert "argument --seeds" in capsys.readouterr().err
        assert not out.exists()
