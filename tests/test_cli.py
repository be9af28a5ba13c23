import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        args = parser.parse_args(["info"])
        assert args.command == "info"

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--name", "bogus"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "562 metrics" in out
        assert "miniAMR" in out

    def test_tables_1(self, capsys):
        assert main(["tables", "--which", "1"]) == 0
        out = capsys.readouterr().out
        assert "Rounding Depth" in out

    def test_generate_fit_recognize_round_trip(self, tmp_path, capsys):
        data = str(tmp_path / "ds.npz")
        efd = str(tmp_path / "efd.json")
        assert main([
            "generate", "--out", data, "--repetitions", "2",
            "--duration-cap", "150", "--seed", "11",
        ]) == 0
        assert os.path.exists(data)

        assert main([
            "fit", "--data", data, "--out", efd, "--depth", "2",
        ]) == 0
        assert os.path.exists(efd)
        payload = json.loads(open(efd).read())
        assert payload["entries"]

        assert main([
            "recognize", "--efd", efd, "--data", data, "--depth", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        accuracy = float(out.strip().rsplit("= ", 1)[1])
        assert accuracy > 0.9

    def test_fit_reports_tuned_depth(self, tmp_path, capsys):
        data = str(tmp_path / "ds.npz")
        efd = str(tmp_path / "efd.json")
        main(["generate", "--out", data, "--repetitions", "3",
              "--duration-cap", "150", "--seed", "12"])
        capsys.readouterr()
        assert main(["fit", "--data", data, "--out", efd]) == 0
        out = capsys.readouterr().out
        assert "depth=" in out and "pruning_ratio=" in out

    def test_experiment_command(self, capsys):
        assert main([
            "experiment", "--name", "normal_fold",
            "--repetitions", "2", "--folds", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "normal_fold" in out and "F=" in out


class TestEngineCommands:
    def test_engine_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine"])

    def test_selftest_smoke(self, capsys):
        assert main(["engine", "selftest", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "shard keys" in out

    def test_shard_recognize_info_round_trip(self, tmp_path, capsys):
        data = str(tmp_path / "ds.npz")
        efd = str(tmp_path / "efd.json")
        shards = str(tmp_path / "efd-shards")
        main(["generate", "--out", data, "--repetitions", "2",
              "--duration-cap", "150", "--seed", "11"])
        main(["fit", "--data", data, "--out", efd, "--depth", "2"])
        capsys.readouterr()

        assert main([
            "engine", "shard", "--efd", efd, "--out", shards, "--shards", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 shard(s)" in out
        assert os.path.isdir(shards)
        assert os.path.exists(os.path.join(shards, "manifest.json"))

        assert main(["engine", "info", "--efd-dir", shards]) == 0
        out = capsys.readouterr().out
        assert "occupancy" in out

        assert main([
            "engine", "recognize", "--efd-dir", shards, "--data", data,
            "--depth", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        accuracy = float(out.strip().rsplit("= ", 1)[1])
        assert accuracy > 0.9

    def test_info_requires_a_source(self, capsys):
        assert main(["engine", "info"]) == 2

    def test_shard_writes_columnar_and_recognizes_like_flat(
        self, tmp_path, capsys
    ):
        data = str(tmp_path / "ds.npz")
        efd = str(tmp_path / "efd.json")
        shards = str(tmp_path / "efd-shards")
        main(["generate", "--out", data, "--repetitions", "2",
              "--duration-cap", "150", "--seed", "11"])
        main(["fit", "--data", data, "--out", efd, "--depth", "2"])
        capsys.readouterr()

        assert main([
            "engine", "shard", "--efd", efd, "--out", shards, "--shards", "4",
        ]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(shards, "shard-00.mmap"))
        with open(os.path.join(shards, "manifest.json")) as fh:
            assert json.load(fh)["layout"] == "columnar"

        # The shard directory recognizes exactly like the flat JSON.
        assert main([
            "recognize", "--efd", efd, "--data", data, "--depth", "2",
        ]) == 0
        flat_out = capsys.readouterr().out
        assert main([
            "engine", "recognize", "--efd-dir", shards, "--data", data,
            "--depth", "2",
        ]) == 0
        columnar_out = capsys.readouterr().out
        assert flat_out.rsplit("accuracy", 1)[1] == \
            columnar_out.rsplit("accuracy", 1)[1]

    def _columnar_dir(self, tmp_path, n=60):
        from repro.core.fingerprint import Fingerprint
        from repro.engine import ShardedDictionary, save_columnar

        sharded = ShardedDictionary(3)
        for i in range(n):
            sharded.add(
                Fingerprint(f"m{i % 2}", i % 4, (0.0, 60.0), float(i)),
                f"app{i % 5}_X",
            )
        directory = str(tmp_path / "efd-dir")
        save_columnar(sharded, directory)
        return directory

    def test_mmap_layout_round_trip(self, tmp_path, capsys):
        directory = self._columnar_dir(tmp_path)
        assert os.path.exists(os.path.join(directory, "shard-00.mmap"))
        assert os.path.exists(os.path.join(directory, "shard-00.filter"))

        assert main(["engine", "info", "--efd-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "filters     : per-shard Bloom" in out

        # Compacting a clean columnar directory is a named refusal, not
        # a traceback.
        assert main(["engine", "compact", "--dir", directory]) == 2
        assert "already compacted" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["info", "recognize", "compact",
                                     "reshard", "serve", "shardserve"])
    @pytest.mark.parametrize("storage", ["npz", None])
    def test_legacy_storage_named_exit_2(self, cmd, storage, tmp_path,
                                         capsys):
        # A store written when npz was the default codec (storage="npz",
        # or no storage field at all) fails by name, never a traceback,
        # from the engine commands and from both serving commands.
        directory = self._columnar_dir(tmp_path)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if storage is None:
            del manifest["storage"]
        else:
            manifest["storage"] = storage
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        argv = {
            "info": ["--efd-dir", directory],
            "recognize": ["--efd-dir", directory, "--data",
                          str(tmp_path / "unused.npz"), "--depth", "2"],
            "compact": ["--dir", directory],
            "reshard": ["--dir", directory, "--shards", "2"],
            "serve": ["--efd-dir", directory, "--depth", "2", "--quiet"],
            "shardserve": ["--dir", directory,
                           "--uds", str(tmp_path / "shard.sock")],
        }[cmd]
        command = [cmd] if cmd in ("serve", "shardserve") else ["engine", cmd]
        assert main([*command, *argv]) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith(f"{' '.join(command)}: ")
        assert directory in err
        assert "'npz' storage" in err
        assert "earlier revision" in err
        assert "Traceback" not in err
        assert "listening" not in captured.out

    @pytest.mark.parametrize("suffix", [".filter", ".hashidx", ".mmap"])
    def test_info_missing_sidecar_named_exit_2(
        self, suffix, tmp_path, capsys
    ):
        # Regression: a manifest referencing a missing filter/shard file
        # used to traceback out of `efd engine info`.
        directory = self._columnar_dir(tmp_path)
        victim = sorted(
            f for f in os.listdir(directory) if f.endswith(suffix)
        )[0]
        os.remove(os.path.join(directory, victim))
        assert main(["engine", "info", "--efd-dir", directory]) == 2
        err = capsys.readouterr().err
        assert victim in err
        assert "engine info:" in err

    def test_info_corrupt_filter_named_exit_2(self, tmp_path, capsys):
        directory = self._columnar_dir(tmp_path)
        victim = sorted(
            f for f in os.listdir(directory) if f.endswith(".filter")
        )[0]
        path = os.path.join(directory, victim)
        payload = bytearray(open(path, "rb").read())
        payload[-1] ^= 0xFF
        open(path, "wb").write(bytes(payload))
        assert main(["engine", "info", "--efd-dir", directory]) == 2
        err = capsys.readouterr().err
        assert victim in err

    @pytest.mark.parametrize("payload, named", [
        ("[1, 2, 3]", "list"),
        ('{"shed": "lots"}', "'shed'"),
        (None, "No such file"),
    ])
    def test_info_bad_stats_snapshot_named_exit_2(
        self, payload, named, tmp_path, capsys
    ):
        # Regression: a malformed or missing --stats snapshot used to
        # traceback out of `efd engine info`.
        path = str(tmp_path / "stats.json")
        if payload is not None:
            open(path, "w").write(payload)
        assert main(["engine", "info", "--stats", path]) == 2
        err = capsys.readouterr().err
        assert f"engine info: bad stats snapshot {path}:" in err
        assert named in err

    def test_serve_from_columnar_directory(self, tmp_path, capsys):
        data = str(tmp_path / "ds.npz")
        efd = str(tmp_path / "efd.json")
        columnar = str(tmp_path / "efd-columnar")
        stream = str(tmp_path / "stream.jsonl")
        main(["generate", "--out", data, "--repetitions", "2",
              "--duration-cap", "150", "--seed", "11"])
        main(["fit", "--data", data, "--out", efd, "--depth", "2"])
        main(["engine", "shard", "--efd", efd, "--out", columnar,
              "--shards", "4"])
        capsys.readouterr()
        with open(stream, "w", encoding="utf-8") as fh:
            for t in range(125):
                fh.write(json.dumps({
                    "job": "j-1", "node": 0, "t": float(t),
                    "value": 180000.0, "nodes": 1,
                }) + "\n")
        assert main([
            "serve", "--efd-dir", columnar, "--depth", "2",
            "--input", stream, "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 1 session(s)" in out



class TestNamedInputErrors:
    """A missing or corrupt store or dataset, or a dataset without the
    requested metric, is a one-line named error, never a traceback:
    ``engine recognize``, ``serve`` and ``shardserve`` exit 2,
    ``family build``/``report`` raise a ``SystemExit`` naming the
    command."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        data = str(root / "ds.npz")
        efd = str(root / "efd.json")
        shards = str(root / "efd-shards")
        main(["generate", "--out", data, "--repetitions", "1",
              "--duration-cap", "150", "--seed", "11"])
        main(["fit", "--data", data, "--out", efd, "--depth", "2"])
        main(["engine", "shard", "--efd", efd, "--out", shards,
              "--shards", "2"])
        truncated = str(root / "truncated.npz")
        with open(data, "rb") as src, open(truncated, "wb") as dst:
            dst.write(src.read(300))
        garbled = str(root / "garbled")
        os.makedirs(garbled)
        with open(os.path.join(garbled, "manifest.json"), "w") as fh:
            fh.write("{not json")
        # The retired sharded-JSON layout, by hand: a manifest with
        # format_version 1 and no layout field, plus one flat-JSON shard.
        json_shards = str(root / "json-shards")
        os.makedirs(json_shards)
        with open(efd) as src, \
                open(os.path.join(json_shards, "shard-00.json"), "w") as dst:
            dst.write(src.read())
        with open(os.path.join(json_shards, "manifest.json"), "w") as fh:
            json.dump({
                "format_version": 1, "n_shards": 1, "label_order": [],
                "shards": [{"file": "shard-00.json", "n_keys": 0}],
            }, fh)
        return {
            "data": data, "efd": efd, "shards": shards,
            "truncated": truncated, "garbled": garbled,
            "json_shards": json_shards,
            "missing": str(root / "nonexistent"),
        }

    @staticmethod
    def _store_argv(cmd, directory, inputs, tmp_path):
        return {
            "engine info": ["--efd-dir", directory],
            "engine recognize": ["--efd-dir", directory,
                                 "--data", inputs["data"], "--depth", "2"],
            "engine compact": ["--dir", directory],
            "engine reshard": ["--dir", directory, "--shards", "3"],
            "serve": ["--efd-dir", directory, "--depth", "2", "--quiet"],
            "shardserve": ["--dir", directory,
                           "--uds", str(tmp_path / "shard.sock")],
        }[cmd]

    @pytest.mark.parametrize("cmd", ["serve", "shardserve"])
    @pytest.mark.parametrize("store, named", [
        ("missing", "nonexistent"),
        ("garbled", "garbled"),
    ])
    def test_serving_a_bad_store_exits_2(
        self, inputs, cmd, store, named, tmp_path, capsys
    ):
        capsys.readouterr()
        argv = self._store_argv(cmd, inputs[store], inputs, tmp_path)
        assert main([cmd, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{cmd}: ")
        assert named in captured.err
        assert "Traceback" not in captured.err
        assert "listening" not in captured.out

    def test_publishing_a_bad_store_exits_2(self, inputs, tmp_path, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--efd-dir", inputs["missing"], "--depth", "2",
                  "--uds", str(tmp_path / "serve.sock"),
                  "--publish-uds", str(tmp_path / "publish.sock")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: ")
        assert "nonexistent" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", [
        "engine info", "engine recognize", "engine compact",
        "engine reshard", "serve", "shardserve",
    ])
    def test_json_shard_layout_named_exit_2(
        self, inputs, cmd, tmp_path, capsys
    ):
        capsys.readouterr()
        directory = inputs["json_shards"]
        argv = self._store_argv(cmd, directory, inputs, tmp_path)
        assert main([*cmd.split(), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{cmd}: ")
        assert directory in err
        assert "sharded-JSON layout" in err
        assert "no longer reads" in err
        assert "`efd engine compact`" in err and "37f0edd" in err
        assert "Traceback" not in err
        # The refusal touched nothing.
        assert sorted(os.listdir(directory)) == [
            "manifest.json", "shard-00.json"
        ]

    def test_family_build_names_the_json_shard_layout(self, inputs):
        with pytest.raises(SystemExit) as excinfo:
            main(["family", "build", "--efd-dir", inputs["json_shards"],
                  "--depth", "2"])
        message = str(excinfo.value.code)
        assert message.startswith("efd family build: ")
        assert "sharded-JSON layout" in message
        assert "37f0edd" in message

    @pytest.mark.parametrize("store, dataset, metric, named", [
        ("missing", "data", "nr_mapped_vmstat", "nonexistent"),
        ("garbled", "data", "nr_mapped_vmstat", "garbled"),
        ("shards", "missing", "nr_mapped_vmstat", "nonexistent"),
        ("shards", "truncated", "nr_mapped_vmstat", "zip"),
        ("shards", "data", "bogus_metric", "no telemetry for metric"),
    ])
    def test_engine_recognize_exit_2(
        self, inputs, store, dataset, metric, named, capsys
    ):
        capsys.readouterr()
        assert main([
            "engine", "recognize", "--efd-dir", inputs[store],
            "--data", inputs[dataset], "--depth", "2", "--metric", metric,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("engine recognize: ")
        assert named in captured.err
        assert "Traceback" not in captured.err
        assert "accuracy" not in captured.out

    @pytest.mark.parametrize("source, dataset, metric, named", [
        (["--efd-dir", "missing"], "data", "nr_mapped_vmstat", "nonexistent"),
        (["--efd-dir", "garbled"], "data", "nr_mapped_vmstat", "garbled"),
        (["--efd", "missing"], "data", "nr_mapped_vmstat", "nonexistent"),
        (["--efd", "data"], "data", "nr_mapped_vmstat", "decode"),
        (["--efd", "efd"], "missing", "nr_mapped_vmstat", "nonexistent"),
        (["--efd", "efd"], "truncated", "nr_mapped_vmstat", "zip"),
        (["--efd", "efd"], "data", "bogus_metric", "no telemetry for metric"),
    ])
    def test_family_report_names_the_error(
        self, inputs, source, dataset, metric, named
    ):
        flag, key = source
        with pytest.raises(SystemExit) as excinfo:
            main([
                "family", "report", flag, inputs[key],
                "--data", inputs[dataset], "--depth", "2",
                "--metric", metric, "--quiet",
            ])
        message = str(excinfo.value.code)
        assert message.startswith("efd family report: ")
        assert named in message

    def test_family_build_names_a_missing_store(self, inputs):
        with pytest.raises(SystemExit) as excinfo:
            main(["family", "build", "--efd-dir", inputs["missing"],
                  "--depth", "2"])
        message = str(excinfo.value.code)
        assert message.startswith("efd family build: ")
        assert "nonexistent" in message


class TestServeCommand:
    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_depth_required_without_demo(self, tmp_path):
        with pytest.raises(SystemExit, match="--depth"):
            main(["serve", "--efd", str(tmp_path / "x.json")])

    def test_demo_round_trip(self, tmp_path, capsys):
        stats_path = str(tmp_path / "stats.json")
        assert main([
            "serve", "--demo", "--demo-jobs", "6", "--seed", "9",
            "--batch-delay", "0.002", "--stats-out", stats_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "verdict job=" in out
        assert "served 6 session(s), 6 verdict(s)" in out
        assert "demo accuracy: 6/6" in out
        payload = json.loads(open(stats_path).read())
        assert payload["executions"] == 6
        assert payload["latencies"] == 6

        # The snapshot renders through `efd engine info --stats`.
        assert main(["engine", "info", "--stats", stats_path]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "ingest" in out

    def test_demo_summary_survives_retention_pruning(self, capsys):
        """The end-of-run summary and demo accuracy must come from the
        delivered-verdict tally, not the session table — retention may
        prune resolved sessions before the run ends."""
        assert main([
            "serve", "--demo", "--demo-jobs", "4", "--seed", "9",
            "--retention-max-done", "1",
            "--batch-delay", "0.002", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 4 session(s), 4 verdict(s)" in out
        assert "demo accuracy: 4/4" in out
        assert "pruned=3" in out

    def test_demo_honors_depth_and_interval(self, capsys):
        """--depth/--interval must reach the demo's fitted dictionary,
        not just the serving engine, or verdicts silently miss."""
        assert main([
            "serve", "--demo", "--demo-jobs", "4", "--seed", "9",
            "--depth", "2", "--interval", "30", "90",
            "--batch-delay", "0.002", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "demo accuracy: 4/4" in out

    def test_serve_from_jsonl_file(self, tmp_path, capsys):
        from repro.data.io import load_dataset
        from repro.serve import interleave_records

        data = str(tmp_path / "ds.npz")
        efd = str(tmp_path / "efd.json")
        stream = str(tmp_path / "samples.jsonl")
        main(["generate", "--out", data, "--repetitions", "2",
              "--duration-cap", "150", "--seed", "11"])
        main(["fit", "--data", data, "--out", efd, "--depth", "2"])
        capsys.readouterr()

        records = list(load_dataset(data))[:5]
        with open(stream, "w") as fh:
            fh.write("# synthetic live feed\n")
            for sample in interleave_records(records, "nr_mapped_vmstat"):
                fh.write(sample.to_json() + "\n")

        assert main([
            "serve", "--efd", efd, "--depth", "2", "--input", stream,
            "--batch-delay", "0.002", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 5 session(s), 5 verdict(s)" in out
        assert "latency" in out
