"""End-to-end command-line pipeline and exit-code contract."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcast.cli import (EXIT_DIVERGENCE, EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE,
                          main)
from roadcast.dataset import denormalize, load_dataset
from roadcast.metrics import validate_report
from roadcast.tokenizer import decode
from roadcast.training import (cut_windows, evaluate, forecast_batches,
                               load_checkpoint)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One shared tiny dataset + checkpoint for all CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    ckpt = root / "ckpt"
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "model": {"d_model": 8, "heads": 2, "n_blocks": 1, "window": 8,
                  "d_embed": 4, "hist_text_len": 8, "future_text_len": 10,
                  "top_k": 4, "memory_slots": 4, "decoder_blocks": 1,
                  "detector_hidden": 4, "lora_rank": 4, "lora_alpha": 8.0,
                  "lora_dropout": 0.0},
        "train": {"lr": 0.005, "batch": 8, "epochs": 2, "warmup_epochs": 1},
    }))
    assert main(["gen-data", "--nodes", "4", "--steps", "48", "--seed", "1",
                 "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--config", str(cfg),
                 "--out", str(ckpt)]) == EXIT_OK
    return root, data, ckpt, cfg


def test_gen_data_writes_expected_files(pipeline):
    _, data, _, _ = pipeline
    for fname in ("manifest.json", "speeds.csv", "adjacency.json", "events.jsonl"):
        assert (data / fname).exists(), fname


def test_train_writes_checkpoint_and_trace(pipeline):
    _, _, ckpt, _ = pipeline
    assert (ckpt / "manifest.json").exists()
    assert (ckpt / "params.bin").exists()
    trace = (ckpt / "loss_trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,loss"
    assert len(trace) == 3  # header + 2 epochs


def test_predict_emits_csv(pipeline):
    root, data, ckpt, _ = pipeline
    out = root / "fc.csv"
    assert main(["predict", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("anchor,step,")
    assert len(lines[0].split(",")) == 2 + 4  # 4 nodes
    assert len(lines) > 1
    float(lines[1].split(",")[2])  # numeric payload


def test_describe_emits_jsonl(pipeline):
    root, data, ckpt, _ = pipeline
    out = root / "reports.jsonl"
    assert main(["describe", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(out)]) == EXIT_OK
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert recs
    for rec in recs:
        assert set(rec) == {"anchor", "text", "selected_nodes"}
        assert isinstance(rec["text"], str)


def test_evaluate_emits_valid_report_and_horizons(pipeline):
    root, data, ckpt, _ = pipeline
    out = root / "report.json"
    assert main(["evaluate", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    validate_report(report)  # raises on schema violation
    for key, vals in report["pred"].items():
        assert vals["rmse"] >= vals["mae"] - 1e-12
    horizons = (root / "report_horizons.csv").read_text().splitlines()
    assert horizons[0] == "horizon,mae,rmse"


def test_unknown_command_exits_64(capsys):
    assert main(["frobnicate"]) == EXIT_UNKNOWN
    assert "unknown command" in capsys.readouterr().err


def test_missing_dataset_exits_2(pipeline, tmp_path, capsys):
    root, _, ckpt, _ = pipeline
    code = main(["predict", "--ckpt", str(ckpt), "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE


def test_bad_config_json_exits_2(pipeline, tmp_path):
    _, data, _, _ = pipeline
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["train", "--data", str(data), "--config", str(bad),
                 "--out", str(tmp_path / "ckpt")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("config,needle", [
    ({"train": {"lr": "0.1"}}, "'lr'"), ({"model": {"heads": "2"}}, "'heads'"),
    ({"train": {"epochs": 0}}, "'epochs'"), ({"train": {"epochs": True}}, "'epochs'"),
    ({"model": {"use_gcn": 1}}, "'use_gcn'"), ({"model": {"top_k": 2.5}}, "'top_k'"),
    ({"model": {"d_modle": 64}}, "'d_modle'"), ({"optim": {"lr": 0.1}}, "'optim'"),
    ({"model": [1]}, "'model'"), ([1], "list"),
])
def test_bad_config_file_exits_2(pipeline, tmp_path, capsys, config, needle):
    _, data, _, _ = pipeline
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code = main(["train", "--data", str(data), "--config", str(bad),
                 "--out", str(tmp_path / "ckpt")])
    _assert_one_line_usage_error(code, capsys, str(bad), needle)
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("section,values,needle", [
    ("model", {"d_model": 0}, "'d_model'"), ("model", {"lora_rank": 0}, "'lora_rank'"),
    ("model", {"heads": 0}, "'heads'"), ("model", {"patch": 0}, "'patch'"),
    ("model", {"d_model": 6, "heads": 4}, "'heads'"),
    ("model", {"lora_dropout": 1.0}, "'lora_dropout'"), ("model", {"top_k": 9}, "'top_k'"),
    ("model", {"future_text_len": 2}, "'future_text_len'"),
    ("model", {"channels": 2}, "'channels'"), ("train", {"lr": 0}, "'lr'"),
    ("train", {"seed": -1}, "'seed'"),
])
def test_out_of_range_config_value_exits_2(pipeline, tmp_path, capsys, section, values,
                                           needle):
    """Well-typed values the model cannot be built or trained with, each set
    in the pipeline's working config."""
    _, data, _, cfg = pipeline
    config = json.loads(cfg.read_text())
    config[section].update(values)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code = main(["train", "--data", str(data), "--config", str(bad),
                 "--out", str(tmp_path / "ckpt")])
    _assert_one_line_usage_error(code, capsys, str(bad), needle)
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("with_config", [True, False])
def test_window_leaving_no_training_samples_exits_2(pipeline, tmp_path, capsys, with_config):
    """The pipeline's 48-step series at window 12, the default, leaves no
    training sample once the leakage guard drops boundary-crossing windows."""
    _, data, _, cfg = pipeline
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "ckpt")]
    where = "default model config"
    if with_config:
        config = json.loads(cfg.read_text())
        config["model"]["window"] = 12
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        argv += ["--config", str(bad)]
        where = f"{bad}: section 'model'"
    code = main(argv)
    _assert_one_line_usage_error(code, capsys, where, "key 'window' is 12", "48 steps")
    assert not (tmp_path / "ckpt").exists()


def test_eval_on_a_series_too_short_for_the_window_exits_2(pipeline, tmp_path, capsys):
    """A 16-step copy of the dataset holds one window of the checkpoint's 2 * 8 steps."""
    _, data, ckpt, _ = pipeline
    short = tmp_path / "data"
    shutil.copytree(data, short)
    rows = (short / "speeds.csv").read_text().splitlines()[:1 + 16]
    (short / "speeds.csv").write_text("\n".join(rows) + "\n")
    events = [line for line in (short / "events.jsonl").read_text().splitlines()
              if json.loads(line)["t"] < 16]
    (short / "events.jsonl").write_text("".join(line + "\n" for line in events))
    code = main(["predict", "--ckpt", str(ckpt), "--data", str(short),
                 "--out", str(tmp_path / "fc.csv")])
    _assert_one_line_usage_error(code, capsys, f"{ckpt / 'manifest.json'} key 'config'",
                                 "key 'window' is 8", "16 steps")
    assert not (tmp_path / "fc.csv").exists()


def test_eval_on_another_dataset_uses_the_checkpoints_stats(pipeline, tmp_path):
    """``predict``/``describe``/``evaluate`` on a dataset other than the
    training one (same roads, another seed) match in-process results on its
    windows normalized with the checkpoint's stats and encoded with its
    vocabulary."""
    _, _, ckpt, _ = pipeline
    other = tmp_path / "data"
    assert main(["gen-data", "--nodes", "4", "--steps", "48", "--seed", "7",
                 "--out", str(other)]) == EXIT_OK
    for cmd, name in (("predict", "fc.csv"), ("describe", "reports.jsonl"),
                      ("evaluate", "report.json")):
        assert main([cmd, "--ckpt", str(ckpt), "--data", str(other),
                     "--out", str(tmp_path / name)]) == EXIT_OK
    model, vocab, stats, _ = load_checkpoint(ckpt)
    _, series, events, _ = load_dataset(other)
    test = cut_windows(series, events, vocab, stats, model.config, test=True)
    forecasts, texts = [], []
    for _, y_hat in forecast_batches(model, test):
        forecasts.append(y_hat)
        texts += [decode(seq, vocab) for seq in
                  model.decode_reports(y_hat, model.config.future_text_len)]
    want = denormalize(np.concatenate(forecasts), stats)[..., 0]

    rows = [line.split(",") for line in (tmp_path / "fc.csv").read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows[::model.config.window]] == [s.anchor_time for s in test]
    got = np.array([[float(v) for v in r[2:]] for r in rows]).reshape(want.shape)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    records = [json.loads(line) for line in
               (tmp_path / "reports.jsonl").read_text().splitlines()]
    assert [(r["anchor"], r["text"]) for r in records] == [
        (s.anchor_time, text) for s, text in zip(test, texts)]

    report, _ = evaluate(model, test, stats, vocab)
    written = json.loads((tmp_path / "report.json").read_text())
    for horizon, values in report.to_dict()["pred"].items():
        for metric, value in values.items():
            assert written["pred"][horizon][metric] == pytest.approx(value, rel=0, abs=1e-9)


@pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
def test_negative_seed_exits_2(pipeline, tmp_path, capsys, command):
    _, data, _, cfg = pipeline
    out = tmp_path / "out"
    if command == "gen-data":
        argv = [command, "--nodes", "4", "--steps", "48"]
    else:
        argv = [command, "--data", str(data), "--config", str(cfg)]
    code = main(argv + ["--seed", "-1", "--out", str(out)])
    _assert_one_line_usage_error(code, capsys, "seed", "-1")
    assert not out.exists()


def test_unknown_ablation_flag_exits_2(pipeline, tmp_path):
    _, data, _, cfg = pipeline
    code = main(["train", "--data", str(data), "--config", str(cfg),
                 "--ablate", "no-such-thing", "--out", str(tmp_path / "ckpt")])
    assert code == EXIT_USAGE


def test_node_count_mismatch_exits_2(pipeline, tmp_path):
    root, _, ckpt, _ = pipeline
    other = tmp_path / "data6"
    assert main(["gen-data", "--nodes", "6", "--steps", "48", "--seed", "2",
                 "--out", str(other)]) == EXIT_OK
    code = main(["predict", "--ckpt", str(ckpt), "--data", str(other),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE


def test_divergent_lr_exits_3(pipeline, tmp_path):
    _, data, _, cfg = pipeline
    code = main(["train", "--data", str(data), "--config", str(cfg),
                 "--lr", "1e200", "--epochs", "3",
                 "--out", str(tmp_path / "ckpt")])
    assert code == EXIT_DIVERGENCE


def test_train_with_ablation_flag_runs(pipeline, tmp_path):
    _, data, _, cfg = pipeline
    out = tmp_path / "ckpt_nt"
    assert main(["train", "--data", str(data), "--config", str(cfg),
                 "--ablate", "no-text,no-memory", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["use_text"] is False
    assert manifest["config"]["use_memory"] is False


def test_retrain_same_seed_is_bit_identical(pipeline, tmp_path):
    root, data, ckpt, cfg = pipeline
    out = tmp_path / "ckpt2"
    assert main(["train", "--data", str(data), "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    assert (out / "params.bin").read_bytes() == (ckpt / "params.bin").read_bytes()


def _assert_one_line_usage_error(code, capsys, *needles):
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, (needle, err)


def test_truncated_params_bin_exits_2(pipeline, tmp_path, capsys):
    _, data, ckpt, _ = pipeline
    bad = tmp_path / "ckpt"
    shutil.copytree(ckpt, bad)
    raw = (bad / "params.bin").read_bytes()
    (bad / "params.bin").write_bytes(raw[:-20])
    last = max(json.loads((bad / "manifest.json").read_text())["tensors"],
               key=lambda e: e["offset"])
    code = main(["predict", "--ckpt", str(bad), "--data", str(data),
                 "--out", str(tmp_path / "fc.csv")])
    _assert_one_line_usage_error(code, capsys, "params.bin", last["name"])


def test_params_bin_longer_than_manifest_exits_2(pipeline, tmp_path, capsys):
    _, data, ckpt, _ = pipeline
    bad = tmp_path / "ckpt"
    shutil.copytree(ckpt, bad)
    with open(bad / "params.bin", "ab") as fh:
        fh.write(b"\0" * 8)
    code = main(["predict", "--ckpt", str(bad), "--data", str(data),
                 "--out", str(tmp_path / "fc.csv")])
    _assert_one_line_usage_error(code, capsys, "params.bin", "total_bytes")


def test_manifest_missing_a_tensor_exits_2(pipeline, tmp_path, capsys):
    _, data, ckpt, _ = pipeline
    bad = tmp_path / "ckpt"
    shutil.copytree(ckpt, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    dropped = manifest["tensors"].pop(3)["name"]
    (bad / "manifest.json").write_text(json.dumps(manifest))
    code = main(["predict", "--ckpt", str(bad), "--data", str(data),
                 "--out", str(tmp_path / "fc.csv")])
    _assert_one_line_usage_error(code, capsys, "manifest.json", dropped)


def test_non_finite_speed_exits_2(pipeline, tmp_path, capsys):
    _, data, ckpt, _ = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    lines = (bad / "speeds.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = "nan"
    lines[5] = ",".join(cells)
    (bad / "speeds.csv").write_text("\n".join(lines) + "\n")
    road = lines[0].split(",")[3]
    out = tmp_path / "report.json"
    code = main(["evaluate", "--ckpt", str(ckpt), "--data", str(bad), "--out", str(out)])
    _assert_one_line_usage_error(code, capsys, "speeds.csv", "row 6", road)
    assert not out.exists()


def _edit_json(path, edit, line=None):
    """Rewrite a JSON file, or one line of a JSON-lines file, after ``edit(obj)``."""
    if line is None:
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        return
    lines = path.read_text().splitlines()
    obj = json.loads(lines[line - 1])
    edit(obj)
    lines[line - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


def _drop_key(path, key, line=None):
    _edit_json(path, lambda obj: obj.pop(key), line)


def _predict_on_edited_dataset(pipeline, tmp_path, fname, edit, line):
    """Exit code of ``predict`` on a copy of the dataset with ``fname`` edited."""
    _, data, ckpt, _ = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    _edit_json(bad / fname, edit, line)
    return main(["predict", "--ckpt", str(ckpt), "--data", str(bad),
                 "--out", str(tmp_path / "fc.csv")])


@pytest.mark.parametrize("fname,key,line", [
    ("manifest.json", "speeds", None), ("manifest.json", "step_minutes", None),
    ("adjacency.json", "nodes", None), ("adjacency.json", "edges", None),
    ("events.jsonl", "t", 1), ("events.jsonl", "node", 1),
])
def test_dataset_file_missing_key_exits_2(pipeline, tmp_path, capsys, fname, key, line):
    code = _predict_on_edited_dataset(pipeline, tmp_path, fname,
                                      lambda obj: obj.pop(key), line)
    where = [fname, repr(key)] + ([f"line {line}"] if line else [])
    _assert_one_line_usage_error(code, capsys, *where)


@pytest.mark.parametrize("key", ["config", "vocab_words", "norm_stats",
                                 "physical_adjacency", "n_nodes", "seed"])
def test_checkpoint_manifest_missing_key_exits_2(pipeline, tmp_path, capsys, key):
    _, data, ckpt, _ = pipeline
    bad = tmp_path / "ckpt"
    shutil.copytree(ckpt, bad)
    _drop_key(bad / "manifest.json", key)
    code = main(["describe", "--ckpt", str(bad), "--data", str(data),
                 "--out", str(tmp_path / "reports.jsonl")])
    _assert_one_line_usage_error(code, capsys, str(bad / "manifest.json"), repr(key))


@pytest.mark.parametrize("edit,key", [
    (lambda m: m.update(n_nodes="4"), "n_nodes"), (lambda m: m.update(n_nodes=0), "n_nodes"),
    (lambda m: m.update(seed=1.5), "seed"), (lambda m: m.update(config=[1]), "config"),
    (lambda m: m["config"].update(d_model="8"), "d_model"),
    (lambda m: m.update(norm_stats=[1]), "norm_stats"),
    (lambda m: m["norm_stats"].pop("std"), "std"),
    (lambda m: m["norm_stats"].update(mean=[[0.0]]), "mean"),
    (lambda m: m.update(vocab_words=5), "vocab_words"),
    (lambda m: m.update(physical_adjacency=[[1.0]]), "physical_adjacency"),
    (lambda m: m.update(tensors={}), "tensors"),
    (lambda m: m["tensors"][0].pop("offset"), "offset"),
    (lambda m: m["tensors"][0].update(offset="0"), "offset"),
    (lambda m: m["tensors"][0].update(name=[1]), "name"),
    (lambda m: m["tensors"][0].update(shape=[float(s) for s in m["tensors"][0]["shape"]]),
     "shape"),
    (lambda m: m["config"].update(heads=0), "heads"),
    (lambda m: m["config"].update(lora_dropout=1.0), "lora_dropout"),
    (lambda m: m["config"].update(d_modle=64), "d_modle"),
    (lambda m: m.update(total_bytes=float(m["total_bytes"])), "total_bytes"),
    (lambda m: m.update(seed=-1), "seed"),
    (lambda m: m["norm_stats"].update(std=[[1.0], [0.0], [1.0], [1.0]]), "std"),
], ids=["n_nodes-str", "n_nodes-0", "seed-float", "config-list", "config-field-type",
        "norm_stats-list", "norm_stats-no-std", "norm_stats-shape", "vocab_words-int",
        "adjacency-1x1", "tensors-object", "tensor-no-offset", "tensor-offset-str",
        "tensor-name-list", "tensor-shape-floats", "config-heads-0", "config-lora_dropout-1",
        "config-unknown-key", "total_bytes-float", "seed-negative", "norm_stats-std-0"])
def test_checkpoint_manifest_bad_value_exits_2(pipeline, tmp_path, capsys, edit, key):
    _, data, ckpt, _ = pipeline
    bad = tmp_path / "ckpt"
    shutil.copytree(ckpt, bad)
    _edit_json(bad / "manifest.json", edit)
    code = main(["predict", "--ckpt", str(bad), "--data", str(data),
                 "--out", str(tmp_path / "fc.csv")])
    _assert_one_line_usage_error(code, capsys, str(bad / "manifest.json"), repr(key))


@pytest.mark.parametrize("fname,key,value,line", [
    ("events.jsonl", "t", "5", 1), ("events.jsonl", "t", True, 1),
    ("events.jsonl", "t", 1.5, 1), ("events.jsonl", "node", "0", 1),
    ("events.jsonl", "text", 5, 1),
    ("manifest.json", "step_minutes", "five", None), ("manifest.json", "step_minutes", 0, None),
    ("manifest.json", "step_minutes", 2.5, None), ("manifest.json", "speeds", 3, None),
    ("adjacency.json", "nodes", "abcd", None), ("adjacency.json", "nodes", [1, 2, 3, 4], None),
    ("adjacency.json", "edges", [[0, "1"]], None), ("adjacency.json", "edges", [0], None),
    ("adjacency.json", "edges", [[0, True]], None),
])
def test_dataset_file_wrong_type_exits_2(pipeline, tmp_path, capsys, fname, key, value, line):
    code = _predict_on_edited_dataset(pipeline, tmp_path, fname,
                                      lambda obj: obj.__setitem__(key, value), line)
    where = [fname, repr(key)] + ([f"line {line}"] if line else [])
    _assert_one_line_usage_error(code, capsys, *where)


# values a damaged file may hold in place of the one written
MUTANTS = ("x", "", 1.5, -1, 0, True, None, [], {}, [1], float("nan"))


def _sites(obj, depth=0):
    """(container, key) for every value reached through object keys and the
    first item of lists, down to three levels."""
    for key in sorted(obj) if isinstance(obj, dict) else range(min(len(obj), 1)):
        yield obj, key
        if depth < 2 and isinstance(obj[key], (dict, list)):
            yield from _sites(obj[key], depth + 1)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_damaged_inputs_exit_0_or_2_with_one_line(pipeline, data):
    """Property: after one random edit to the dataset or the checkpoint (a
    key dropped, a value retyped, a file truncated, a NaN speed), ``predict``
    exits 0 or 2, and a failure is one stderr line without a traceback."""
    _, dataset, ckpt, _ = pipeline
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(dataset, root / "data")
        shutil.copytree(ckpt, root / "ckpt")
        op = data.draw(st.sampled_from(["drop", "retype", "truncate", "nan"]))
        if op == "truncate":
            path = root / data.draw(st.sampled_from([
                "data/manifest.json", "data/speeds.csv", "data/adjacency.json",
                "data/events.jsonl", "ckpt/manifest.json", "ckpt/params.bin"]))
            raw = path.read_bytes()
            path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        elif op == "nan":
            path = root / "data/speeds.csv"
            rows = [line.split(",") for line in path.read_text().splitlines()]
            row = rows[data.draw(st.integers(1, len(rows) - 1))]
            row[data.draw(st.integers(1, len(row) - 1))] = "nan"
            path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        else:
            fname, line = data.draw(st.sampled_from([
                ("data/manifest.json", None), ("data/adjacency.json", None),
                ("data/events.jsonl", 1), ("ckpt/manifest.json", None)]))

            def edit(obj):
                container, key = data.draw(st.sampled_from(list(_sites(obj))))
                if op == "drop":
                    del container[key]
                else:
                    container[key] = data.draw(st.sampled_from(MUTANTS))

            _edit_json(root / fname, edit, line)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["predict", "--ckpt", str(root / "ckpt"), "--data",
                         str(root / "data"), "--out", str(root / "fc.csv")])
        assert code in (EXIT_OK, EXIT_USAGE), err.getvalue()
        lines = err.getvalue().splitlines()
        assert len(lines) == (code == EXIT_USAGE), lines
        assert "Traceback" not in err.getvalue()
