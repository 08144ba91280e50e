"""End-to-end command-line pipeline and exit-code contract."""

import json
import shutil

import pytest

from roadcast.cli import (EXIT_DIVERGENCE, EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE,
                          main)
from roadcast.metrics import validate_report


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
], ids=["n_nodes-str", "n_nodes-0", "seed-float", "config-list", "config-field-type",
        "norm_stats-list", "norm_stats-no-std", "norm_stats-shape", "vocab_words-int",
        "adjacency-1x1", "tensors-object", "tensor-no-offset", "tensor-offset-str",
        "tensor-name-list", "tensor-shape-floats", "config-heads-0", "config-lora_dropout-1"])
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
