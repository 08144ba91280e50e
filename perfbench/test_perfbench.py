"""Tests of the benchmark itself: span arithmetic, and that every output
check accepts a correct output and rejects a corrupted one."""

import json
import shutil
from pathlib import Path

import pytest

import checks
import layers
from roadcast.cli import main
from spans import Tracer, module_method_spans
from workloads import WORKLOADS, build_untrained_checkpoint, gen_data_argv


def test_self_time_subtracts_nested_children():
    t = Tracer()
    root = t.add_span("root", 0.0, 10.0)
    child = t.add_span("child", 2.0, 8.0, parent=root)
    t.add_span("grandchild", 3.0, 4.5, parent=child)
    assert t.self_times() == pytest.approx([4.0, 4.5, 1.5])


def test_self_time_counts_overlapping_siblings_once():
    t = Tracer()
    root = t.add_span("root", 0.0, 10.0)
    t.add_span("a", 1.0, 3.0, parent=root)
    t.add_span("b", 2.0, 5.0, parent=root)      # overlaps a: union is [1, 5]
    t.add_span("c", 7.0, 12.0, parent=root)     # clipped to the parent's end
    assert t.self_times()[root] == pytest.approx(10.0 - 4.0 - 3.0)
    totals = t.totals()[0]
    assert totals["root"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(3.0)}
    assert totals["c"]["total_s"] == pytest.approx(5.0)


def test_wrapped_calls_record_parents_and_phases():
    t = Tracer()
    inner = t.wrap(lambda x: x + 1, "inner")
    outer = t.wrap(lambda x: inner(x) * 2, "outer")
    t.current_phase = 1
    assert outer(1) == 4
    assert [t.names[i] for i in t.name_id] == ["outer", "inner"]
    assert list(t.parent) == [-1, 0]
    assert list(t.phase) == [1, 1]
    assert all(e >= s for s, e in zip(t.start, t.end))


def test_per_layer_list_matches_the_module_classes_and_benchmark_json():
    found = {span for _, _, span in module_method_spans()}
    assert found == {f"{c}.{m}" for c, m in layers.MODULE_METHODS}
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == layers.benchmark_entries()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def test_install_and_uninstall_restore_every_target():
    import roadcast.cli as cli
    import roadcast.nn as nn

    before = (cli.load_checkpoint, nn.Linear.forward, nn.softmax_rows)
    t = Tracer()
    t.install()
    try:
        assert cli.load_checkpoint is not before[0]
        assert nn.Linear.forward is not before[1]
        assert nn.softmax_rows is not before[2]
    finally:
        t.uninstall()
    assert (cli.load_checkpoint, nn.Linear.forward, nn.softmax_rows) == before


# --- output checks on small inputs ------------------------------------------

def _gen(tmp: Path, workload: str, nodes: int, steps: int) -> Path:
    data = tmp / "data"
    argv = gen_data_argv(WORKLOADS[workload], 3, data)
    argv[argv.index("--nodes") + 1] = str(nodes)
    argv[argv.index("--steps") + 1] = str(steps)
    assert main(argv) == 0
    return data


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    data = _gen(tmp, "train-desk", 8, 200)
    out = tmp / "out"
    assert main(WORKLOADS["train-desk"].command(data, None, out, 3)) == 0
    return data, out


@pytest.fixture(scope="module")
def described(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("describe")
    data = _gen(tmp, "describe-long", 8, 200)
    ckpt, out = tmp / "ckpt", tmp / "out"
    build_untrained_checkpoint(data, ckpt)
    out.mkdir()
    assert main(WORKLOADS["describe-long"].command(data, ckpt, out, 3)) == 0
    return data, ckpt, out


@pytest.fixture(scope="module")
def predicted(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("predict")
    data = _gen(tmp, "predict-city", 24, 80)
    ckpt, out = tmp / "ckpt", tmp / "out"
    build_untrained_checkpoint(data, ckpt)
    out.mkdir()
    assert main(WORKLOADS["predict-city"].command(data, ckpt, out, 3)) == 0
    return data, ckpt, out


def test_train_check_accepts_output_and_rejects_nan_loss(trained):
    data, out = trained
    steps = WORKLOADS["train-desk"].check(data, None, out, 3)
    assert steps > 0
    trace = out / "loss_trace.csv"
    lines = trace.read_text().splitlines()
    lines[2] = "1,nan"
    trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="non-finite"):
        WORKLOADS["train-desk"].check(data, None, out, 3)


def test_describe_check_accepts_output_and_rejects_changed_token(described):
    data, ckpt, out = described
    tokens = WORKLOADS["describe-long"].check(data, ckpt, out, 3)
    assert tokens > 0
    path = out / "reports.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    rec = next(r for r in records if r["text"])
    words = rec["text"].split()
    words[0] = "accident" if words[0] != "accident" else "closure"
    rec["text"] = " ".join(words)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(checks.CheckError, match="not the argmax"):
        WORKLOADS["describe-long"].check(data, ckpt, out, 3)


def test_predict_check_accepts_output_and_rejects_swapped_columns(predicted, tmp_path):
    data, ckpt, out = predicted
    windows = WORKLOADS["predict-city"].check(data, ckpt, out, 3)
    assert windows > 0
    out = Path(shutil.copytree(out, tmp_path / "out"))
    path = out / "forecasts.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    for row in rows[1:]:
        row[2], row[5] = row[5], row[2]
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(checks.CheckError, match="differ"):
        WORKLOADS["predict-city"].check(data, ckpt, out, 3)


def test_predict_check_rejects_forecasts_that_do_not_permute_with_the_roads(
        predicted, monkeypatch):
    data, ckpt, out = predicted
    permute_roads = checks.permute_roads

    def permute_all_but_gcn_e(model, stats, samples, perm):
        e = model.gcn.e.copy()
        permute_roads(model, stats, samples, perm)
        model.gcn.e[...] = e

    assert WORKLOADS["predict-city"].check(data, ckpt, out, 3) > 0
    monkeypatch.setattr(checks, "permute_roads", permute_all_but_gcn_e)
    with pytest.raises(checks.CheckError, match="do not permute with the roads"):
        WORKLOADS["predict-city"].check(data, ckpt, out, 3)


def test_reconstruction_reinserts_tokens_dropped_from_report_text(described):
    data, ckpt, out = described
    from roadcast.dataset import load_dataset
    from roadcast.tokenizer import BOS, EOS
    from roadcast.training import batchify, load_checkpoint, prepare_data

    model, vocab, _, _ = load_checkpoint(ckpt)
    graph, series, events, _ = load_dataset(data)
    chunk = prepare_data(graph, series, events, model.config).test[:16]
    batch = batchify(chunk)
    y_hat = model.forward_predict(batch["x_hist"], batch["text_hist"])
    decoded = model.decode_reports(y_hat, model.config.future_text_len)
    assert any(t in checks.HIDDEN_TOKENS for seq in decoded for t in seq[1:])
    words = [[t for t in seq if t not in checks.HIDDEN_TOKENS + (EOS,)] for seq in decoded]
    rebuilt = checks.reconstruct_reports(model, words, y_hat, model.config.future_text_len)
    assert rebuilt == decoded
    assert all(seq[0] == BOS and len(seq) <= 24 for seq in rebuilt)
