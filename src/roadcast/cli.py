"""Command-line entry point.

Subcommands: gen-data, train, predict, describe, evaluate, ablate, verify.
Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numerical divergence, 64 unknown command.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .dataset import (generate_synthetic, load_dataset, require_config, require_keys,
                      save_dataset)
from .errors import ConfigError, DivergenceError, ParseError, RoadcastError
from .metrics import validate_report
from .model import COMPONENTS, JointModel, ModelConfig
from .training import (TrainConfig, evaluate, forecast_batches, load_checkpoint,
                       prepare_data, run_ablation, save_checkpoint, train)

COMMANDS = ("gen-data", "train", "predict", "describe", "evaluate", "ablate", "verify")

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_UNKNOWN = 64

ABLATE_FLAGS = {f"no-{name}": {f"use_{name}": False} for name in COMPONENTS}

CONFIG_SECTIONS = {"model": ModelConfig, "train": TrainConfig}


def _read_config(path) -> tuple:
    """The ``--config`` file as (ModelConfig, TrainConfig): an object of
    ``model``/``train`` sections whose keys are fields of the section's
    dataclass, with values of the field's type that the dataclass accepts.
    ParseError naming the file and the key otherwise."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: {err}")
    require_keys(raw, (), path)
    for section in raw:
        if section not in CONFIG_SECTIONS:
            raise ParseError(f"{path}: unknown section {section!r}; expected 'model' or 'train'")
    configs = []
    for section, cls in CONFIG_SECTIONS.items():
        values = raw.get(section, {})
        where = f"{path}: section {section!r}"
        require_keys(values, (), where)
        known = {f.name for f in dataclasses.fields(cls)}
        for key in values:
            if key not in known:
                raise ParseError(f"{where}: unknown key {key!r}")
        configs.append(require_config(values, cls, where))
    return tuple(configs)


def _train_inputs(args) -> tuple:
    """(ModelConfig, TrainConfig, graph, series, events) of ``train``/``ablate``:
    the ``--config`` file, then the ``--lr``/``--epochs``/``--batch``/``--seed``
    flags given over its ``train`` section, and the ``--data`` dataset."""
    model_cfg, train_cfg = _read_config(args.config) if args.config else (ModelConfig(),
                                                                           TrainConfig())
    flags = {"lr": args.lr, "epochs": args.epochs, "batch": args.batch, "seed": args.seed}
    train_cfg = dataclasses.replace(train_cfg, **{k: v for k, v in flags.items() if v is not None})
    graph, series, events, _ = load_dataset(args.data)
    _require_channels(model_cfg, series, f"{args.config}: section 'model'")
    return model_cfg, train_cfg, graph, series, events


def _require_channels(cfg: ModelConfig, series, where: str) -> None:
    """ConfigError at ``where`` unless the dataset's speeds have ``cfg.channels`` channels."""
    have = series.speeds.shape[-1]
    if cfg.channels != have:
        raise ConfigError(f"{where}: key 'channels' is {cfg.channels}, but the dataset's "
                          f"speeds have {have} channel per road")


def cmd_gen_data(args) -> int:
    graph, series, events = generate_synthetic(
        n_nodes=args.nodes, n_steps=args.steps, anomaly_rate=args.anomaly_rate,
        anomaly_depth=args.depth, seed=args.seed)
    save_dataset(args.out, graph, series, events, seed=args.seed)
    print(f"wrote dataset to {args.out}: {graph.n_nodes} nodes, "
          f"{series.speeds.shape[0]} steps, {len(events)} anomalies")
    return EXIT_OK


def cmd_train(args) -> int:
    model_cfg, train_cfg, graph, series, events = _train_inputs(args)
    if args.ablate:
        for flag in args.ablate.split(","):
            flag = flag.strip()
            if flag not in ABLATE_FLAGS:
                raise RoadcastError(f"unknown ablation flag {flag!r}")
            model_cfg = dataclasses.replace(model_cfg, **ABLATE_FLAGS[flag])
    data = prepare_data(graph, series, events, model_cfg)
    model = JointModel(model_cfg, vocab_size=len(data.vocab), n_nodes=graph.n_nodes,
                       physical_adjacency=graph.adjacency, seed=train_cfg.seed)
    trace = train(model, data.train, train_cfg)
    save_checkpoint(args.out, model, data.vocab, data.stats, seed=train_cfg.seed,
                    train_cfg=train_cfg)
    trace_lines = ["epoch,loss"] + [f"{i},{v!r}" for i, v in enumerate(trace)]
    (Path(args.out) / "loss_trace.csv").write_text("\n".join(trace_lines) + "\n")
    print(f"trained {len(trace)} epochs; final loss {trace[-1]:.6f}; checkpoint at {args.out}")
    return EXIT_OK


def _load_eval_inputs(args):
    model, vocab, stats, manifest = load_checkpoint(args.ckpt)
    graph, series, events, _ = load_dataset(args.data)
    if graph.n_nodes != model.n_nodes:
        raise RoadcastError(
            f"dataset has {graph.n_nodes} nodes but checkpoint expects {model.n_nodes}")
    _require_channels(model.config, series, f"{Path(args.ckpt) / 'manifest.json'} key 'config'")
    data = prepare_data(graph, series, events, model.config)
    return model, vocab, stats, data, graph


def cmd_predict(args) -> int:
    from .dataset import denormalize

    model, vocab, stats, data, graph = _load_eval_inputs(args)
    lines = ["anchor,step," + ",".join(graph.node_names)]
    for chunk, y_hat in forecast_batches(model, data.test):
        for sample, fc in zip(chunk, denormalize(y_hat, stats)):
            for step, row in enumerate(fc[:, :, 0].tolist()):
                lines.append(f"{sample.anchor_time},{step}," + ",".join(map(repr, row)))
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} forecast rows to {args.out}")
    return EXIT_OK


def cmd_describe(args) -> int:
    from .tokenizer import decode

    model, vocab, stats, data, graph = _load_eval_inputs(args)
    records = []
    for chunk, y_hat in forecast_batches(model, data.test):
        seqs = model.decode_reports(y_hat, model.config.future_text_len)
        if model.config.use_importance:
            scores, _ = model.generator.importance.forward(model.conditioning(y_hat))
            selected = model.generator.importance.selected_indices(scores)
        else:
            selected = [[] for _ in chunk]
        for sample, seq, sel in zip(chunk, seqs, selected):
            records.append({"anchor": sample.anchor_time, "text": decode(seq, vocab),
                            "selected_nodes": [int(i) for i in sel]})
    with open(args.out, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    print(f"wrote {len(records)} reports to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model, vocab, stats, data, _ = _load_eval_inputs(args)
    report, _ = evaluate(model, data.test, stats, vocab)
    validate_report(report.to_dict())
    report.save(args.out)
    csv_path = Path(args.out).with_name(Path(args.out).stem + "_horizons.csv")
    lines = ["horizon,mae,rmse"]
    for key in sorted(report.pred, key=lambda k: int(k[1:])):
        lines.append(f"{int(key[1:])},{report.pred[key]['mae']!r},{report.pred[key]['rmse']!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} and {csv_path}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    model_cfg, train_cfg, graph, series, events = _train_inputs(args)
    rows = run_ablation(graph, series, events, model_cfg, train_cfg)
    Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
    for row in rows:
        print(f"{row['label']:>12}  BLEU-4 {row['BLEU-4']:6.2f}  "
              f"ROUGE-L {row['ROUGE-L']:.4f}  METEOR {row['METEOR']:.4f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verify

    failures = run_verify(corrupt_gradients=args.inject_gradient_corruption)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print("verify: all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roadcast")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--anomaly-rate", type=float, default=0.3)
    p.add_argument("--depth", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    for name, func in (("train", cmd_train), ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        p.add_argument("--data", required=True)
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "train":
            p.add_argument("--ablate", default=None,
                           help="comma list: " + ",".join(ABLATE_FLAGS))
        p.set_defaults(func=func)

    for name, func in (("predict", cmd_predict), ("describe", cmd_describe),
                       ("evaluate", cmd_evaluate)):
        p = sub.add_parser(name)
        p.add_argument("--ckpt", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run the gradient and oracle self-checks")
    p.add_argument("--inject-gradient-corruption", action="store_true",
                   help="test hook: corrupt one gradient so verify must fail")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        build_parser().print_help()
        return EXIT_OK if argv else EXIT_UNKNOWN
    if argv[0] not in COMMANDS:
        print(f"unknown command {argv[0]!r}; expected one of {', '.join(COMMANDS)}",
              file=sys.stderr)
        build_parser().print_usage(sys.stderr)
        return EXIT_UNKNOWN
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (RoadcastError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
