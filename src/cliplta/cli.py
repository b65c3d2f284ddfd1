"""Command-line entry points.

Subcommands: gen-synth, train, eval, probe, report. Config files are JSON;
any flag given on the command line overrides the matching config key.
Exit codes: 0 success, 2 validation error or missing file, 3 numeric error
or operating-system error. Any other exception is a bug and propagates with
its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .aggregate import probe_record, zero_shot_probe
from .errors import NumericError, ValidationError, read_json_object, require
from .featurestore import FeatureStore
from .harness import DEFAULT_PROMPT_TEMPLATE, TrainConfig, build_label_tables, run_eval, train
from .synthdata import SynthConfig, generate
from .taxonomy import load_taxonomy


def _load_config_dict(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}")
    return read_json_object(p, "config file")


def _build_config(cls, config_dict: dict, overrides: dict):
    valid = {f.name for f in fields(cls)}
    unknown = set(config_dict) - valid
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(config_dict)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**merged)
    except TypeError as e:
        raise ValidationError(str(e)) from e


def _add_gen_synth(sub):
    p = sub.add_parser("gen-synth", help="generate a synthetic feature store + ground truth")
    p.add_argument("--config", help="JSON file of synth config keys")
    p.add_argument("--out", required=True, help="output directory")
    for name, typ in (("n-train", int), ("n-val", int), ("n-input-clips", int), ("N", int),
                      ("c", int), ("d-video", int), ("Z", int), ("n-verbs", int), ("n-nouns", int),
                      ("noise-std", float), ("seed", int)):
        p.add_argument(f"--{name}", type=typ, default=None, dest=name.replace("-", "_"))
    p.add_argument("--signal-mode", choices=("dense", "single_frame", "split"), default=None)
    return p


def _add_train(sub):
    p = sub.add_parser("train", help="train a model per config")
    p.add_argument("--config", help="JSON file of train config keys")
    p.add_argument("--variant", default=None)
    p.add_argument("--store", default=None)
    p.add_argument("--gt", default=None)
    p.add_argument("--val-gt", default=None, dest="val_gt")
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--out-dir", default=None, dest="out_dir")
    for name, typ in (("epochs", int), ("batch-size", int), ("base-lr", float), ("momentum", float),
                      ("seed", int), ("eval-every", int), ("k", int), ("temperature", float),
                      ("n-layers", int), ("n-heads-agg", int), ("d-ff", int), ("d-attn", int),
                      ("n-heads-ca", int), ("text-seed", int)):
        p.add_argument(f"--{name}", type=typ, default=None, dest=name.replace("-", "_"))
    return p


def _add_eval(sub):
    p = sub.add_parser("eval", help="predict on a split and score it")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None, dest="out_dir")
    return p


def _add_probe(sub):
    p = sub.add_parser("probe", help="zero-shot label probe for every frame of a clip")
    p.add_argument("--store", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--text-seed", type=int, default=100, dest="text_seed")
    p.add_argument("--template", default=DEFAULT_PROMPT_TEMPLATE)
    p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    return p


def _add_report(sub):
    p = sub.add_parser("report", help="tabulate eval results across run directories")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--json", action="store_true", dest="as_json")
    return p


def _cmd_gen_synth(args) -> int:
    overrides = {k: getattr(args, k) for k in
                 ("n_train", "n_val", "n_input_clips", "N", "c", "d_video", "Z",
                  "n_verbs", "n_nouns", "signal_mode", "noise_std", "seed")}
    cfg = _build_config(SynthConfig, _load_config_dict(args.config), overrides)
    dataset = generate(cfg, args.out)
    print(f"wrote synthetic dataset under {dataset.root} "
          f"({cfg.n_train} train / {cfg.n_val} val examples, mode={cfg.signal_mode})")
    return 0


def _cmd_train(args) -> int:
    overrides = {k: getattr(args, k, None) for k in
                 ("variant", "store", "gt", "val_gt", "taxonomy", "out_dir", "epochs",
                  "batch_size", "base_lr", "momentum", "seed", "eval_every", "temperature",
                  "n_layers", "n_heads_agg", "d_ff", "d_attn", "n_heads_ca", "text_seed")}
    overrides["K"] = args.k
    cfg = _build_config(TrainConfig, _load_config_dict(args.config), overrides)
    ckpt_dir, log = train(cfg)
    last = log.records[-1]
    print(f"trained {cfg.variant} for {cfg.epochs} epochs; final train_loss={last['train_loss']:.4f}")
    if "val_verb_ed" in last:
        print(f"val verb_ed={last['val_verb_ed']:.4f} noun_ed={last['val_noun_ed']:.4f}")
    print(f"checkpoint: {ckpt_dir}")
    return 0


def _cmd_eval(args) -> int:
    pred_file, report = run_eval(
        args.checkpoint, args.store, args.gt, args.taxonomy,
        K=args.k, temperature=args.temperature, seed=args.seed, out_dir=args.out_dir,
    )
    print(f"predictions: {pred_file}")
    print(f"ED@(Z={report.Z},K={report.K}) over {report.n_examples} examples: "
          f"verb={report.verb_ed:.4f} noun={report.noun_ed:.4f}")
    return 0


def _cmd_probe(args) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    store = FeatureStore.open(args.store)
    frames, _ = store.read_clip(args.clip)
    tables = build_label_tables(taxonomy, store.c, args.text_seed, args.template)
    lines = []
    for i, frame in enumerate(frames.frames):
        record = probe_record(zero_shot_probe(frame, tables), i, taxonomy)
        lines.append(json.dumps(record))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    rows = []
    for run in args.runs:
        run = Path(run)
        config_path = run / "train_config.json"
        if not config_path.is_file():
            raise ValidationError(f"{run} does not look like a run directory (no train_config.json)")
        variant = read_json_object(config_path, "run config").get("variant", "?")
        report_path = run / "report.json"
        if report_path.is_file():
            rep = read_json_object(report_path, "eval report")
            what = f"eval report {report_path}"
            rows.append({"method": variant,
                         "verb": require(rep.get("verb_ed"), float, f"{what}: 'verb_ed'"),
                         "noun": require(rep.get("noun_ed"), float, f"{what}: 'noun_ed'"),
                         "n_examples": require(rep.get("n_examples"), int, f"{what}: 'n_examples'"),
                         "run": str(run)})
        else:
            rows.append({"method": variant, "verb": None, "noun": None, "n_examples": 0, "run": str(run)})
    if args.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    width = max(len(r["method"]) for r in rows) + 2
    print(f"{'Method':<{width}}{'Verb':>8}{'Noun':>8}")
    for r in rows:
        verb = f"{r['verb']:.4f}" if r["verb"] is not None else "-"
        noun = f"{r['noun']:.4f}" if r["noun"] is not None else "-"
        print(f"{r['method']:<{width}}{verb:>8}{noun:>8}")
    return 0


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "probe": _cmd_probe,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cliplta",
                                     description="long-term action anticipation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen_synth(sub)
    _add_train(sub)
    _add_eval(sub)
    _add_probe(sub)
    _add_report(sub)
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
