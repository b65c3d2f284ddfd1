"""Command-line entry points.

Subcommands: gen-synth, train, eval, probe, report. Config files are JSON
holding ``SynthConfig`` / ``TrainConfig`` fields; each field is also a flag
made from the dataclass (its name with ``_`` -> ``-``, parsed to its type)
that overrides the config key. ``eval`` and ``probe`` flags not given take
the library's defaults.
Exit codes: 0 success, 2 validation error or missing file, 3 numeric error
or operating-system error. Any other exception is a bug and propagates with
its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .aggregate import zero_shot_probe
from .errors import NumericError, ValidationError, build_config, field_types, read_json_object, require, write_file
from .featurestore import FeatureStore
from .harness import TrainConfig, build_label_tables, run_eval, train
from .synthdata import SynthConfig, generate
from .taxonomy import load_taxonomy


def _build_config(cls, args):
    """``cls`` from the JSON config file ``args.config`` (if any), each of its flags in ``args`` overriding it."""
    values, what = {}, "command line"
    if args.config is not None:
        p = Path(args.config)
        if not p.is_file():
            raise ValidationError(f"config file not found: {p}")
        values, what = read_json_object(p, "config file"), f"config file {p}"
    return build_config(cls, values, what, _given(**{name: getattr(args, name) for name in field_types(cls)}))


def _given(**flags) -> dict:
    """The ``flags`` given on the command line: argparse leaves each one not given None."""
    return {name: value for name, value in flags.items() if value is not None}


def _add_config_flags(parser, cls) -> None:
    """One flag per field of the config dataclass ``cls``: the field's name with ``_`` -> ``-``, of its type.

    Each flag defaults to None (not given), a bool field takes ``--x`` and
    ``--no-x``, and a field with capitals also answers to its lower-case
    spelling (``--K`` and ``--k``).
    """
    for name, (kind, *_) in field_types(cls).items():
        flag = "--" + name.replace("_", "-")
        spellings = dict.fromkeys((flag, flag.lower()))  # one spelling when the two are the same
        parse = {"action": argparse.BooleanOptionalAction} if kind is bool else {"type": kind}
        parser.add_argument(*spellings, default=None, dest=name, **parse)


def _add_gen_synth(sub):
    p = sub.add_parser("gen-synth", help="generate a synthetic feature store + ground truth")
    p.add_argument("--config", help="JSON file of synth config keys")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, SynthConfig)
    return p


def _add_train(sub):
    p = sub.add_parser("train", help="train a model per config")
    p.add_argument("--config", help="JSON file of train config keys")
    _add_config_flags(p, TrainConfig)
    return p


def _add_eval(sub):
    p = sub.add_parser("eval", help="predict on a split and score it")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir")
    return p


def _add_probe(sub):
    p = sub.add_parser("probe", help="zero-shot label probe for every frame of a clip")
    p.add_argument("--store", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--text-seed", type=int)
    p.add_argument("--template")
    p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    return p


def _add_report(sub):
    p = sub.add_parser("report", help="tabulate eval results across run directories")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--json", action="store_true", dest="as_json")
    return p


def _cmd_gen_synth(args) -> int:
    cfg = _build_config(SynthConfig, args)
    dataset = generate(cfg, args.out)
    print(f"wrote synthetic dataset under {dataset.root} "
          f"({cfg.n_train} train / {cfg.n_val} val examples, mode={cfg.signal_mode})")
    return 0


def _cmd_train(args) -> int:
    cfg = _build_config(TrainConfig, args)
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
        **_given(K=args.k, temperature=args.temperature, seed=args.seed, out_dir=args.out_dir),
    )
    print(f"predictions: {pred_file}")
    print(f"ED@(Z={report.Z},K={report.K}) over {report.n_examples} examples: "
          f"verb={report.verb_ed:.4f} noun={report.noun_ed:.4f}")
    return 0


def _cmd_probe(args) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    store = FeatureStore.open(args.store)
    frames, _ = store.read_clip(args.clip)
    tables = build_label_tables(taxonomy, store.c,
                                **_given(text_seed=args.text_seed, prompt_template=args.template))
    try:
        records = zero_shot_probe(frames, tables, taxonomy)
    except ValidationError as e:
        raise ValidationError(f"clip {args.clip!r}: {e}") from e
    text = "".join(json.dumps(record) + "\n" for record in records)
    if args.out:
        write_file(args.out, text)
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
        variant = require(read_json_object(config_path, "run config").get("variant"), str,
                          f"run config {config_path}: 'variant'")
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
