"""Command-line entry points.

Typical workflow:

    contprune gen-corpora --out data --tokens 200000 --seed 0
    contprune train --corpora-dir data --out model.ckpt --seed 0
    contprune run-grid --model model.ckpt --corpora-dir data \
        --out runs --seed 0
    contprune report --run-dir runs

A grid command's ExperimentConfig fields can also come from a JSON config
file (--config); explicit flags override file values, and a field the
command has no flag for is a usage error. A command that fails on a package
error or an OSError prints one line, ``contprune: <Type>: <message>``, and
exits 1. Each command imports the package modules it runs when it runs.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from .errors import PACKAGE_ERRORS, FormatError, InputError, UsageError


def _add_corpora_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--corpora-dir",
        help="directory holding <name>.bin corpora (as written by gen-corpora)",
    )
    p.add_argument(
        "--corpus",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="explicit corpus entry; repeatable",
    )


def _add_named_corpus_args(p: argparse.ArgumentParser) -> None:
    """The flags of a command that reads one checkpoint and one corpus."""
    p.add_argument("--model", required=True)
    p.add_argument("--corpus-path", required=True, dest="corpus_path")
    p.add_argument("--corpus-name", dest="corpus_name", help="default: the file stem")
    p.add_argument("--seq-len", type=int, default=128, dest="seq_len")


def _collect_corpora(args) -> dict[str, str]:
    """The corpora the flags name, by name; possibly none. A ``--corpus``
    entry overrides a ``--corpora-dir`` file of the same stem, and names a
    corpus no other ``--corpus`` entry names. InputError when
    ``--corpora-dir`` holds no ``*.bin`` file or is missing."""
    from .corpus import check_corpus_name
    entries: dict[str, str] = {}
    if args.corpora_dir:
        paths = sorted(Path(args.corpora_dir).glob("*.bin"))
        if not paths:
            raise InputError(f"--corpora-dir {args.corpora_dir} holds no *.bin corpus")
        for path in paths:
            entries[path.stem] = str(path)
    flagged: set[str] = set()
    for spec in args.corpus:
        name, _, path = spec.partition("=")
        if not path:
            raise UsageError(f"--corpus expects NAME=PATH, got {spec!r}")
        check_corpus_name(name, f"--corpus {spec!r}")
        if name in flagged:
            raise UsageError(f"--corpus {spec!r} repeats the name {name!r}")
        flagged.add(name)
        entries[name] = path
    return entries


def _load_named_corpus(args):
    """``--corpus-path``, named ``--corpus-name`` or, like ``--corpora-dir``, its stem."""
    from . import corpus as corpus_mod
    path = Path(args.corpus_path)
    return corpus_mod.load_corpus(path, args.corpus_name or path.stem)


def cmd_gen_corpora(args) -> int:
    from . import corpus as corpus_mod
    paths = corpus_mod.generate_corpora(args.out, n_tokens=args.tokens, seed=args.seed)
    for name, path in sorted(paths.items()):
        print(f"wrote {name}: {path}")
    return 0


def cmd_train(args) -> int:
    from . import corpus as corpus_mod, model, trainer
    from .seeding import derive_seed
    entries = _collect_corpora(args)
    if not entries:
        raise UsageError("no corpora given; use --corpora-dir or --corpus")
    corpora = [corpus_mod.load_corpus(p, n) for n, p in sorted(entries.items())]
    net = model.make_decoder(d=args.dim, hidden=args.hidden, blocks=args.blocks,
                             seed=derive_seed(args.seed, "init"))
    cfg = trainer.TrainConfig(steps=args.steps, batch=args.batch, seq_len=args.seq_len,
                              learning_rate=args.lr, seed=args.seed)
    losses: list[float] = []
    net = trainer.train(net, corpora, cfg, loss_log=losses)
    model.save_checkpoint(net, args.out)
    # up to 50 steps at each end, and never the same steps at both ends
    span = max(1, min(50, len(losses) // 2))
    first = sum(losses[:span]) / span if losses else float("nan")
    last = sum(losses[-span:]) / span if losses else float("nan")
    print(f"trained {args.steps} steps: loss {first:.4f} -> {last:.4f}; saved {args.out}")
    return 0


def cmd_prune(args) -> int:
    from . import corpus as corpus_mod, harness, importance, model, pruner
    from .seeding import derive_seed
    if args.nm:  # one pattern, so no comma split
        kwargs = {"nm": harness.parse_items("--nm", [args.nm], harness.nm_pair)[0]}
    else:
        kwargs = {"sparsity": args.sparsity}
    config = pruner.PruneConfig(criterion=args.criterion, **kwargs)
    net = model.load_checkpoint(args.model)
    corpus = _load_named_corpus(args)
    calib = corpus_mod.sample_calibration(
        corpus, args.n_samples, args.seq_len, derive_seed(args.seed, "calib", corpus.name)
    )
    state = None
    if args.state or args.save_state:  # under any criterion: a state holds token counts
        base_sha256 = hashlib.sha256(Path(args.model).read_bytes()).hexdigest()
        state = importance.load_state(args.state, net) if args.state else importance.init_state(net)
        if args.state and state.base_sha256 is None:
            raise UsageError(f"state {args.state} names no base checkpoint (base_sha256 null), "
                             f"so it cannot continue on {args.model}")
        if args.state and state.base_sha256 != base_sha256:  # it scores the base it was built on
            raise UsageError(f"state {args.state} was built on a model with sha256 "
                             f"{state.base_sha256}, not on {args.model} (sha256 {base_sha256})")
        state.base_sha256 = base_sha256
    pruned, masks, frag = pruner.prune_step(net, state, config, calib)
    model.save_checkpoint(pruned, args.out)
    if args.save_state:
        importance.save_state(state, args.save_state)
    if args.export_masks:
        pruner.export_masks(masks, config, args.export_masks)
    print(json.dumps(frag, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    from . import metrics, model
    net = model.load_checkpoint(args.model)
    corpus = _load_named_corpus(args)
    ppl = metrics.perplexity(net, corpus, seq_len=args.seq_len)
    print(f"{corpus.name}: perplexity {ppl:.6f}")
    return 0


def _experiment_config(args) -> harness.ExperimentConfig:
    """Config file values, overridden by every flag given; each grid flag's
    ``dest`` is the name of the ExperimentConfig field it sets, and the file
    may set only ``corpora`` and the fields of the command's flags."""
    from . import harness
    try:
        values = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(values, dict):
        kind = type(values).__name__
        raise UsageError(f"config {args.config} must hold a JSON object, got {kind}")
    names = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    unknown = sorted(set(values) - names)
    if unknown:
        raise UsageError(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
    ignored = sorted(set(values) - set(vars(args)) - {"corpora"})  # fields it never reads
    if ignored:
        raise UsageError(f"config key(s) in {args.config} that {args.command} ignores: "
                         f"{', '.join(ignored)}")
    for name in names:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    entries = values.get("corpora") or {}
    if isinstance(entries, dict):  # ExperimentConfig names any other type
        entries = {**entries, **_collect_corpora(args)}
    values["corpora"] = entries
    if values.get("seed") is None:
        raise UsageError("--seed is required")
    if "model_path" not in values:
        raise UsageError("--model is required")
    return harness.ExperimentConfig(**values)


def cmd_run_grid(args) -> int:
    from . import harness
    cfg = _experiment_config(args)
    out = harness.run_continual(cfg)
    print(harness.render_table(out))
    print(f"reports written to {cfg.output_dir}")
    return 0


def cmd_ablate(args) -> int:
    from . import harness
    for row in getattr(harness, args.sweep)(_experiment_config(args)):
        print(row)
    return 0


def cmd_report(args) -> int:
    from . import harness
    path = Path(args.run_dir) / "grid.json"
    try:
        table = harness.render_table(json.loads(path.read_text()))
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path} is not a grid report: {type(exc).__name__}: {exc}") from None
    print(table)
    return 0


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    """The flags every grid command reads; each adds those that set what it sweeps."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--model", dest="model_path", help="model checkpoint path")
    _add_corpora_args(p)
    p.add_argument("--out", dest="output_dir", help="output directory for reports")
    p.add_argument("--seed", type=int, help="master seed (required)")
    p.add_argument("--seq-len", type=int, dest="seq_len")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--w-draws", type=int, dest="w_draws",
                   help="weight perturbation draws per calibration segment; a factor "
                        "of the sensitivity scores")
    p.add_argument("--eval-fraction", type=float, dest="eval_fraction",
                   help="trailing fraction of each corpus held out for evaluation")
    p.add_argument("--init-mode", choices=("sequential", "global"), dest="init_mode_override",
                   help="force one initialization mode for all criteria")


def _add_criteria_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--criteria", help="comma-separated criteria")
    p.add_argument("--n-samples", type=int, dest="n_samples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contprune", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpora", help="write the three synthetic corpora")
    p.add_argument("--out", required=True)
    p.add_argument("--tokens", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_corpora)

    p = sub.add_parser("train", help="train a base checkpoint on a corpus mixture")
    _add_corpora_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seq-len", type=int, default=64, dest="seq_len")
    p.add_argument("--lr", type=float, default=0.3)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="one prune step on one corpus")
    _add_named_corpus_args(p)
    p.add_argument("--criterion", default="sensitivity", help="sensitivity, magnitude or wanda")
    p.add_argument("--sparsity", type=float, default=0.5)
    p.add_argument("--nm", help="N:M pattern, e.g. 2:4 (overrides --sparsity)")
    p.add_argument("--n-samples", type=int, default=16, dest="n_samples")
    p.add_argument("--state", help="importance state to continue from, built on --model")
    p.add_argument("--save-state", dest="save_state", help="write updated importance state here")
    p.add_argument("--export-masks", dest="export_masks", help="directory for mask export")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("eval", help="perplexity of a checkpoint on one corpus")
    _add_named_corpus_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run-grid", help="full permutation grid over criteria")
    _add_grid_args(p)
    _add_criteria_args(p)
    p.add_argument("--sparsity", dest="sparsities", help="comma-separated unstructured sparsities")
    p.add_argument("--nm", dest="nm_patterns", help="comma-separated N:M patterns, e.g. 2:4,4:8")
    p.set_defaults(func=cmd_run_grid)

    p = sub.add_parser("ablate-sparsity", help="sparsity sweep of A-BWT/M-BWT")
    _add_grid_args(p)
    _add_criteria_args(p)
    p.add_argument("--sparsity-sweep", dest="sparsity_sweep", help="comma-separated values")
    p.set_defaults(func=cmd_ablate, sweep="run_ablation_sparsity")

    p = sub.add_parser("ablate-samples", help="calibration sample-count sweep")
    _add_grid_args(p)
    p.add_argument("--samples-sweep", dest="samples_sweep", help="comma-separated counts")
    p.add_argument("--ablate-criteria", dest="ablate_criteria", help="criteria for the sweep")
    p.set_defaults(func=cmd_ablate, sweep="run_ablation_samples")

    p = sub.add_parser("report", help="re-render the table from a run directory")
    p.add_argument("--run-dir", required=True, dest="run_dir")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*PACKAGE_ERRORS, OSError) as exc:
        print(f"contprune: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
