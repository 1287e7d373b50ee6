"""Command-line entry point.

Subcommands: gen-corpus, train, eval, drift, ablate-weights, matrix, report.
Exit codes: 0 success, 2 config error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .harness import (
    HarnessError,
    eval_problems,
    evaluate_policy,
    load_corpus_checked,
    make_student,
    output_header,
    run_ablate_weights,
    run_drift,
    run_gen_corpus,
    run_matrix,
    run_report,
    save_cell,
    write_lines,
)
from .policy import load_policy
from .task import teacher_policy
from .training import TrainAbortError, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _add_common(sub, jobs: bool = False):
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--out", default="results", help="output directory")
    if jobs:
        sub.add_argument(
            "--jobs", type=_int_at_least(1), default=1, help="worker processes, each running one seed's cells at a time"
        )
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = _add_common(subs.add_parser("gen-corpus", help="generate and filter the teacher trace corpus"))
    p_gen.add_argument("--overwrite", action="store_true", help="replace an existing corpus")

    p_train = _add_common(subs.add_parser("train", help="train one objective from the corpus"))
    p_train.add_argument("--objective", default=None, help="objective label (default: first in config)")
    p_train.add_argument("--seed", type=_int_at_least(0), default=None, help="training seed (default: first in config)")

    p_eval = _add_common(subs.add_parser("eval", help="evaluate a policy snapshot"))
    p_eval.add_argument("--policy", required=True, help="policy snapshot file")

    _add_common(subs.add_parser("drift", help="prefix-drift study over all objectives"), jobs=True)
    _add_common(subs.add_parser("ablate-weights", help="correction-weight ablation (fixed variant set)"), jobs=True)
    _add_common(subs.add_parser("matrix", help="full objective x seed matrix"), jobs=True)

    p_report = subs.add_parser("report", help="merge result CSVs into a text report")
    p_report.add_argument("--out", default="results", help="results directory")
    return parser


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted (RFC 4180) if it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _cmd_train(cfg, args) -> int:
    label = args.objective or cfg.objectives[0][0]
    spec = cfg.objective(label)
    seed = args.seed if args.seed is not None else cfg.train.seeds[0]
    corpus = load_corpus_checked(cfg, args.out)
    teacher = teacher_policy(cfg.teacher, cfg.task)
    init = make_student(cfg, seed)
    policy, history = train(cfg.train, corpus, spec, init, teacher=teacher, max_len=cfg.corpus.max_len, seed=seed)
    save_cell(cfg, args.out, label, seed, policy, history)
    print(f"trained {label} seed {seed}: final loss {history.steps[-1].loss:.6f}")
    return EXIT_OK


def _cmd_eval(cfg, args) -> int:
    policy = load_policy(args.policy)
    if policy.vocab.modulus != cfg.task.modulus:
        raise HarnessError(
            f"snapshot {args.policy} was trained for modulus {policy.vocab.modulus}, "
            f"but [task] modulus is {cfg.task.modulus}"
        )
    problems = eval_problems(cfg)
    acc, quality = evaluate_policy(cfg, policy, problems)
    name = os.path.splitext(os.path.basename(args.policy))[0]
    lines = [
        output_header(cfg),
        "policy,accuracy,mean_len,rep4,post_answer,multi_answer",
        f"{_csv_field(name)},{acc!r},{quality.mean_length!r},{quality.repeated_4gram_fraction!r},"
        f"{quality.post_answer_rate!r},{quality.multi_answer_rate!r}",
    ]
    write_lines(os.path.join(args.out, f"eval_{name}.csv"), lines)
    print(f"{name}: accuracy {acc:.4f} over {len(problems)} problems")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            print(run_report(args.out), end="")
            return EXIT_OK
        cfg = load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise HarnessError(f"cannot use output directory {args.out}: {exc}") from None
        if args.command == "gen-corpus":
            manifest = run_gen_corpus(cfg, args.out, overwrite=args.overwrite)
            print(
                f"corpus: {manifest['n_retained']}/{manifest['n_records']} retained "
                f"(rate {manifest['retention_rate']:.4f})"
            )
            return EXIT_OK
        if args.command == "train":
            return _cmd_train(cfg, args)
        if args.command == "eval":
            return _cmd_eval(cfg, args)
        if args.command == "matrix":
            res = run_matrix(cfg, args.out, jobs=args.jobs)
            print(f"matrix complete: {len(res.cells)} cells -> {args.out}")
            return EXIT_OK
        if args.command == "drift":
            res = run_drift(cfg, args.out, jobs=args.jobs)
            print(f"drift study complete: {len(res.cells)} cells -> {args.out}")
            return EXIT_OK
        if args.command == "ablate-weights":
            res = run_ablate_weights(cfg, args.out, jobs=args.jobs)
            print(f"ablation complete: {len(res.rows)} variants -> {args.out}")
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (HarnessError, TrainAbortError, RuntimeError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
