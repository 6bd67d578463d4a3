"""Command-line interface.

Subcommands: emit (render one prompt), run (full pipeline), compare
(F1 differences between two run reports, each verified before use),
variability (example spread per k against Arg-C F1, read from verified
run reports), validate (ontology/corpus checks). Exit codes: 0 success,
2 bad configuration or input, 3 fixture miss under replay, 4 backend
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .client import BackendError
from .corpus import load_corpus, validate_against_ontology
from .files import ConfigError, read_yaml, short_repr
from .harness import (
    SETTING_TYPES,
    MissingFixtures,
    RunConfig,
    collector_paused,
    compare,
    prepare,
    run,
    write_report,
)
from .ontology import load_ontology
from .variability import load_points, load_vectors, variability_report

# Flags spelled other than their setting; the rest are the name with dashes.
_SHORT_FLAGS = {
    "ontology_path": "ontology",
    "train_path": "train",
    "test_path": "test",
    "prompt_style": "style",
    "selection_mode": "mode",
    "amr_path": "amr",
    "fixture_path": "fixtures",
    "model_id": "model",
    "output_path": "out",
}


def _load_config_file(path: str) -> dict:
    data = read_yaml(path, "config")
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    unknown = sorted(set(data) - SETTING_TYPES.keys(), key=str)
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {short_repr(unknown)}")
    return data


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML file with run settings; flags override")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + _SHORT_FLAGS.get(f.name, f.name).replace("_", "-")
        kind = SETTING_TYPES[f.name]
        if kind is bool:
            options = {"action": argparse.BooleanOptionalAction}
        else:
            options = {"type": kind, "choices": f.metadata.get("choices")}
        parser.add_argument(flag, dest=f.name, **options)


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The config in the ``--config`` file, overridden by the run flags in ``args``."""
    settings = _load_config_file(args.config) if args.config else {}
    for name in SETTING_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    try:
        return RunConfig(**settings)
    except TypeError as exc:
        raise ConfigError(f"incomplete configuration: {exc}") from exc


@collector_paused
def _cmd_emit(args: argparse.Namespace) -> int:
    plan = prepare(_build_config(args))
    try:
        inst = plan.test.by_id(args.id)
    except KeyError:
        raise ConfigError(f"unknown id {short_repr(args.id)}") from None
    bundle = plan.task(inst).bundle
    # the flag, never the merged config: a config file's output_path names its run's report
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(bundle.text)
    else:
        sys.stdout.write(bundle.text)
        sys.stdout.write("\n")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    report = run(cfg)
    if not cfg.output_path:
        write_report(report, None)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare(args.first, args.second)
    write_report(report, args.out)
    if args.out:
        delta = report["delta"]
        print(f"delta arg_i_f1={delta['arg_i_f1']:+.4f} arg_c_f1={delta['arg_c_f1']:+.4f}")
    return 0


def _cmd_variability(args: argparse.Namespace) -> int:
    report = variability_report(load_points(args.reports, load_vectors(args.vectors)))
    write_report(report, args.out)
    return 0


@collector_paused
def _cmd_validate(args: argparse.Namespace) -> int:
    ontology = load_ontology(args.ontology)
    problems: list[str] = []
    if args.corpus:
        dataset = load_corpus(args.corpus, args.split)
        problems = validate_against_ontology(dataset, ontology)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 2
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evarg",
        description="Event argument extraction via code-style prompting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_emit = sub.add_parser("emit", help="render one prompt and print or save it")
    _add_run_flags(p_emit)
    p_emit.add_argument("--id", required=True, help="test instance id")
    p_emit.set_defaults(func=_cmd_emit)

    p_run = sub.add_parser("run", help="run the full pipeline over a test corpus")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="first-minus-second F1 of two run reports")
    p_cmp.add_argument("first", help="report file written by evarg run")
    p_cmp.add_argument("second", help="report file over the same test instances")
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=_cmd_compare)

    p_var = sub.add_parser("variability", help="example-cluster spread per k against Arg-C F1")
    p_var.add_argument("--vectors", required=True)
    p_var.add_argument("reports", nargs="+", metavar="REPORT", help="run report, one per k")
    p_var.add_argument("--out")
    p_var.set_defaults(func=_cmd_variability)

    p_val = sub.add_parser("validate", help="check an ontology and optional corpus")
    p_val.add_argument("--ontology", required=True)
    p_val.add_argument("--corpus")
    p_val.add_argument("--split", default="train")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingFixtures as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
