"""Command-line interface.

Subcommands: emit (render one prompt), run (full pipeline), compare
(code vs text prompts), variability (vector-based example spread),
validate (ontology/corpus checks). Exit codes: 0 success, 2 bad
configuration or input, 3 fixture miss under replay, 4 backend failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import yaml

from .client import BackendError, FixtureMissError
from .corpus import CorpusError, load_corpus, validate_against_ontology
from .harness import (
    ConfigError,
    MissingFixtures,
    ReportError,
    RunConfig,
    compare,
    prepare,
    run,
    write_report,
)
from .ontology import OntologyError, load_ontology
from .variability import (
    VariabilityError,
    VectorCluster,
    load_vectors,
    variability_report,
)

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    unknown = sorted(set(data) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {unknown}")
    return data


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML file with run settings; flags override")
    parser.add_argument("--ontology", dest="ontology_path")
    parser.add_argument("--train", dest="train_path")
    parser.add_argument("--test", dest="test_path")
    parser.add_argument("--style", dest="prompt_style", choices=["code", "t1", "t2"])
    parser.add_argument("--k", type=int)
    parser.add_argument(
        "--mode", dest="selection_mode", choices=["same", "sibling", "non_sibling"]
    )
    parser.add_argument("--seed", type=int)
    for name in (
        "mark-trigger",
        "include-description",
        "include-type-annotation",
        "include-hierarchy",
        "include-keywords",
    ):
        parser.add_argument(
            f"--{name}",
            dest=name.replace("-", "_"),
            action=argparse.BooleanOptionalAction,
            default=None,
        )
    parser.add_argument("--amr", dest="amr_path")
    parser.add_argument("--backend", choices=["replay", "http"])
    parser.add_argument(
        "--record", action=argparse.BooleanOptionalAction, default=None
    )
    parser.add_argument("--fixtures", dest="fixture_path")
    parser.add_argument("--endpoint")
    parser.add_argument("--model", dest="model_id")
    parser.add_argument("--max-new-tokens", dest="max_new_tokens", type=int)
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--max-prompt-chars", dest="max_prompt_chars", type=int)
    parser.add_argument("--max-in-flight", dest="max_in_flight", type=int)
    parser.add_argument("--out", dest="output_path")


def _build_config(args: argparse.Namespace, path: str | None) -> RunConfig:
    """The config in the file at ``path``, overridden by the run flags in ``args``."""
    settings = _load_config_file(path) if path else {}
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    try:
        return RunConfig(**settings)
    except TypeError as exc:
        raise ConfigError(f"incomplete configuration: {exc}") from exc


def _cmd_emit(args: argparse.Namespace) -> int:
    plan = prepare(_build_config(args, args.config))
    bundle = plan.task(plan.test.by_id(args.id)).bundle
    if args.out_file:
        with open(args.out_file, "w", encoding="utf-8") as fh:
            fh.write(bundle.text)
    else:
        sys.stdout.write(bundle.text)
        sys.stdout.write("\n")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args, args.config)
    report = run(cfg)
    if not cfg.output_path:
        json.dump(report, sys.stdout, sort_keys=True, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg_code = _build_config(args, args.config_code)
    cfg_text = _build_config(args, args.config_text)
    report = compare(cfg_code, cfg_text, output_path=args.out)
    if not args.out:
        json.dump(report, sys.stdout, sort_keys=True, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")
    else:
        delta = report["delta"]
        print(f"delta arg_i_f1={delta['arg_i_f1']:+.4f} arg_c_f1={delta['arg_c_f1']:+.4f}")
    return 0


def _cmd_variability(args: argparse.Namespace) -> int:
    vectors = load_vectors(args.vectors)
    try:
        with open(args.grid, encoding="utf-8") as fh:
            grid = yaml.safe_load(fh)
        cluster_ids = grid["clusters"]
        arg_c = grid["arg_c_f1"]
    except OSError as exc:
        raise ConfigError(f"cannot read grid file {args.grid}: {exc}") from exc
    except (yaml.YAMLError, KeyError, TypeError) as exc:
        raise ConfigError(f"grid file {args.grid} is malformed: {exc}") from exc

    clusters_per_k: dict[int, list[VectorCluster]] = {}
    for k_raw, by_type in cluster_ids.items():
        k = int(k_raw)
        clusters = []
        for event_type, ids in sorted(by_type.items()):
            missing = [i for i in ids if i not in vectors]
            if missing:
                raise ConfigError(f"vector file lacks ids {missing} for {event_type!r}")
            clusters.append(
                VectorCluster(event_type, tuple(vectors[i] for i in ids))
            )
        clusters_per_k[k] = clusters
    arg_c_per_k = {int(k): float(v) for k, v in arg_c.items()}

    report = variability_report(clusters_per_k, arg_c_per_k)
    if args.out:
        write_report(report, args.out)
    else:
        json.dump(report, sys.stdout, sort_keys=True, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")
    return 0


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
    p_emit.add_argument("--out-file", help="write prompt bytes here instead of stdout")
    p_emit.set_defaults(func=_cmd_emit)

    p_run = sub.add_parser("run", help="run the full pipeline over a test corpus")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="delta between code and text prompt runs")
    p_cmp.add_argument("--config-code", required=True)
    p_cmp.add_argument("--config-text", required=True)
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=_cmd_compare)

    p_var = sub.add_parser("variability", help="example-cluster spread per k")
    p_var.add_argument("--vectors", required=True)
    p_var.add_argument("--grid", required=True)
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
    except (MissingFixtures, FixtureMissError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OntologyError, CorpusError, VariabilityError, ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: unknown id {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
