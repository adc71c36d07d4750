"""Command-line entry point.

Subcommands: score, search, rea, area, correlate, ablate, dump-kernel.
Every run is fully determined by its resolved settings: defaults,
overridden by a ``--config key=value`` file, overridden by explicit
flags.  The single ``--seed`` splits into three independent streams
(architecture sampling, weight init, data sampling) so each varies one
factor; all output files start with ``# key=value`` lines echoing the
resolved settings, and contain no timestamps, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .benchdata import (
    EvaluatorMiss,
    EvaluatorTable,
    MissingFile,
    ParseError,
    TruncatedRecord,
    load_benchmark_csv,
    load_cifar10_batch,
)
from .network import (
    Network,
    NetworkConfig,
    NonFiniteActivation,
    build_network,
    forward_collect_codes,
)
from .scoring import HammingKernel, ScoreStatus, Score, hamming_kernel, logdet_score, make_scorer, normalize_kernel, score_network
from .search import SearchResult, area_search, naswot_search, rea_search
from .searchspace import MalformedArchString, as_generator, parse_arch, sample_uniform
from .stats import (
    AllSingularGroup,
    DegenerateInput,
    EmptyGroup,
    ablation_run,
    correlate_space,
    normal_batch_factory,
    normalize_by_min,
)

__all__ = ["main"]

_EXPECTED_ERRORS = (
    MalformedArchString,
    ParseError,
    MissingFile,
    TruncatedRecord,
    EvaluatorMiss,
    DegenerateInput,
    EmptyGroup,
    AllSingularGroup,
    NonFiniteActivation,
    ValueError,
    OSError,
)

# every settable key with its value parser; config files and flags feed
# through the same table so precedence is uniform
_KEY_TYPES = {
    "seed": int,
    "batch_size": int,
    "input": str,
    "bench": str,
    "dataset": str,
    "n": int,
    "pool": int,
    "pop": int,
    "tournament": int,
    "budget": int,
    "seconds": float,
    "eval_cost": float,
    "jobs": int,
    "out": str,
    "mode": str,
    "repeats": int,
    "metric": str,
    "dump_kernel": str,
    "preset": str,
    "stem_channels": int,
    "cells_per_stage": int,
    "input_shape": lambda text: tuple(int(t) for t in text.replace("x", ",").split(",")),
    "bn_epsilon": float,
    "init_seed": int,
}

_DEFAULTS = {
    "seed": 0,
    "batch_size": 128,
    "input": "random",
    "n": 100,
    "pool": 20,
    "pop": 10,
    "tournament": 5,
    "budget": 100,
    "jobs": 1,
    "metric": "val_acc",
    "repeats": 20,
    "preset": "full",
}

_SUB_DEFAULTS = {
    "correlate": {"n": 1000},
    "ablate": {"batch_size": 32},
}

# preset name -> NetworkConfig constructor taking field overrides
_PRESETS = {"full": NetworkConfig, "desk": NetworkConfig.desk}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _resolve_settings(args)
        return _SUBCOMMANDS[args.command][0](settings)
    except _EXPECTED_ERRORS as exc:
        # args[0], not str(exc): KeyError subclasses repr-quote their str()
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# settings resolution
# ---------------------------------------------------------------------------


def _parse_config_file(path: str, command: str) -> dict:
    read = ("seed", "out", *_SUBCOMMANDS[command][3])
    entries: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KEY_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        if key not in read:
            raise ValueError(f"{path}:{lineno}: {command} does not read setting {key!r}")
        try:
            entries[key] = _KEY_TYPES[key](value.strip())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value.strip()!r}") from None
    return entries


def _resolve_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    settings.update(_SUB_DEFAULTS.get(args.command, {}))
    if getattr(args, "config", None):
        settings.update(_parse_config_file(args.config, args.command))
    for key in _KEY_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    settings["subcommand"] = args.command
    if hasattr(args, "arch"):
        settings["arch"] = args.arch
    if args.command == "ablate" and "mode" not in settings:
        raise ValueError("ablate requires --mode")
    if settings["jobs"] < 1:
        raise ValueError(f"--jobs must be at least 1, got {settings['jobs']}")

    # one master seed, three independent streams: architecture
    # sampling, weight init, data sampling
    children = np.random.SeedSequence(settings["seed"]).spawn(3)
    arch_seed, init_seed, data_seed = (int(c.generate_state(1)[0]) for c in children)
    settings["_arch_seed"] = arch_seed
    settings["_data_seed"] = data_seed
    if "init_seed" not in settings:
        settings["init_seed"] = init_seed
    return settings


def _network_config(settings: dict) -> NetworkConfig:
    preset = settings["preset"]
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {sorted(_PRESETS)}")
    fields = {key: settings[key] for key in _NETWORK_FIELDS if key in settings}
    return _PRESETS[preset](init_seed=settings["init_seed"], **fields)


def _batch_factory(settings: dict, config: NetworkConfig):
    """Parse --input into a (batch_size, seed) -> batch callable."""
    source = settings["input"]
    if source == "random":
        return normal_batch_factory(config)
    if source.startswith("cifar10:"):
        if config.input_shape != (3, 32, 32):
            raise ValueError(f"cifar10 input needs input_shape 3,32,32, not {config.input_shape}")
        directory = source[len("cifar10:"):]
        return lambda batch_size, seed: load_cifar10_batch(directory, batch_size, seed)
    raise ValueError(f"bad --input {source!r}; expected random or cifar10:<dir>")


def _require_out(settings: dict, action: str) -> None:
    if settings.get("out") is None:
        raise ValueError(f"{action} requires --out <path>")


def _config_and_batch(settings: dict) -> tuple[NetworkConfig, np.ndarray]:
    """The settings' network config, and their input batch."""
    config = _network_config(settings)
    return config, _batch_factory(settings, config)(settings["batch_size"], settings["_data_seed"])


def _network_and_batch(settings: dict) -> tuple[Network, np.ndarray]:
    """The settings' arch built at their config, and their input batch."""
    genotype = parse_arch(settings["arch"])
    config, batch = _config_and_batch(settings)
    return build_network(genotype, config), batch


def _load_table(settings: dict) -> EvaluatorTable:
    if "bench" not in settings:
        raise ValueError(f"{settings['subcommand']} requires --bench <csv>")
    return load_benchmark_csv(settings["bench"], dataset=settings.get("dataset"))


def _resolve_budget(settings: dict) -> int:
    if "seconds" in settings:
        seconds, cost = settings["seconds"], settings.get("eval_cost")
        if not 0 < seconds < math.inf:
            raise ValueError(f"--seconds must be a positive finite time budget, got {seconds!r}")
        if cost is None or not 0 < cost < math.inf:
            raise ValueError("--seconds needs a positive --eval-cost (assumed seconds per evaluation)")
        return max(settings["pop"], int(seconds / cost))
    return settings["budget"]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

_ECHO_SKIP = frozenset({"_arch_seed", "_data_seed", "out"})


def _fmt6(value: float) -> str:
    return format(value, ".6g")


def _header_lines(settings: dict) -> list[str]:
    lines = []
    for key in sorted(settings):
        if key in _ECHO_SKIP:
            continue
        value = settings[key]
        if isinstance(value, tuple):
            value = "x".join(str(v) for v in value)
        lines.append(f"# {key}={value}")
    return lines


def _write_csv(settings: dict, columns: Optional[Sequence[str]], rows) -> None:
    path = settings.get("out")
    if path is None:
        return
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        for line in _header_lines(settings):
            handle.write(line + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        if columns is not None:
            writer.writerow(columns)
        writer.writerows(rows)


def _score_cell(score: Optional[Score]) -> tuple[str, str]:
    if score is None:
        return "", ""
    return (repr(score.value) if score.is_valid else ""), score.status.name


def _acc_cell(accuracy: Optional[float]) -> str:
    return "" if accuracy is None else repr(accuracy)


def _run_log_rows(result: SearchResult):
    """One row per candidate: pool members first (area), then children."""
    if result.pool:
        accuracy_by_birth = {c.birth: c.accuracy for c in result.history if c.accuracy is not None}
        candidates = list(result.pool) + [c for c in result.history if c.birth >= len(result.pool)]
    else:
        accuracy_by_birth = {}
        candidates = list(result.history)
    for cand in candidates:
        value, status = _score_cell(cand.score)
        accuracy = accuracy_by_birth.get(cand.birth, cand.accuracy)
        yield [cand.birth, str(cand.genotype), value, status, _acc_cell(accuracy)]


def _print_chosen(result: SearchResult, *, with_accuracy: bool) -> None:
    chosen = result.chosen
    print(f"chosen {chosen.genotype}")
    if chosen.score is not None:
        print(f"status {chosen.score.status.name}")
        if chosen.score.is_valid:
            print(f"score {_fmt6(chosen.score.value)}")
    if with_accuracy:
        print(f"accuracy {_fmt6(chosen.accuracy)}")
    print(f"walltime {_fmt6(result.wall_time)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_score(settings: dict) -> int:
    want_dump = settings.get("dump_kernel")
    if want_dump:
        _require_out(settings, "kernel dump")
    net, batch = _network_and_batch(settings)
    try:
        codes = forward_collect_codes(net, batch)
    except NonFiniteActivation:
        print(f"arch {net.genotype}")
        print(f"status {ScoreStatus.NON_FINITE.name}")
        if want_dump:
            raise
        return 0
    kernel = hamming_kernel(codes)
    score = logdet_score(kernel)
    print(f"arch {net.genotype}")
    print(f"status {score.status.name}")
    if score.is_valid:
        print(f"score {_fmt6(score.value)}")
    if want_dump:
        _dump_kernel_csv(settings, kernel)
    return 0


def _dump_kernel_csv(settings: dict, kernel: HammingKernel) -> None:
    matrix = kernel.matrix if settings["dump_kernel"] == "raw" else normalize_kernel(kernel)
    _write_csv(settings, None, ([repr(float(v)) for v in row] for row in matrix))


def _cmd_dump_kernel(settings: dict) -> int:
    settings.setdefault("dump_kernel", "raw")
    _require_out(settings, "kernel dump")
    net, batch = _network_and_batch(settings)
    _dump_kernel_csv(settings, hamming_kernel(forward_collect_codes(net, batch)))
    return 0


def _cmd_search(settings: dict) -> int:
    if settings["n"] < 1:
        raise ValueError("--n must be at least 1")
    config, batch = _config_and_batch(settings)
    scorer = make_scorer(config, batch)
    jobs = settings["jobs"]
    if jobs > 1:
        # pre-draw the same sample sequence, score unique genotypes in
        # parallel, then replay; the outcome is independent of jobs
        gen = as_generator(settings["_arch_seed"])
        drawn = [sample_uniform(gen) for _ in range(settings["n"])]
        unique = list(dict.fromkeys(drawn))
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            memo = dict(zip(unique, pool.map(scorer, unique)))
        result = naswot_search(settings["n"], memo.__getitem__, settings["_arch_seed"], candidates=drawn)
    else:
        result = naswot_search(settings["n"], scorer, settings["_arch_seed"])
    _print_chosen(result, with_accuracy=False)
    _write_csv(settings, ["index", "arch", "score", "status", "accuracy"], _run_log_rows(result))
    return 0


def _cmd_rea(settings: dict) -> int:
    table = _load_table(settings)
    evaluator = table.evaluator(settings["metric"])
    result = rea_search(evaluator, settings["pop"], settings["tournament"],
                        _resolve_budget(settings), settings["_arch_seed"])
    _print_chosen(result, with_accuracy=True)
    _write_csv(settings, ["index", "arch", "score", "status", "accuracy"], _run_log_rows(result))
    return 0


def _cmd_area(settings: dict) -> int:
    table = _load_table(settings)
    evaluator = table.evaluator(settings["metric"])
    config, batch = _config_and_batch(settings)
    result = area_search(make_scorer(config, batch), evaluator, settings["pool"],
                         settings["pop"], settings["tournament"],
                         _resolve_budget(settings), settings["_arch_seed"])
    _print_chosen(result, with_accuracy=True)
    _write_csv(settings, ["index", "arch", "score", "status", "accuracy"], _run_log_rows(result))
    return 0


def _cmd_correlate(settings: dict) -> int:
    table = _load_table(settings)
    config, batch = _config_and_batch(settings)
    report = correlate_space(
        table,
        lambda genotype, data: score_network(genotype, config, data),
        settings["n"],
        batch,
        settings["_arch_seed"],
        metric=settings["metric"],
    )
    print(f"tau {_fmt6(report.tau)}")
    print(f"n {report.n}")
    print(f"excluded {report.excluded_count}")
    rows = []
    for row in report.rows:
        value, status = _score_cell(row.score)
        rows.append([row.arch, value, status, repr(row.accuracy)])
    _write_csv(settings, ["arch", "score", "status", "accuracy"], rows)
    return 0


def _cmd_ablate(settings: dict) -> int:
    _require_out(settings, "ablate")
    genotype = parse_arch(settings["arch"])
    config = _network_config(settings)
    groups = ablation_run(
        genotype,
        config,
        settings["mode"],
        settings["repeats"],
        batch_factory=_batch_factory(settings, config),
        batch_size=settings["batch_size"],
        data_seed=settings["_data_seed"],
    )
    normalized = normalize_by_min(groups) if settings["mode"] == "batch_sizes" else None
    rows = []
    for label, scores in groups.items():
        for repeat, score in enumerate(scores):
            value, status = _score_cell(score)
            norm = ""
            if normalized is not None and normalized[label][repeat] is not None:
                norm = repr(normalized[label][repeat])
            rows.append([label, repeat, value, status, norm])
    _write_csv(settings, ["group", "repeat", "score", "status", "normalized"], rows)
    return 0


# help text and choices of every flag, by settings key; the flag is the
# key with "-" for "_", and its value parser is the key's in _KEY_TYPES
# (str for --config, which names a file rather than a setting)
_FLAGS = {
    "seed": dict(help="master seed (split into arch/init/data streams)"),
    "batch_size": {},
    "input": dict(help="batch source: random | cifar10:<dir>"),
    "bench": dict(help="accuracy table CSV"),
    "dataset": dict(help="dataset tag filter for --bench"),
    "n": dict(help="sample count"),
    "pool": dict(help="scored pool size"),
    "pop": dict(help="population size"),
    "tournament": {},
    "budget": dict(help="total evaluations"),
    "seconds": dict(help="time budget; needs --eval-cost"),
    "eval_cost": dict(help="assumed seconds per evaluation for --seconds"),
    "jobs": dict(help="parallel scoring workers"),
    "config": dict(help="key=value settings file"),
    "out": dict(help="output file path"),
    "metric": dict(choices=["val_acc", "test_acc"]),
    "preset": dict(choices=sorted(_PRESETS), help="network size preset"),
    "dump_kernel": dict(choices=["raw", "normalized"]),
    "mode": dict(choices=["batches", "random_inputs", "inits", "batch_sizes"]),
    "repeats": {},
}

# NetworkConfig fields a --config file may override; they have no flag
_NETWORK_FIELDS = ("stem_channels", "cells_per_stage", "input_shape", "bn_epsilon")
_NETWORK_KEYS = ("batch_size", "input", "preset", "init_seed", *_NETWORK_FIELDS)
_TABLE_KEYS = ("bench", "dataset", "metric")
_EVOLUTION_KEYS = ("pop", "tournament", "budget", "seconds", "eval_cost")

# subcommand -> (handler, help, whether it takes an arch, the settings
# keys it reads besides seed and out); a flag or config key outside them
# is an error
_SUBCOMMANDS = {
    "score": (_cmd_score, "score one architecture untrained", True, (*_NETWORK_KEYS, "dump_kernel")),
    "search": (_cmd_search, "sample-and-score search", False, (*_NETWORK_KEYS, "n", "jobs")),
    "rea": (_cmd_rea, "regularized evolution against an accuracy table", False,
            (*_TABLE_KEYS, *_EVOLUTION_KEYS)),
    "area": (_cmd_area, "evolution with score-selected initial population", False,
             (*_NETWORK_KEYS, *_TABLE_KEYS, "pool", *_EVOLUTION_KEYS)),
    "correlate": (_cmd_correlate, "rank-correlate scores with table accuracies", False,
                  (*_NETWORK_KEYS, *_TABLE_KEYS, "n")),
    "ablate": (_cmd_ablate, "rescore one architecture varying one factor", True,
               (*_NETWORK_KEYS, "mode", "repeats")),
    "dump-kernel": (_cmd_dump_kernel, "write the kernel matrix as CSV", True, (*_NETWORK_KEYS, "dump_kernel")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="naswot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, takes_arch, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if takes_arch:
            p.add_argument("arch", help="architecture string")
        for key in ("seed", *keys, "config", "out"):
            if key in _FLAGS:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=_KEY_TYPES.get(key, str), **_FLAGS[key])
    return parser


if __name__ == "__main__":
    sys.exit(main())
