"""Command-line entry point.

Subcommands: score, search, rea, area, correlate, ablate, dump-kernel.
Each setting is defined once, in one settings table: its value parser,
its default and its flag, so config files and flags parse it alike.  A
run is fully determined by its resolved settings: the defaults of the
keys its subcommand reads, overridden by a ``--config key=value`` file,
overridden by explicit flags.  The
single ``--seed`` splits into three independent streams (architecture
sampling, weight init, data sampling) so each varies one factor; all
output files start with ``# key=value`` lines echoing the resolved
settings, and contain no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .benchdata import EvaluatorMiss, EvaluatorTable, load_benchmark_csv, load_cifar10_batch
from .network import Network, NetworkConfig, NonFiniteActivation, build_network, forward_collect_codes
from .scoring import ScoreStatus, Score, hamming_kernel, logdet_score, make_scorer, normalize_kernel
from .search import SearchResult, area_search, naswot_search, rea_search
from .searchspace import parse_arch
from .stats import ABLATION_MODES, ablation_run, correlate_space, normal_batch_factory, normalize_by_min

__all__ = ["main"]

# every library error the CLI reports as one tagged line subclasses one
# of these (MissingFile is an OSError, the parse and input errors are
# ValueErrors)
_EXPECTED_ERRORS = (ValueError, OSError, EvaluatorMiss, NonFiniteActivation)

# preset name -> NetworkConfig constructor taking field overrides
_PRESETS = {"full": NetworkConfig, "desk": NetworkConfig.desk}


def _shape(text: str) -> tuple:
    return tuple(int(t) for t in text.replace("x", ",").split(","))


# every settable key: (value parser, default or None, argparse keywords
# of its flag --key-with-dashes, or None for a key only a config file
# sets); config files and flags feed through the same parser
_SETTINGS = {
    "seed": (int, 0, dict(help="master seed (split into arch/init/data streams)")),
    "batch_size": (int, 128, {}),
    "input": (str, "random", dict(help="batch source: random | cifar10:<dir>")),
    "bench": (str, None, dict(help="accuracy table CSV")),
    "dataset": (str, None, dict(help="dataset tag filter for --bench")),
    "n": (int, 100, dict(help="sample count")),
    "pool": (int, 20, dict(help="scored pool size")),
    "pop": (int, 10, dict(help="population size")),
    "tournament": (int, 5, {}),
    "budget": (int, 100, dict(help="total evaluations")),
    "seconds": (float, None, dict(help="time budget; needs --eval-cost")),
    "eval_cost": (float, None, dict(help="assumed seconds per evaluation for --seconds")),
    "jobs": (int, 1, dict(help="parallel scoring workers")),
    "out": (str, None, dict(help="output file path")),
    "mode": (str, None, dict(choices=ABLATION_MODES)),
    "repeats": (int, 20, {}),
    "metric": (str, "val_acc", dict(choices=["val_acc", "test_acc"])),
    "dump_kernel": (str, None, dict(choices=["raw", "normalized"])),
    "preset": (str, "full", dict(choices=sorted(_PRESETS), help="network size preset")),
    "stem_channels": (int, None, None),
    "cells_per_stage": (int, None, None),
    "input_shape": (_shape, None, None),
    "bn_epsilon": (float, None, None),
    "init_seed": (int, None, None),
}

# subcommand -> defaults that differ from _SETTINGS'
_SUB_DEFAULTS = {
    "correlate": {"n": 1000},
    "ablate": {"batch_size": 32},
    "dump-kernel": {"dump_kernel": "raw"},
}


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


def _parse_config_file(path: str, command: str, read: Sequence[str]) -> dict:
    entries: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        if key not in read:
            raise ValueError(f"{path}:{lineno}: {command} does not read setting {key!r}")
        try:
            entries[key] = _SETTINGS[key][0](value.strip())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value.strip()!r}") from None
    return entries


def _resolve_settings(args: argparse.Namespace) -> dict:
    """Only the keys the subcommand reads, so the output header echoes
    nothing the run ignored."""
    read = ("seed", "out", *_SUBCOMMANDS[args.command][3])
    settings = {key: _SETTINGS[key][1] for key in read if _SETTINGS[key][1] is not None}
    settings.update(_SUB_DEFAULTS.get(args.command, {}))
    if args.config:
        settings.update(_parse_config_file(args.config, args.command, read))
    for key in read:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    settings["subcommand"] = args.command
    if hasattr(args, "arch"):
        settings["arch"] = args.arch
    if args.command == "ablate" and "mode" not in settings:
        raise ValueError("ablate requires --mode")

    # one master seed, three independent streams: architecture
    # sampling, weight init, data sampling
    if settings["seed"] < 0:
        raise ValueError(f"seed must be an int >= 0, got {settings['seed']}")
    children = np.random.SeedSequence(settings["seed"]).spawn(3)
    arch_seed, init_seed, data_seed = (int(c.generate_state(1)[0]) for c in children)
    settings.update(_arch_seed=arch_seed, _data_seed=data_seed)
    if "init_seed" in read:
        settings.setdefault("init_seed", init_seed)
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
        evaluations = seconds / cost
        if not math.isfinite(evaluations):
            raise ValueError(f"--seconds / --eval-cost is too large a budget: {seconds!r} / {cost!r}")
        return max(settings["pop"], int(evaluations))
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


def _report_search(settings: dict, result: SearchResult, *, with_accuracy: bool) -> None:
    """Print the chosen candidate and write the run log."""
    chosen = result.chosen
    print(f"chosen {chosen.genotype}")
    if chosen.score is not None:
        print(f"status {chosen.score.status.name}")
        if chosen.score.is_valid:
            print(f"score {_fmt6(chosen.score.value)}")
    if with_accuracy:
        print(f"accuracy {_fmt6(chosen.accuracy)}")
    print(f"walltime {_fmt6(result.wall_time)}")
    _write_csv(settings, ["index", "arch", "score", "status", "accuracy"], _run_log_rows(result))


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


def _dump_kernel_csv(settings: dict, kernel: np.ndarray) -> None:
    matrix = kernel if settings["dump_kernel"] == "raw" else normalize_kernel(kernel)
    _write_csv(settings, None, ([repr(float(v)) for v in row] for row in matrix))


def _cmd_dump_kernel(settings: dict) -> int:
    _require_out(settings, "kernel dump")
    net, batch = _network_and_batch(settings)
    _dump_kernel_csv(settings, hamming_kernel(forward_collect_codes(net, batch)))
    return 0


def _cmd_search(settings: dict) -> int:
    jobs = settings["jobs"]
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    if settings["n"] < 1:
        raise ValueError("--n must be at least 1")
    config, batch = _config_and_batch(settings)
    result = naswot_search(settings["n"], make_scorer(config, batch), settings["_arch_seed"], jobs=jobs)
    _report_search(settings, result, with_accuracy=False)
    return 0


def _cmd_rea(settings: dict) -> int:
    table = _load_table(settings)
    evaluator = table.evaluator(settings["metric"])
    result = rea_search(evaluator, settings["pop"], settings["tournament"],
                        _resolve_budget(settings), settings["_arch_seed"])
    _report_search(settings, result, with_accuracy=True)
    return 0


def _cmd_area(settings: dict) -> int:
    table = _load_table(settings)
    evaluator = table.evaluator(settings["metric"])
    config, batch = _config_and_batch(settings)
    result = area_search(make_scorer(config, batch), evaluator, settings["pool"],
                         settings["pop"], settings["tournament"],
                         _resolve_budget(settings), settings["_arch_seed"])
    _report_search(settings, result, with_accuracy=True)
    return 0


def _cmd_correlate(settings: dict) -> int:
    table = _load_table(settings)
    config, batch = _config_and_batch(settings)
    report = correlate_space(table, make_scorer(config, batch), settings["n"], settings["_arch_seed"],
                             metric=settings["metric"])
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
            if key == "config":
                p.add_argument("--config", help="key=value settings file")
            elif _SETTINGS[key][2] is not None:
                value_type, _, flag = _SETTINGS[key]
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=value_type, **flag)
    return parser


if __name__ == "__main__":
    sys.exit(main())
