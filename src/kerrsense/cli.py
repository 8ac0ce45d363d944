"""Command-line entry point.

Each subcommand names an experiment; flags control input config, output
location/format, and Fock dimension policy; -v prints the package's DEBUG
log lines to stderr.  --threads is accepted (>= 1) but has no effect: every
experiment, and every BLAS call in it, runs in the calling thread, since
importing the package pins OpenBLAS to one thread.  --with-k3 exists only on
the experiments with a chi2inv_3 column (fig2, fig3, custom), and wigner
writes JSON only (--format json, its default).  Exit codes:
0 success, 1 computation error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from pathlib import Path

from . import harness
from .config import ConfigError, default_config, parse_config
from .dynamics import NoInteriorMinimumError
from .fock import TruncationError

_EXPERIMENT_HELP = {
    "fig1": "V_min(t) traces over delta and kerr plus the optimal-squeezing table",
    "fig2": "sensitivity maps over (delta, epsilon) at fixed Kt",
    "fig3": "sensitivities vs Kt per loss rate, with Wigner snapshots",
    "scaling": "F_Q(N) series and slope fits per epsilon",
    "loss-robustness": "per-gamma maxima of the sensitivities over Kt",
    "custom": "cross product of the config axes (config file required)",
    "wigner": "Wigner function of one prepared state (JSON output)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrsense",
        description=(
            "Squeezed Kerr oscillator: squeezing dynamics, displacement "
            "sensitivities, and phase-space snapshots"
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name, help_text in _EXPERIMENT_HELP.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(
            "--config", type=Path, default=None, help="config file of key = value lines"
        )
        sp.add_argument(
            "--out",
            type=Path,
            default=None,
            help="output path (default: 'output' config key, else <experiment>.<format>)",
        )
        formats = ("json",) if name == "wigner" else ("csv", "json")
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument(
            "--dim", default="auto", help="Fock dimension: positive integer or 'auto'"
        )
        sp.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility (must be >= 1); has no effect: "
            "everything, BLAS included, runs in one thread",
        )
        if name in harness.WITH_K3_EXPERIMENTS:
            sp.add_argument(
                "--with-k3",
                action="store_true",
                dest="with_k3",
                help="also compute the third-order moment sensitivity column",
            )
        sp.add_argument(
            "-v",
            "--verbose",
            action="store_true",
            help="print the kerrsense DEBUG log (dims tried, Lindblad blocks) to stderr",
        )
    return parser


def _parse_dim(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        dim = int(text)
    except ValueError:
        raise ConfigError(f"--dim must be an integer or 'auto', got {text!r}") from None
    if dim < 2:
        raise ConfigError(f"--dim must be at least 2, got {dim}")
    return dim


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log, handler = logging.getLogger("kerrsense"), logging.StreamHandler(sys.stderr)
    level = log.level
    if args.verbose:
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        if args.config is not None:
            cfg = parse_config(args.config.read_text(), experiment=args.experiment)
        else:
            cfg = default_config(args.experiment)
        dim = _parse_dim(args.dim)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.out is not None:
            out = args.out
        elif cfg.output is not None:
            out = Path(cfg.output)
        else:
            out = Path(f"{args.experiment}.{args.format}")
        if not out.parent.is_dir():  # before the computation, not after it
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out))
        for path in harness.output_paths(cfg.experiment, out, args.format):
            if path.is_dir():  # emit could not write it, and only after the run
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        result = harness.run_experiment(cfg, dim=dim, with_k3=getattr(args, "with_k3", False))
        written = harness.emit(result, out, fmt=args.format)
        for path in written:
            print(path)
        return 0
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        TruncationError,
        NoInteriorMinimumError,
        harness.ScalingFitError,
        harness.SensitivityOrderingError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
