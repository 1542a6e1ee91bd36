"""Command-line front-end: analyze -> fit -> schedule/grid, plus permute.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import functools
import math
import sys

from . import corpus as corpus_mod
from . import estimator as est
from . import fit as fit_mod
from . import schedule as sched
from .jsonio import to_dict, write_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_DATA_ERRORS = (
    corpus_mod.CorpusError,
    est.EstimationError,
    fit_mod.FitError,
    sched.ScheduleError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the interface contract reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive_float(text):
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _layer_range(text):
    """Parse N or LO..HI into a list of layer counts."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")
    if hi > sched.MAX_STANDARD_LAYERS:
        raise argparse.ArgumentTypeError(
            f"layer counts must be <= {sched.MAX_STANDARD_LAYERS}, got {text!r}"
        )
    if lo < 1:
        raise argparse.ArgumentTypeError(f"layer counts must be >= 1, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"LO must not exceed HI, got {text!r}")
    return list(range(lo, hi + 1))


@functools.cache  # built once per process: main runs once per command
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; every call returns the same one, so leave it unmodified."""
    parser = _Parser(prog="midecay", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute an MI decay curve from a dataset")
    p.add_argument("--input", required=True, help="text file or IDX image file")
    p.add_argument("--mode", required=True, choices=corpus_mod.MODES)
    p.add_argument("--max-lag", required=True, type=_positive_int)
    p.add_argument("--min-pairs", type=_positive_int, default=est.EstimatorConfig.min_pair_count)
    p.add_argument("--bias-correction", default="none",
                   choices=[c.replace("_", "-") for c in est.BIAS_CORRECTIONS])
    p.add_argument("--out", required=True, help="curve CSV output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="classify the decay law of a curve CSV")
    p.add_argument("--curve", required=True, help="curve CSV from analyze")
    p.add_argument("--out", required=True, help="fit JSON output path")
    p.add_argument(
        "--threshold", type=_positive_float, default=fit_mod.DEFAULT_NOISE_THRESHOLD
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("schedule", help="derive one dilation schedule from a fit")
    p.add_argument("--fit", required=True, help="fit JSON from the fit command")
    p.add_argument("--layers", required=True, type=_positive_int)
    p.add_argument("--out", required=True, help="schedule JSON output path")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("grid", help="emit a grid-search spec of candidate schedules")
    p.add_argument("--fit", required=True, help="fit JSON from the fit command")
    p.add_argument("--layers", required=True, type=_layer_range, help="N or LO..HI")
    p.add_argument("--out", required=True, help="grid JSON output path")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("permute", help="apply a seeded position permutation to IDX images")
    p.add_argument("--input", required=True, help="IDX image file")
    p.add_argument("--seed", required=True, type=_nonnegative_int)
    p.add_argument("--inverse", action="store_true", help="apply the inverse permutation")
    p.add_argument("--out", required=True, help="IDX output path")
    p.set_defaults(func=cmd_permute)

    return parser


def cmd_analyze(args) -> int:
    if args.mode == "pixel":
        corpus = corpus_mod.load_idx_images(args.input)
    else:
        corpus = corpus_mod.load_text(args.input, args.mode)
    if args.max_lag >= corpus.max_length:
        raise est.EstimationError(
            f"max lag {args.max_lag} must be below the longest sequence "
            f"({corpus.max_length})"
        )
    config = est.EstimatorConfig(
        bias_correction=args.bias_correction.replace("-", "_"),
        min_pair_count=args.min_pairs,
    )
    grid = est.default_lag_grid(args.max_lag)
    curve = est.decay_curve(corpus, grid, config)
    curve.meta.update(command="analyze", input=str(args.input), max_lag=args.max_lag,
                      curve_csv=str(args.out))
    est.curve_to_csv(curve, args.out)
    if n_skipped := len(curve.meta["skipped_lags"]):
        print(f"warning: {n_skipped} lag(s) below min pair count were skipped", file=sys.stderr)
    print(f"wrote {curve.lags.size} curve points to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    curve = est.curve_from_csv(args.curve)
    fit = fit_mod.classify(curve, threshold=args.threshold)
    fit_mod.write_fit_json(fit, args.out)
    print(f"decay class {fit.decay_class.value}, wrote {args.out}")
    return EXIT_OK


def cmd_schedule(args) -> int:
    fit = fit_mod.read_fit_json(args.fit)
    schedule = sched.schedule_for(fit, args.layers)
    write_json({**to_dict(schedule), **sched.fit_summary(fit), "fit_json": str(args.fit)}, args.out)
    print(f"dilations {','.join(str(v) for v in schedule.dilations)}, wrote {args.out}")
    return EXIT_OK


def cmd_grid(args) -> int:
    fit = fit_mod.read_fit_json(args.fit)
    spec = sched.build_grid(fit, args.layers)
    sched.write_grid_json(spec, args.out)
    print(f"{len(spec.schedules)} candidate schedules, wrote {args.out}")
    return EXIT_OK


def cmd_permute(args) -> int:
    images, rows, cols = corpus_mod.read_idx_images(args.input)
    corpus = corpus_mod.permute(corpus_mod.Corpus((images,), 256, "pixel"), args.seed, args.inverse)
    corpus_mod.write_idx_images(args.out, corpus.sequences[0], rows, cols)
    print(f"wrote {images.shape[0]} permuted images to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"midecay: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
