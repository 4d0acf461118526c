"""Command-line entry point.

Commands mirror the corpus workflow: filter a manifest, fetch audio,
featurize, train, evaluate, transcribe single files, list suspect samples.
Machine-readable output goes to stdout (TSV lines or JSON), diagnostics to
stderr. Exit codes: 0 success, 1 operational failure (a model too large
to allocate among them), 2 usage or parse error. A JSON config file
presets train's settings, and explicit flags win; featurize takes none.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import analysis, corpus, dsp, training
from .ipa import INVENTORY
from .nn import INPUT_WIDTH
from .settings import printable

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

CONFIG_BLOCKS = ("train", "model", "norm", "features")
TRAIN_FLAGS = ("batch_size", "epochs", "eval_batches", "seed", "lr",
               "stop_at_eval_accuracy")


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _read_json(path, error: type[ValueError]):
    """The JSON value in the file at ``path``; a file that is not UTF-8
    JSON is an ``error`` naming it."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # not UTF-8, or not JSON
            raise error(f"{printable(path)} is not JSON: {e}") from e


def read_config(path: str | None, norm_path: Path,
                overrides: dict) -> training.TrainConfig:
    """The settings of train's ``--config`` file, checked whole by
    ``TrainConfig.from_dict``: its train block (with ``overrides`` laid over
    it) and its model, norm and features blocks. Without a norm block, the
    norm comes from ``norm_path`` if that file exists, a ValueError naming
    it if not a valid norm. An unknown top-level block, or a block nested
    in the train block, is a ConfigError."""
    file_config = {} if path is None else _read_json(path, training.ConfigError)
    training.require_object(file_config, f"config file {printable(path)}")
    unknown = sorted(printable(k) for k in set(file_config) - set(CONFIG_BLOCKS))
    if unknown:
        raise training.ConfigError(f"unknown config block(s): {', '.join(unknown)}")
    settings = dict(training.require_object(file_config.get("train", {}),
                                            "the train block"))
    nested = sorted(set(settings) & set(CONFIG_BLOCKS[1:]))
    if nested:  # checkpoint meta nests them; a config file has them on top
        raise training.ConfigError(f"unknown train key(s): {', '.join(nested)}")
    settings.update((block, file_config[block]) for block in CONFIG_BLOCKS[1:]
                    if block in file_config)
    if "norm" not in settings and norm_path.exists():
        settings["norm"] = _read_json(norm_path, ValueError)
        try:
            training.parse_settings(dsp.FeatureNorm, settings["norm"], "norm")
        except training.ConfigError as e:
            raise ValueError(f"{printable(norm_path)} is not a norm file: {e}") from e
    settings.update((k, v) for k, v in overrides.items() if v is not None)
    return training.TrainConfig.from_dict(settings)


def cmd_filter(args) -> int:
    try:
        pages = corpus.parse_manifest(args.manifest)
    except (corpus.MalformedRowError, corpus.ManifestIoError) as e:
        _err(f"manifest error: {e}")
        return EXIT_USAGE
    samples, stats = corpus.filter_samples(pages)
    corpus.write_samples_csv(args.out, samples)
    stats_dict = asdict(stats)
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as f:
            json.dump(stats_dict, f, indent=2, sort_keys=True)
    print(json.dumps(stats_dict, sort_keys=True))
    return EXIT_OK


def cmd_fetch(args) -> int:
    samples = corpus.read_samples_csv(args.samples)
    fetcher = corpus.Fetcher(min_interval=args.rate_limit)
    cache = Path(args.cache)
    failures = []
    seen = set()
    for sample in samples:
        name = sample.audio_filename
        if name in seen:
            continue
        seen.add(name)
        if (cache / name).exists():
            print(f"CACHED\t{printable(name)}")
            continue
        url = corpus.resolve_media_url(name)
        try:
            fetcher.fetch(url, cache, filename=name)
        except Exception as e:
            print(f"FAIL\t{printable(name)}\t{e}")
            failures.append({"filename": name, "url": url, "error": str(e)})
            continue
        print(f"OK\t{printable(name)}")
    if failures:
        with open(cache / "failures.json", "w", encoding="utf-8") as f:
            json.dump(failures, f, indent=2, sort_keys=True)
        _err(f"{len(failures)} download(s) failed")
        return EXIT_FAILURE
    return EXIT_OK


def cmd_featurize(args) -> int:
    samples = corpus.read_samples_csv(args.samples)
    if not samples:
        raise ValueError(f"{printable(args.samples)}: no samples")
    cache = Path(args.cache)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_features():
        for sample in samples:
            wav = cache / sample.audio_filename
            try:
                features = training.wav_features(wav)
            except training.StageError as e:
                # quoted, as a CSV field may hold a line break
                raise RuntimeError(f"{str(wav)!r}: {e}") from e
            dsp.save_features(out_dir / f"{sample.audio_filename}.phfm", features)
            print(f"{printable(sample.audio_filename)}\t"
                  f"{features.shape[0]}x{features.shape[1]}")
            yield features

    norm = dsp.compute_norm(write_features())  # sums each matrix as it is written
    with open(out_dir / "norm.json", "w", encoding="utf-8") as f:
        json.dump({"mean": norm.mean, "std": norm.std}, f, sort_keys=True)
    _err(f"featurized {len(samples)} file(s); norm mean={norm.mean} std={norm.std}")
    return EXIT_OK


def load_featurized(samples_csv, features_dir) -> list[training.FeaturizedSample]:
    """Join the kept-samples CSV with its feature files, each of which must
    hold the model's ``INPUT_WIDTH`` coefficients per frame."""
    samples = corpus.read_samples_csv(samples_csv)
    features_dir = Path(features_dir)
    out = []
    for s in samples:
        path = features_dir / f"{s.audio_filename}.phfm"
        features = dsp.load_features(path)
        if features.shape[1] != INPUT_WIDTH:
            raise ValueError(f"{printable(path)}: {features.shape[1]} coefficients "
                             f"per frame, the model reads {INPUT_WIDTH}")
        out.append(training.FeaturizedSample(
            word=s.word,
            audio_filename=s.audio_filename,
            label=[p.id for p in s.ipa],
            features=features,
        ))
    return out


def cmd_train(args) -> int:
    config = read_config(args.config, Path(args.features) / "norm.json",
                         {flag: getattr(args, flag) for flag in TRAIN_FLAGS})
    samples = load_featurized(args.samples, args.features)
    resume = training.Checkpoint.load(args.resume) if args.resume else None
    recorded = resume.thread_vars if resume is not None else None
    if isinstance(recorded, dict):  # a BLAS thread count can change the bytes
        now = training.thread_vars()
        changed = next((name for name in training.THREAD_VARS
                        if name in recorded and recorded[name] != now[name]), None)
        if changed is not None:
            _err(f"warning: {printable(args.resume)} was saved with {changed}="
                 f"{recorded[changed]!r}, now {now[changed]!r}; the resumed run "
                 "may not replay the uninterrupted one")
    _, metrics = training.train_run(
        samples, config, run_dir=args.run_dir, resume_from=resume,
        on_epoch=lambda entry: print(entry.to_json_line(), flush=True),
    )
    _err(f"trained {len(metrics.epochs)} epoch(s) "
         f"in {metrics.wall_time_seconds:.1f}s; run dir: {args.run_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    transcriber = training.Checkpoint.load(args.checkpoint).transcriber()
    samples = load_featurized(args.samples, args.features)
    if not samples:
        raise ValueError(f"{printable(args.samples)}: no samples")
    pairs = []
    for s in samples:
        try:
            ids = training.predict_ids(transcriber, s.features)
        except training.StageError as e:  # named as featurize names its WAV
            path = Path(args.features) / f"{s.audio_filename}.phfm"
            raise RuntimeError(f"{str(path)!r}: {e}") from e
        pairs.append(analysis.PredictionPair.build(
            word=s.word,
            audio_filename=s.audio_filename,
            target=[INVENTORY[i] for i in s.label],
            predicted=[INVENTORY[i] for i in ids],
        ))
    report = analysis.build_report(pairs)
    analysis.write_report_bundle(args.report_dir, report)
    print(json.dumps({
        "samples": report["sample_count"],
        "exact_match_accuracy": report["exact_match_accuracy"],
        "distance_mean": report["distance"]["mean"],
        "distance_std": report["distance"]["std"],
    }, sort_keys=True))
    return EXIT_OK


def cmd_infer(args) -> int:
    transcriber = training.Checkpoint.load(args.checkpoint).transcriber()
    failed = False
    for wav in args.wavfiles:
        name = printable(wav)
        try:
            _, ipa_text = training.infer(transcriber, wav)
        except training.StageError as e:
            _err(f"{name}\t{e}")
            failed = True
            continue
        print(f"{name}\t{ipa_text}")
    return EXIT_FAILURE if failed else EXIT_OK


SUSPECT_FIELDS = {"word": str, "target_ipa": str, "predicted_ipa": str,
                  "distance": int}


def _suspect_rows(path: Path) -> list[dict]:
    """The ``suspects`` rows of a ``report.json``; anything else in their
    place is a ValueError naming the file."""
    report = _read_json(path, ValueError)
    name = printable(path)
    rows = report.get("suspects") if isinstance(report, dict) else None
    if not isinstance(rows, list):
        raise ValueError(f"{name}: not a report: no 'suspects' list")
    for index, row in enumerate(rows):
        if not (isinstance(row, dict) and all(
                type(row.get(k)) is t for k, t in SUSPECT_FIELDS.items())):
            raise ValueError(f"{name}: suspect {index} is not an object with "
                             "string word, target_ipa and predicted_ipa and an "
                             "integer distance")
    return rows


def cmd_suspects(args) -> int:
    rows = _suspect_rows(Path(args.report_dir) / "report.json")
    if args.min_distance is not None:
        rows = [r for r in rows if r["distance"] >= args.min_distance]
    if args.top is not None:
        rows = rows[:args.top]
    for r in rows:
        print(f"{r['word']}\t{r['target_ipa']}\t{r['predicted_ipa']}"
              f"\t{r['distance']}")
    return EXIT_OK


def cmd_inventory(args) -> int:
    for p in INVENTORY:
        codepoints = " ".join(f"U+{ord(c):04X}" for c in p.symbol)
        print(f"{p.id}\t{p.symbol}\t{codepoints}")
    return EXIT_OK


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {value}")
    return value


MAX_RATE_LIMIT = 86400.0  # one day; time.sleep overflows near 9.2e9 s


def non_negative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be finite and 0 or more, not {text}")
    if value > MAX_RATE_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must be finite and 0 or more, at most {MAX_RATE_LIMIT:g}, not {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonoscribe",
        description="Transcribe single-word audio to IPA and audit corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="apply corpus restriction rules")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="kept-samples CSV")
    p.add_argument("--stats", help="filter statistics JSON")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("fetch", help="download missing audio files")
    p.add_argument("--samples", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--rate-limit", type=non_negative_float, default=0.0,
                   help="minimum seconds between requests")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("featurize", help="compute MFCC feature files")
    p.add_argument("--samples", required=True)
    p.add_argument("--cache", required=True, help="directory with WAV files")
    p.add_argument("--out", required=True, help="feature output directory")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--features", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--eval-batches", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--stop-at-accuracy", type=float, dest="stop_at_eval_accuracy")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint and write reports")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--report-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="transcribe WAV files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("wavfiles", nargs="+")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("suspects", help="list highest-distance samples")
    p.add_argument("--report-dir", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--min-distance", type=int)
    group.add_argument("--top", type=non_negative_int)
    p.set_defaults(func=cmd_suspects)

    p = sub.add_parser("inventory", help="print the phoneme inventory table")
    p.set_defaults(func=cmd_inventory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError) as e:
        _err(f"error: {e}")
        return EXIT_USAGE if isinstance(e, training.ConfigError) else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
