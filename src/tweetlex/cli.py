"""Command-line front end: classify a corpus, or sanity-check wordlists.

Only the readers open input paths, so pipes work. ``main`` maps their
errors to exit codes in ``_EXIT_CODES``: 0 success (including runs that
found no sentiment words), 2 bad usage or invalid option values, 3
unreadable input file, 4 unusable lexicon, 5 unwritable output path or
a stdout whose reader has gone (``tweetlex classify ... | true``).

A classify run that keeps at least two whole batches of tweets reads
the rest of the corpus in a second process where ``os.fork`` exists, so
that the read and the scoring run at the same time on two cores (see
_read_ahead). The child sends the scoring's own batches as pickles, and
of each tweet only what the scoring reads: its text, or, when a CSV is
written, its row head (every field of its CSV row before the hits: the
date, time, username and text, formatted and quoted in the child) and
its raw text, which the scoring tokenizes. Memory is then held by two
processes, each bounded by about one batch: one run over a 25,000-line
corpus peaked at 17.2 MB of RSS in the scoring process and 14.6 MB in
the reading one. Only this module forks: ``fetch`` and ``classify``
stay in the caller's process for library use.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import threading
import warnings
from contextlib import closing, nullcontext
from pathlib import Path

from . import scoring
from .corpus import DEFAULT_LIMIT, QueryFilter, ReadCounts, fetch, parse_utc
from .errors import (
    DroppedEntriesWarning,
    EmptyWordlistWarning,
    FileUnreadable,
    PathUnwritable,
    TweetlexError,
    UnusableLexicon,
)
from .lexicon import bundled_lexicon_dir, load_lexicon
from .report import DetailCsv, render_summary
from .scoring import DEFAULT_SPELL_THRESHOLD

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNREADABLE = 3
EXIT_BAD_LEXICON = 4
EXIT_UNWRITABLE = 5

_EXIT_CODES = {
    FileUnreadable: EXIT_UNREADABLE,
    UnusableLexicon: EXIT_BAD_LEXICON,
    PathUnwritable: EXIT_UNWRITABLE,
}


def _diagnose(line: str) -> None:
    """Print line on sys.stderr, or drop it where there is none (fd 2 closed)."""
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def _fail(code: int, message) -> int:
    _diagnose(f"error: {message}")
    return code


def _print_warning(message, category, filename, lineno, file=None, line=None):
    _diagnose(f"warning: {message}")


def _read_ahead(records, counts: ReadCounts, path, detail):
    """The lists that scoring._batches(records, detail) yields, for
    scoring._classify_batches: of each tweet, its text, or, with a
    detail CSV, its row head (its CSV row up to the hit fields, the text
    field included) and its raw text. Past the second list, they are
    read, and the heads made, in a forked child.

    The first two lists are drawn here before either is yielded, so that
    a child starts reading before the first list is scored; if drawing
    the second raises, the first is yielded and then the error raised,
    as when each list is drawn after the one before is scored. If the
    second is as long as the first, so that the read has not ended,
    os.fork exists and no other Python thread is alive (a fork can
    deadlock on a lock that another thread holds), a child draws the
    rest of the lists and sends them through a pipe while this process
    scores the first two and then the rest as they arrive; the pipe
    blocks the child when the scoring falls behind. Otherwise, or if the
    fork fails, the rest are drawn here. The child turns gc off and ends
    with os._exit, so it never flushes a buffer it inherited: output
    written before the fork is written once, by this process.
    The child's final counts are stored in ``counts``, and a read that
    fails in the child raises the same FileUnreadable here, after the
    same lists. Closing this generator kills a child that has not
    finished, and reaps it either way.
    """
    batches = scoring._batches(records, detail)
    first = next(batches, None)
    if first is None:
        return
    try:
        second = next(batches, [])
    except Exception:
        yield first
        raise
    pid = None
    if len(second) == len(first) and hasattr(os, "fork") and threading.active_count() == 1:
        # imported before the fork, so that the child finds pickle loaded
        import pickle
        import signal

        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
    if pid is None:
        yield first
        if second:
            yield second
            yield from batches
        return
    if not pid:
        try:
            os.close(read_end)
            # finalizing the parent's garbage here could flush its buffers
            gc.disable()
            with open(write_end, "wb") as pipe:
                _send_rest(batches, counts, pipe)
        finally:
            # no atexit handler, and no flush of a buffer the parent holds
            os._exit(0)
    os.close(write_end)
    # the parent's copy of the file closes, and counts.valid is the head's
    # until the child's counts arrive
    records.close()
    finished = False
    try:
        # back-to-back protocol-5 pickles: lists, then a counts tuple or an error string
        with open(read_end, "rb") as pipe:
            yield first
            yield second
            while True:
                try:
                    message = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise FileUnreadable(
                        f"cannot read corpus {path}: its reading process ended early"
                    ) from None
                if isinstance(message, list):
                    yield message
                    continue
                finished = True
                if isinstance(message, str):
                    raise FileUnreadable(message)
                counts.valid, counts.skipped, counts.json_array = message
                return
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _send_rest(batches, counts: ReadCounts, pipe) -> None:
    """In the reading child: pickle each list that batches yields to
    pipe, then the final counts; or, if the read fails, its message."""
    from pickle import dump

    try:
        for batch in batches:
            dump(batch, pipe, 5)
            pipe.flush()
    except FileUnreadable as exc:
        dump(str(exc), pipe, 5)
    else:
        dump((counts.valid, counts.skipped, counts.json_array), pipe, 5)


def run_classify(args, query: QueryFilter) -> int:
    """Score the corpus that args names in one pass and print the
    summary after it.

    The corpus is opened first, then the CSV, so a missing corpus leaves
    an existing CSV untouched. Each tweet is scored, written to the CSV
    and counted as ``fetch`` reads it, a batch at a time; past two whole
    batches the read runs in a second process, which sends the parent
    only each tweet's text, or its row head and text when a CSV is
    written (see _read_ahead). Nothing is printed on stdout until the
    pass has ended, so a failed run prints no summary.
    """
    lexicon = load_lexicon(*_lexicon_paths(args))
    records, counts = fetch(args.corpus, query, args.limit)
    out_csv = args.out_csv
    with (
        DetailCsv(out_csv) if out_csv is not None else nullcontext() as detail,
        closing(_read_ahead(records, counts, args.corpus, detail)) as batches,
    ):
        result = scoring._classify_batches(
            batches, query.keyword, lexicon, args.spell_correct, detail
        )
        if not counts.valid:
            _diagnose(
                f"note: corpus {args.corpus} has no valid records "
                f"({counts.skipped} malformed lines skipped)"
            )
            if counts.json_array:
                _diagnose(
                    "  it looks like one JSON array; one JSON object per line is expected"
                )
        elif counts.skipped:
            _diagnose(f"note: skipped {counts.skipped} malformed corpus lines")
    if detail is not None:
        _diagnose(f"note: wrote {result.tweets_scored} detail rows to {out_csv}")
    # flushed here, so a closed stdout fails inside main and not at exit
    print(render_summary(result), flush=True)
    return EXIT_OK


def run_lexicon_check(positive_path, negative_path, negators_path) -> int:
    """Load the lexicon and print per-list counts and what loading removed."""
    lexicon = load_lexicon(positive_path, negative_path, negators_path)
    positive, negative = len(lexicon.positive_words), len(lexicon.negative_words)
    summary = lexicon.source_summary
    print(f"positive words:    {positive}")
    print(f"negative words:    {negative}")
    print(f"negators:          {len(lexicon.negators)}")
    print(f"conflicts removed: {summary.conflicts}")
    print(f"duplicate entries: {summary.duplicates}")
    print(f"dropped entries:   {summary.dropped}")
    print(f"total sentiment words: {positive + negative}", flush=True)
    return EXIT_OK


def _utc_arg(value: str):
    try:
        return parse_utc(value)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad timestamp {value!r}: {exc}")


def _bbox_arg(value: str):
    parts = value.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "bbox must be minlat,minlon,maxlat,maxlon"
        )
    try:
        return tuple(float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bbox has non-numeric parts: {value!r}")


def _add_lexicon_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lexicon-dir",
        type=Path,
        default=bundled_lexicon_dir(),
        help="directory holding positive.txt, negative.txt, negators.txt "
        "(default: bundled wordlists)",
    )
    parser.add_argument("--positive-words", type=Path, help="override positive list")
    parser.add_argument("--negative-words", type=Path, help="override negative list")
    parser.add_argument("--negators", type=Path, help="override negator list")


def _lexicon_paths(args) -> tuple[Path, Path, Path]:
    """The positive, negative and negator wordlist paths that args names."""
    base = args.lexicon_dir
    return (
        args.positive_words or base / "positive.txt",
        args.negative_words or base / "negative.txt",
        args.negators or base / "negators.txt",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetlex",
        description="Score short social-media posts against sentiment wordlists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser(
        "classify", help="classify a corpus and print a sentiment summary"
    )
    classify.add_argument("--query", required=True, help="keyword, hashtag, or phrase")
    classify.add_argument(
        "--corpus", type=Path, required=True, help="JSON-lines corpus file"
    )
    classify.add_argument(
        "--since", type=_utc_arg, help="keep tweets at or after this time (ISO-8601)"
    )
    classify.add_argument(
        "--until", type=_utc_arg, help="keep tweets strictly before this time"
    )
    classify.add_argument(
        "--bbox",
        type=_bbox_arg,
        help="keep located tweets inside minlat,minlon,maxlat,maxlon",
    )
    classify.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_LIMIT,
        help=f"maximum tweets to score (default {DEFAULT_LIMIT})",
    )
    _add_lexicon_flags(classify)
    classify.add_argument(
        "--spell-correct",
        nargs="?",
        type=float,
        const=DEFAULT_SPELL_THRESHOLD,
        metavar="RATIO",
        help="map unknown tokens to their closest lexicon word at similarity "
        f"RATIO in [0, 1] before scoring (RATIO default {DEFAULT_SPELL_THRESHOLD})",
    )
    classify.add_argument(
        "--out-csv", type=Path, help="write a per-tweet detail CSV here"
    )

    check = sub.add_parser("lexicon-check", help="load wordlists and print counts")
    _add_lexicon_flags(check)
    return parser


def _discard_stdout() -> None:
    """Point the descriptor behind sys.stdout at /dev/null, if it has one."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # each wordlist warning becomes one "warning:" line, printed as it occurs
        warnings.simplefilter("always", EmptyWordlistWarning)
        warnings.simplefilter("always", DroppedEntriesWarning)
        warnings.showwarning = _print_warning
        try:
            if args.command == "lexicon-check":
                return run_lexicon_check(*_lexicon_paths(args))
            if args.spell_correct is not None and not 0.0 <= args.spell_correct <= 1.0:
                return _fail(EXIT_USAGE, "--spell-correct must be within [0, 1]")
            if args.limit <= 0:
                return _fail(EXIT_USAGE, "--limit must be positive")
            # the CSV is truncated when opened, so it must not be an input
            if args.out_csv is not None and os.path.isfile(args.out_csv):
                for path in (args.corpus, *_lexicon_paths(args)):
                    if os.path.exists(path) and os.path.samefile(path, args.out_csv):
                        return _fail(EXIT_USAGE, f"--out-csv would overwrite {path}")
            try:
                query = QueryFilter(
                    keyword=args.query,
                    since=args.since,
                    until=args.until,
                    bbox=args.bbox,
                )
            except ValueError as exc:
                return _fail(EXIT_USAGE, exc)
            return run_classify(args, query)
        except BrokenPipeError as exc:
            # the reader of stdout is gone; the flush at exit must not fail
            # too, so the process's own stdout now writes to /dev/null (a
            # stream a caller put in sys.stdout is left as it is)
            if sys.stdout is sys.__stdout__:
                _discard_stdout()
            return _fail(EXIT_UNWRITABLE, f"cannot write to stdout: {exc}")
        except TweetlexError as exc:
            return _fail(_EXIT_CODES[type(exc)], exc)


if __name__ == "__main__":
    sys.exit(main())
