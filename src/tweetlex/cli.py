"""Command-line front end: classify a corpus, or sanity-check wordlists.

Only the readers open input paths, so pipes work. ``main`` maps their
errors to exit codes in ``_EXIT_CODES``: 0 success (including runs that
found no sentiment words), 2 bad usage or invalid option values, 3
unreadable input file, 4 unusable lexicon, 5 unwritable output path or
a stdout whose reader has gone (``tweetlex classify ... | true``).

A classify run reads its corpus as chunks of whole lines, about _CHUNK
(256 KiB) each, and parses, filters and scores each chunk on its own;
the chunks' hit totals, read counts and CSV rows are summed and written
in file order (see _Split). Where ``os.fork`` exists, a run whose
corpus goes on past its first chunk forks one child, so that the two
processes score on two cores: this process reads the corpus and sends
the bytes of every other chunk through a pipe, and the child sends back
each chunk's totals and counts and, when a CSV is written, its rows as
one string. A run whose corpus ends inside its first chunk, one whose
limit falls in it, one made while another thread is alive, and one
where os.fork is missing or fails score every chunk in this process.
Each process holds a few chunks at a time: one run over a 25,000-line
corpus with a CSV peaked at 20.1 MB of RSS in this process and 18.2 MB
in the child, most of it pages that the two share after the fork. Only
this module forks: ``fetch`` and ``classify`` stay in the caller's
process for library use.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import threading
import warnings
from collections import deque
from contextlib import closing, nullcontext
from functools import partial
from io import BytesIO
from itertools import count
from pathlib import Path

from . import corpus, scoring
from .corpus import DEFAULT_LIMIT, QueryFilter, ReadCounts, parse_utc
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

# The corpus is read in chunks of whole lines, each from a read of this
# many bytes; in a forked run, the two processes score alternate chunks.
_CHUNK = 4 * corpus._BLOCK

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


def _score_chunk(chunk: bytes, limit: int, detail, *, query: QueryFilter, lexicon,
                 threshold) -> tuple:
    """(tweets scored, positive hits, negative hits, valid records,
    skipped lines, json_array) of the tweets that query keeps among the
    lines of chunk, up to limit of them, as ``classify`` scores them with
    the spell threshold (each row written to detail, if it is not None);
    the counts are those of a ReadCounts that read chunk alone."""
    counts = ReadCounts()
    records = corpus._scan((BytesIO(chunk),), query, limit, counts)
    result = scoring._classify_batches(
        scoring._batches(records, detail), query.keyword, lexicon, threshold, detail
    )
    return (result.tweets_scored, result.total_positive, result.total_negative,
            counts.valid, counts.skipped, counts.json_array)


class _Tally:
    """The sum of chunks' _score_chunk results, added in file order, and
    the limit left. The read's json_array hint is that of the first chunk
    with a line that is not blank."""

    __slots__ = ("left", "tweets", "positive", "negative", "counts")

    def __init__(self, limit: int):
        self.left = limit
        self.tweets = self.positive = self.negative = 0
        self.counts = ReadCounts()

    def add(self, result: tuple) -> bool:
        """Add one chunk's result; whether the limit is now reached."""
        tweets, positive, negative, valid, skipped, json_array = result
        counts = self.counts
        if not (counts.valid or counts.skipped):
            counts.json_array = json_array
        counts.valid += valid
        counts.skipped += skipped
        self.tweets += tweets
        self.positive += positive
        self.negative += negative
        self.left -= tweets
        return not self.left


class _LimitReached(Exception):
    """The chunks added so far reach the run's limit: none is read after."""


def _ready(handle) -> bool:
    """Whether input is ready on handle, so that a read of it returns at
    once (a regular file's always is)."""
    from select import POLLIN, poll

    # poll, unlike select, takes a descriptor of any number
    waiting = poll()
    waiting.register(handle, POLLIN)
    return bool(waiting.poll(0))


class _Split:
    """One classify run over the chunks of the corpus at path, scored by
    score, a _score_chunk with its keyword arguments bound, with the
    limit left, and added in file order into tally, a _Tally, until the
    limit is reached.

    Once this process has read the second chunk, a child from _fork
    scores every other chunk from the second on, and this process the
    others. A first chunk with at least as many lines as the limit, which
    its tweets can reach, is scored before the second is read, so a run
    whose limit falls in it reads no further and never forks; the child
    then scores every other chunk from the third on.

    A chunk is pending from its read until its result is added, in file
    order. Each child chunk is sent before this process scores the chunk
    before it. With a CSV, this process reads a child chunk's result,
    whose rows can fill a pipe, before it sends the next chunk, so neither
    process waits on a full pipe that the other is not reading. Without
    one, a result is about 100 bytes: the child holds two chunks, so that
    it has the next to score while this process reads, and this process
    scores its own chunk before the child's result before it comes, with
    the limit left so far. The child scores with the whole limit. So the
    one chunk, of either process, whose tweets reach the limit left when
    its result is added is scored again here, with that limit.

    A chunk is read while others are pending only if the read returns at
    once: before_read, which the corpus reader calls before each read,
    adds every pending chunk first where no input is ready, so a run
    never waits on a pipe for input past the chunk that reaches its
    limit. The child is killed and reaped on every way out of run.
    """

    def __init__(self, score, limit: int, path):
        self.score, self.limit, self.path = score, limit, path
        self.tally = _Tally(limit)
        self.detail = None
        self.child = None
        self.held = 0  # chunks sent to the child whose results are not read
        # [chunk, whether the child scores it, result if scored ahead], in
        # file order
        self.pending = deque()
        # whether a chunk may be read while others are pending
        self.ahead = hasattr(os, "fork")

    def before_read(self, handle) -> None:
        """Add every pending chunk before a read that could wait for input."""
        if self.pending and not (self.ahead and _ready(handle)):
            self.settle()

    def run(self, chunks, detail) -> _Tally:
        """The tally of the chunks, corpus._file_chunks with before_read,
        their rows written to detail, if it is not None."""
        self.detail = detail
        depth = 1 if detail is not None else 2
        pending = self.pending
        first = 0  # the chunk before the child's first
        try:
            for index in count():
                try:
                    chunk = next(chunks, None)
                except FileUnreadable:
                    # the chunks before a failed read are added first, as
                    # in one process
                    self.settle()
                    raise
                if chunk is None:
                    break
                if index == first + 1:
                    self.child = _fork(self.score, self.limit, detail is not None,
                                       self.path)
                    self.ahead = self.child is not None
                with_child = self.child is not None and (index - first) % 2 == 1
                if with_child:
                    self.child.send(chunk)
                    self.held += 1
                pending.append([chunk, with_child, None])
                if not self.ahead:
                    self.settle()
                elif not index and chunk.count(b"\n") >= self.limit:
                    # a first chunk with as many lines as the limit is
                    # scored before the next read, so that a run whose
                    # limit it reaches never forks
                    self.settle()
                    first = 1
                elif with_child:
                    if detail is None:
                        # with no rows to keep in order, this process's
                        # chunks are scored now, with the limit left so far,
                        # while the child scores its own
                        for entry in pending:
                            if not entry[1] and entry[2] is None:
                                entry[2] = self.score(entry[0], self.tally.left, None)
                    # then added, after the child's results while it holds
                    # depth chunks
                    while pending and not (pending[0][1] and self.held < depth):
                        self._add(*pending.popleft())
            self.settle()
        except _LimitReached:
            pass
        finally:
            if self.child is not None:
                self.child.close()
        return self.tally

    def settle(self) -> None:
        """Add every pending chunk; on an error, the rest are dropped."""
        pending = list(self.pending)
        self.pending.clear()
        for entry in pending:
            self._add(*entry)

    def _add(self, chunk: bytes, with_child: bool, result) -> None:
        """Add the chunk's result: the child's, one scored ahead, or one
        scored now."""
        tally, detail = self.tally, self.detail
        rows = None
        if with_child:
            self.held -= 1
            *result, rows = self.child.receive()
        if result is None or result[0] >= tally.left:
            # not scored yet, or scored with a larger limit (the child's
            # whole limit, or the limit left when it was scored ahead) that
            # let its counts go on past the limit left
            result = self.score(chunk, tally.left, detail)
        elif rows:
            detail._write_rows(rows)
        if tally.add(result):
            raise _LimitReached


def _fork(score, limit: int, with_rows: bool, path):
    """A _Child that scores the chunks sent to it with score and limit,
    for the corpus at path; or None where os.fork is missing, another
    Python thread is alive (a fork can deadlock on a lock that another
    thread holds), or the fork fails.

    The child turns gc off and ends with os._exit, so it never flushes a
    buffer it inherited: output written before the fork is written once,
    by this process.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return None
    # imported before the fork, so that the child finds it loaded
    import pickle  # noqa: F401

    down, up = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (*down, *up):
            os.close(fd)
        return None
    if not pid:
        try:
            os.close(down[1])
            os.close(up[0])
            # finalizing the parent's garbage here could flush its buffers
            gc.disable()
            with open(down[0], "rb") as source, open(up[1], "wb") as sink:
                _serve(source, sink, score, limit, with_rows)
        finally:
            # no atexit handler, and no flush of a buffer the parent holds
            os._exit(0)
    os.close(down[0])
    os.close(up[1])
    return _Child(pid, open(down[1], "wb"), open(up[0], "rb"), path)


def _serve(source, sink, score, limit: int, with_rows: bool) -> None:
    """In the child: for each chunk that source sends, until it ends,
    send sink the chunk's score result with limit, followed by its CSV
    rows as one string when with_rows is set, else None."""
    from pickle import dump, load

    while True:
        try:
            chunk = load(source)
        except EOFError:
            return
        rows = DetailCsv._buffer() if with_rows else None
        result = score(chunk, limit, rows)
        dump((*result, rows and rows._handle.getvalue()), sink, 5)
        sink.flush()


class _Child:
    """The parent's end of a child from _fork: back-to-back protocol-5
    pickles, chunk bytes going down and result tuples coming up."""

    def __init__(self, pid: int, down, up, path):
        self.pid, self.down, self.up, self.path = pid, down, up, path

    def send(self, chunk: bytes) -> None:
        from pickle import dump

        try:
            dump(chunk, self.down, 5)
            self.down.flush()
        except BrokenPipeError:
            pass  # the child has ended, which the next receive raises

    def receive(self) -> tuple:
        from pickle import UnpicklingError, load

        try:
            return load(self.up)
        except (EOFError, UnpicklingError):
            raise FileUnreadable(
                f"cannot read corpus {self.path}: its second process ended early"
            ) from None

    def close(self) -> None:
        """Kill the child, reap it and close the pipes."""
        from signal import SIGKILL

        os.kill(self.pid, SIGKILL)
        os.waitpid(self.pid, 0)
        self.up.close()
        try:
            self.down.close()
        except BrokenPipeError:
            pass  # a chunk that the child never read


def run_classify(args, query: QueryFilter) -> int:
    """Score the corpus that args names in one pass and print the
    summary after it.

    The corpus is opened first, then the CSV, so a missing corpus leaves
    an existing CSV untouched. The corpus is read, and its tweets scored,
    written to the CSV and counted, a chunk at a time, in two processes
    where it can fork (see _Split). Nothing is printed on stdout until
    the pass has ended, so a failed run prints no summary.
    """
    lexicon = load_lexicon(*_lexicon_paths(args))
    # built before a fork, so that the two processes share it
    scoring._marked_table(lexicon)
    score = partial(
        _score_chunk, query=query, lexicon=lexicon, threshold=args.spell_correct
    )
    split = _Split(score, args.limit, args.corpus)
    chunks = corpus._file_chunks(args.corpus, _CHUNK, split.before_read)
    next(chunks)
    out_csv = args.out_csv
    with (
        closing(chunks),
        DetailCsv(out_csv) if out_csv is not None else nullcontext() as detail,
    ):
        tally = split.run(chunks, detail)
        counts = tally.counts
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
        _diagnose(f"note: wrote {tally.tweets} detail rows to {out_csv}")
    result = scoring._result(query.keyword, tally.tweets, tally.positive, tally.negative)
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
