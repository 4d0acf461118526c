"""Corpus manifest parsing, sample filtering and audio retrieval.

The manifest is a UTF-8 CSV with header ``word,language,ipa_list,audio_list``
(RFC-4180 quoting); the two ``*_list`` cells hold ``|``-separated values.
Each row describes one dictionary page: a word with n candidate IPA
pronunciations and m recorded audio files.
"""

from __future__ import annotations

import csv
import hashlib
import os
import secrets
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .ipa import PhonemeSeq, UnknownSymbolError, render_ipa, tokenize_ipa

MANIFEST_HEADER = ["word", "language", "ipa_list", "audio_list"]
SAMPLES_HEADER = ["word", "audio", "ipa", "speaker"]
LIST_DELIMITER = "|"

MEDIA_BASE_URL = "https://upload.wikimedia.org/wikipedia/commons"

# Rules applied in this fixed order; a rejected (page, audio) pair is
# attributed to the first rule it fails.
FILTER_RULES = ("language", "single_ipa", "inventory", "length", "ll_audio")
LANGUAGE = "fra"
MIN_PHONEMES = 1
MAX_PHONEMES = 19


class ManifestIoError(OSError):
    """Corpus CSV unreadable (missing, or not valid UTF-8)."""


class MalformedRowError(ValueError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}")


class HttpError(Exception):
    def __init__(self, status: int, url: str):
        self.status = status
        super().__init__(f"HTTP {status} for {url}")


class FetchTimeoutError(Exception):
    pass


@dataclass
class PageRecord:
    word: str
    language: str
    ipa_pronunciations: list[str]
    audio_filenames: list[str]


@dataclass
class SampleRecord:
    word: str
    audio_filename: str
    ipa: PhonemeSeq
    speaker: str


@dataclass
class FilterStats:
    input_count: int = 0
    kept_count: int = 0
    rejected_by_rule: dict[str, int] = field(
        default_factory=lambda: {rule: 0 for rule in FILTER_RULES}
    )


def _split_list(cell: str) -> list[str]:
    return [v for v in cell.split(LIST_DELIMITER) if v] if cell else []


def _read_csv(path: str | Path,
              header: list[str]) -> list[tuple[int, list[str]]] | None:
    """The non-blank rows after ``header``, each with its line number;
    None for an empty file.

    A file that cannot be read as UTF-8 raises ManifestIoError; a wrong
    header or field count, or a row the CSV parser rejects, MalformedRowError.
    """
    rows: list[list[str]] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            for row in csv.reader(f):
                rows.append(row)
    except OSError as e:
        raise ManifestIoError(str(e)) from e
    except UnicodeDecodeError as e:
        raise ManifestIoError(f"not valid UTF-8: {e}") from e
    except csv.Error as e:
        raise MalformedRowError(len(rows) + 1, str(e)) from e

    if not rows:
        return None
    if rows[0] != header:
        raise MalformedRowError(1, f"expected header {','.join(header)}")
    numbered = [(i, row) for i, row in enumerate(rows[1:], start=2) if row]
    for line_no, row in numbered:
        if len(row) != len(header):
            raise MalformedRowError(
                line_no, f"expected {len(header)} fields, got {len(row)}")
    return numbered


def parse_manifest(path: str | Path) -> list[PageRecord]:
    """Read the manifest CSV; one PageRecord per row, IPA kept verbatim."""
    return [
        PageRecord(word, language, _split_list(ipa_cell), _split_list(audio_cell))
        for _, (word, language, ipa_cell, audio_cell)
        in _read_csv(path, MANIFEST_HEADER) or []
    ]


def is_plain_name(name: str) -> bool:
    """Not empty, ``.`` or ``..``, and holding no ``/`` or NUL: a name that
    stays inside the directory it is joined to."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name


def extract_speaker(audio_filename: str) -> str:
    """Speaker label from ``LL-<Qid> (<lang>)-<user>-<word>.<ext>`` names.

    Returns the text between the first ``)-`` and the next ``-``; a name
    not of that form is a ValueError.
    """
    if not audio_filename.startswith("LL-"):
        raise ValueError(audio_filename)
    head, sep, rest = audio_filename.partition(")-")
    if not sep:
        raise ValueError(audio_filename)
    user, sep, _ = rest.partition("-")
    if not sep or not user:
        raise ValueError(audio_filename)
    return user


def filter_samples(pages: Iterable[PageRecord]
                   ) -> tuple[list[SampleRecord], FilterStats]:
    """Apply the corpus restriction rules and expand pages into samples.

    One unit of accounting is a (page, audio file) pair. Page-level rules:
    the language tag must be LANGUAGE, the page must carry exactly one IPA
    pronunciation, that pronunciation must tokenize against the inventory,
    and its phoneme count must lie in [MIN_PHONEMES, MAX_PHONEMES]. Pair
    level: the audio file must be an LL recording with a plain file name
    (``is_plain_name``). A page with one IPA and
    several audio files yields several samples sharing that IPA.

    Speaker extraction failure does not reject a sample: the speaker is
    recorded as "unknown".
    """
    stats = FilterStats()
    kept: list[SampleRecord] = []
    for page in pages:
        page_rule = None
        ipa: PhonemeSeq = []
        if page.language != LANGUAGE:
            page_rule = "language"
        elif len(page.ipa_pronunciations) != 1:
            page_rule = "single_ipa"
        else:
            try:
                ipa = tokenize_ipa(page.ipa_pronunciations[0])
            except UnknownSymbolError:
                page_rule = "inventory"
            else:
                if not MIN_PHONEMES <= len(ipa) <= MAX_PHONEMES:
                    page_rule = "length"

        for audio in page.audio_filenames:
            stats.input_count += 1
            if page_rule is not None:
                stats.rejected_by_rule[page_rule] += 1
                continue
            if not (audio.startswith("LL-") and is_plain_name(audio)):
                stats.rejected_by_rule["ll_audio"] += 1
                continue
            try:
                speaker = extract_speaker(audio)
            except ValueError:
                speaker = "unknown"
            kept.append(SampleRecord(page.word, audio, list(ipa), speaker))
            stats.kept_count += 1
    return kept, stats


def resolve_media_url(audio_filename: str) -> str:
    """Deterministic download URL for a media filename.

    Follows the public media store's layout: spaces become underscores and
    the file lives under two directories derived from the MD5 hex digest of
    the underscored name.
    """
    name = audio_filename.replace(" ", "_")
    digest = hashlib.md5(name.encode("utf-8")).hexdigest()
    quoted = urllib.parse.quote(name, safe="()!*'-._~")
    return f"{MEDIA_BASE_URL}/{digest[0]}/{digest[:2]}/{quoted}"


FETCH_TIMEOUT_SECONDS = 30.0
FETCH_ATTEMPTS = 3
FETCH_BACKOFF_SECONDS = 0.5  # before the first retry; doubles per retry


def _urllib_transport(url: str) -> bytes:
    req = urllib.request.Request(url, headers={"User-Agent": "phonoscribe/0.1"})
    try:
        with urllib.request.urlopen(req, timeout=FETCH_TIMEOUT_SECONDS) as resp:
            return resp.read()
    except urllib.error.HTTPError as e:
        raise HttpError(e.code, url) from e
    except urllib.error.URLError as e:
        if isinstance(e.reason, TimeoutError):
            raise FetchTimeoutError(url) from e
        raise
    except TimeoutError as e:
        raise FetchTimeoutError(url) from e


class Fetcher:
    """Cached, rate-limited downloader with retry.

    ``transport`` is any callable ``url -> bytes``; tests inject stubs so no
    network is touched. Writes go to a unique temp file followed by an
    atomic rename, so concurrent fetchers may share a cache directory.
    """

    def __init__(
        self,
        transport: Callable[[str], bytes] | None = None,
        min_interval: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.transport = transport or _urllib_transport
        self.min_interval = min_interval
        self.sleep = sleep
        self.clock = clock
        self._last_request: float | None = None

    def _throttle(self) -> None:
        if self.min_interval <= 0 or self._last_request is None:
            return
        wait = self.min_interval - (self.clock() - self._last_request)
        if wait > 0:
            self.sleep(wait)

    def fetch(self, url: str, cache_dir: str | Path, filename: str) -> Path:
        """Return ``cache_dir / filename``, downloading ``url`` there only on
        a cache miss."""
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / filename
        if path.exists():
            return path

        last_error: Exception | None = None
        for attempt in range(FETCH_ATTEMPTS):
            if attempt > 0:
                self.sleep(FETCH_BACKOFF_SECONDS * 2 ** (attempt - 1))
            self._throttle()
            self._last_request = self.clock()
            try:
                data = self.transport(url)
            except (HttpError, FetchTimeoutError) as e:
                last_error = e
                continue
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
            try:  # path is replaced only by a whole file
                tmp.write_bytes(data)
                os.replace(tmp, path)
            finally:  # a no-op once replaced; else removes a partial file
                tmp.unlink(missing_ok=True)
            return path
        assert last_error is not None
        raise last_error


def write_samples_csv(path: str | Path, samples: Iterable[SampleRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SAMPLES_HEADER)
        for s in samples:
            writer.writerow([s.word, s.audio_filename, render_ipa(s.ipa), s.speaker])


def read_samples_csv(path: str | Path) -> list[SampleRecord]:
    """The kept samples; an audio name that is not ``is_plain_name`` (as
    commands join it to their directories) or an IPA that does not tokenize
    is a MalformedRowError naming the line."""
    rows = _read_csv(path, SAMPLES_HEADER)
    if rows is None:
        raise MalformedRowError(1, f"expected header {','.join(SAMPLES_HEADER)}")
    samples = []
    for line_no, (word, audio, ipa_text, speaker) in rows:
        if not is_plain_name(audio):
            raise MalformedRowError(
                line_no, f"audio {audio!r} is not a plain file name")
        try:
            ipa = tokenize_ipa(ipa_text)
        except UnknownSymbolError as e:
            raise MalformedRowError(line_no, f"ipa {ipa_text!r}: {e}") from e
        samples.append(SampleRecord(word, audio, ipa, speaker))
    return samples
