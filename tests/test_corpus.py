import csv
import http.server
import socket
import threading
import urllib.error

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phonoscribe import corpus
from phonoscribe.corpus import (
    Fetcher,
    HttpError,
    FetchTimeoutError,
    MalformedRowError,
    ManifestIoError,
    PageRecord,
    extract_speaker,
    filter_samples,
    parse_manifest,
    read_samples_csv,
    resolve_media_url,
    write_samples_csv,
)
from phonoscribe.ipa import UnknownSymbolError, render_ipa

BONJOUR_AUDIO = "LL-Q150 (fra)-LoquaxFR-bonjour.wav"
# Recorded once from the media store's hash-prefixed path convention.
BONJOUR_URL = (
    "https://upload.wikimedia.org/wikipedia/commons/a/a5/"
    "LL-Q150_(fra)-LoquaxFR-bonjour.wav"
)


def write_manifest(path, rows):
    lines = ["word,language,ipa_list,audio_list"] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestParseManifest:
    def test_bonjour_row(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [f'bonjour,fra,bɔ̃ʒuʁ,"{BONJOUR_AUDIO}"'])
        pages = parse_manifest(manifest)
        assert len(pages) == 1
        page = pages[0]
        assert page.word == "bonjour"
        assert page.ipa_pronunciations == ["bɔ̃ʒuʁ"]
        assert page.audio_filenames == [BONJOUR_AUDIO]

    def test_empty_file(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("", encoding="utf-8")
        assert parse_manifest(manifest) == []

    def test_header_only(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [])
        assert parse_manifest(manifest) == []

    def test_multi_valued_cells(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, ["coût,fra,ku|kut,a.wav|b.wav|c.wav"])
        page = parse_manifest(manifest)[0]
        assert len(page.ipa_pronunciations) == 2
        assert len(page.audio_filenames) == 3

    def test_malformed_row_reports_line(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, ["ok,fra,a,x.wav", "too,few"])
        with pytest.raises(MalformedRowError) as err:
            parse_manifest(manifest)
        assert err.value.line_no == 3

    def test_bad_header(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("nope,nope\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            parse_manifest(manifest)

    def test_non_utf8(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(b"word,language,ipa_list,audio_list\n\xff\xfe,x,y,z\n")
        with pytest.raises(ManifestIoError):
            parse_manifest(manifest)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestIoError):
            parse_manifest(tmp_path / "absent.csv")


def page(word="bonjour", language="fra", ipa=("bɔ̃ʒuʁ",),
         audio=(BONJOUR_AUDIO,)):
    return PageRecord(word, language, list(ipa), list(audio))


class TestFilterSamples:
    def test_bonjour_kept_with_speaker(self):
        kept, stats = filter_samples([page()])
        assert len(kept) == 1
        sample = kept[0]
        assert sample.word == "bonjour"
        assert sample.speaker == "LoquaxFR"
        assert render_ipa(sample.ipa) == "bɔ̃ʒuʁ"
        assert stats.kept_count == 1
        assert stats.input_count == 1

    def test_twenty_phonemes_rejected_by_length(self):
        kept, stats = filter_samples([page(ipa=("ab" * 10,))])
        assert kept == []
        assert stats.rejected_by_rule["length"] == 1

    def test_nineteen_phonemes_kept(self):
        kept, _ = filter_samples([page(ipa=("a" + "ba" * 9,))])
        assert len(kept) == 1
        assert len(kept[0].ipa) == 19

    def test_ten_record_fixture(self):
        # One violation per rule plus clean rows; hand-applied rules keep 5.
        pages = [
            page(word="clean1"),
            page(word="english", language="eng"),
            page(word="clean2", ipa=("ku",)),
            page(word="twoipa", ipa=("ku", "kut")),
            page(word="clean3", ipa=("ato",)),
            page(word="badsymbol", ipa=("bra",)),
            page(word="clean4", ipa=("mitasɑ̃tʁɑ̃mzɔt",)),
            page(word="toolong", ipa=("ab" * 10,)),
            page(word="clean5", ipa=("wi",)),
            page(word="notll", audio=("bonjour.wav",)),
        ]
        kept, stats = filter_samples(pages)
        assert [s.word for s in kept] == [
            "clean1", "clean2", "clean3", "clean4", "clean5"
        ]
        for s in kept:  # every kept sample honors its own invariants
            assert 1 <= len(s.ipa) <= 19
            assert s.audio_filename.startswith("LL-")
        assert stats.input_count == 10
        assert stats.kept_count == 5
        assert stats.rejected_by_rule == {
            "language": 1,
            "single_ipa": 1,
            "inventory": 1,
            "length": 1,
            "ll_audio": 1,
        }

    def test_first_failing_rule_wins(self):
        # Fails language AND length; attributed to language only.
        kept, stats = filter_samples([page(language="eng", ipa=("ab" * 10,))])
        assert stats.rejected_by_rule["language"] == 1
        assert stats.rejected_by_rule["length"] == 0

    def test_multiple_audio_share_single_ipa(self):
        audios = (
            "LL-Q150 (fra)-A-x.wav",
            "LL-Q150 (fra)-B-x.wav",
            "LL-Q150 (fra)-C-x.wav",
        )
        kept, stats = filter_samples([page(audio=audios)])
        assert [s.speaker for s in kept] == ["A", "B", "C"]
        assert len({render_ipa(s.ipa) for s in kept}) == 1
        assert stats.input_count == 3

    def test_empty_ipa_rejected_by_length(self):
        kept, stats = filter_samples([page(ipa=("...",))])
        assert kept == []
        assert stats.rejected_by_rule["length"] == 1

    def test_unparseable_speaker_kept_as_unknown(self):
        kept, _ = filter_samples([page(audio=("LL-weird.wav",))])
        assert len(kept) == 1
        assert kept[0].speaker == "unknown"

    def test_stats_reconcile_and_order_preserved(self):
        pages = [page(word=f"w{i}") for i in range(6)]
        pages[2] = page(word="w2", language="eng")
        kept, stats = filter_samples(pages)
        assert [s.word for s in kept] == ["w0", "w1", "w3", "w4", "w5"]
        assert stats.input_count == stats.kept_count + sum(
            stats.rejected_by_rule.values()
        )

    def test_deterministic(self):
        pages = [page(word=f"w{i}") for i in range(4)]
        first = filter_samples(pages)
        second = filter_samples(pages)
        assert [s.word for s in first[0]] == [s.word for s in second[0]]
        assert first[1] == second[1]


class TestExtractSpeaker:
    def test_bonjour(self):
        assert extract_speaker(BONJOUR_AUDIO) == "LoquaxFR"

    def test_minimal(self):
        assert extract_speaker("LL-Q150 (fra)-X-a.wav") == "X"

    def test_non_ll_file(self):
        with pytest.raises(ValueError, match=r"^bonjour\.wav$"):
            extract_speaker("bonjour.wav")

    def test_missing_user_separator(self):
        with pytest.raises(ValueError,
                           match=r"^LL-Q150 \(fra\)-nodashafteruser\.wav$"):
            extract_speaker("LL-Q150 (fra)-nodashafteruser.wav")

    def test_missing_paren_dash(self):
        with pytest.raises(ValueError, match=r"^LL-Q150 fra-X-a\.wav$"):
            extract_speaker("LL-Q150 fra-X-a.wav")


class TestResolveMediaUrl:
    def test_deterministic(self):
        assert resolve_media_url(BONJOUR_AUDIO) == resolve_media_url(BONJOUR_AUDIO)

    def test_recorded_fixture(self):
        assert resolve_media_url(BONJOUR_AUDIO) == BONJOUR_URL

    def test_spaces_become_underscores_before_hashing(self):
        with_spaces = resolve_media_url("a b.wav")
        underscored = resolve_media_url("a_b.wav")
        assert with_spaces == underscored
        assert "a_b.wav" in with_spaces


class StubTransport:
    """Scripted transport: pops one behavior per call."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def __call__(self, url):
        self.calls += 1
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


class TestFetchAudio:
    def test_cache_hit_never_calls_transport(self, tmp_path):
        target = tmp_path / "x.wav"
        target.write_bytes(b"cached")
        transport = StubTransport([])
        result = Fetcher(transport=transport).fetch(
            "https://example.test/x.wav", tmp_path, "x.wav")
        assert result == target
        assert transport.calls == 0
        assert target.read_bytes() == b"cached"

    def test_http_404(self, tmp_path):
        transport = StubTransport([HttpError(404)] * 3)
        sleeps = []
        with pytest.raises(HttpError) as err:
            Fetcher(transport=transport, sleep=sleeps.append).fetch(
                "https://example.test/x.wav", tmp_path, "x.wav")
        assert err.value.status == 404
        assert transport.calls == 3
        assert sleeps == [0.5, 1.0]

    def test_two_failures_then_success(self, tmp_path):
        transport = StubTransport(
            [FetchTimeoutError(), HttpError(503), b"payload"]
        )
        sleeps = []
        fetcher = Fetcher(transport=transport, sleep=sleeps.append)
        path = fetcher.fetch("https://example.test/x.wav", tmp_path, "x.wav")
        assert path.read_bytes() == b"payload"
        assert transport.calls == 3
        assert len(sleeps) == 2  # backoff before each retry

    def test_explicit_filename_verbatim(self, tmp_path):
        transport = StubTransport([b"data"])
        path = Fetcher(transport=transport).fetch(
            "https://example.test/x_y.wav", tmp_path, filename="x y.wav")
        assert path.name == "x y.wav"

    def test_idempotent_second_call_cached(self, tmp_path):
        transport = StubTransport([b"payload"])
        first = Fetcher(transport=transport).fetch(
            "https://example.test/x.wav", tmp_path, "x.wav")
        second = Fetcher(transport=StubTransport([])).fetch(
            "https://example.test/x.wav", tmp_path, "x.wav")
        assert first == second

    def test_rate_limit_sleeps_between_requests(self, tmp_path):
        transport = StubTransport([b"a", b"b"])
        sleeps = []
        clock = iter([0.0, 0.1, 0.1]).__next__
        fetcher = Fetcher(transport=transport, min_interval=1.0,
                          sleep=sleeps.append, clock=clock)
        fetcher.fetch("https://example.test/a.wav", tmp_path, "a.wav")
        fetcher.fetch("https://example.test/b.wav", tmp_path, "b.wav")
        assert sleeps and sleeps[0] == pytest.approx(0.9)


class MediaStore(http.server.BaseHTTPRequestHandler):
    """Serves ``BODY`` at /ok and 404 elsewhere, recording each request's
    path and User-Agent in the server's ``requests``."""

    BODY = b"RIFF payload"

    def do_GET(self):
        self.server.requests.append((self.path, self.headers["User-Agent"]))
        if self.path == "/ok":
            self.send_response(200)
            self.send_header("Content-Length", str(len(self.BODY)))
            self.end_headers()
            self.wfile.write(self.BODY)
        else:
            self.send_error(404)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def media_store():
    server = http.server.HTTPServer(("127.0.0.1", 0), MediaStore)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


def full_listener():
    """A listener on 127.0.0.1 that never accepts, with its accept queue
    filled by connected clients, so a further connect gets no answer."""
    listener = socket.create_server(("127.0.0.1", 0), backlog=0)
    clients = []
    for _ in range(8):
        client = socket.socket()
        client.settimeout(0.1)
        try:
            client.connect(listener.getsockname())
        except TimeoutError:
            client.close()
            return listener, clients
        clients.append(client)
    raise AssertionError("the accept queue never filled")


class TestUrllibTransport:
    """The default transport against servers on 127.0.0.1. Retry backoff
    is recorded, not slept; the timeout is patched to 0.1 s where it is
    what the case tests and to 0.5 s elsewhere, which only bounds a hang."""

    @pytest.fixture(autouse=True)
    def local_only(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "*")
        monkeypatch.setattr(corpus, "FETCH_TIMEOUT_SECONDS", 0.5)

    def test_200_writes_the_body(self, tmp_path, media_store):
        sleeps = []
        port = media_store.server_address[1]
        path = Fetcher(sleep=sleeps.append).fetch(
            f"http://127.0.0.1:{port}/ok", tmp_path, "x.wav")
        assert path.read_bytes() == MediaStore.BODY
        assert media_store.requests == [("/ok", "phonoscribe/0.1")]
        assert sleeps == []

    def test_404_on_every_attempt(self, tmp_path, media_store):
        sleeps = []
        port = media_store.server_address[1]
        with pytest.raises(HttpError) as err:
            Fetcher(sleep=sleeps.append).fetch(
                f"http://127.0.0.1:{port}/missing", tmp_path, "x.wav")
        assert err.value.status == 404
        assert len(media_store.requests) == corpus.FETCH_ATTEMPTS
        assert sleeps == [0.5, 1.0]
        assert list(tmp_path.iterdir()) == []

    def test_connect_timeout(self, tmp_path, monkeypatch):
        # urlopen wraps a connect timeout in URLError(reason=TimeoutError)
        monkeypatch.setattr(corpus, "FETCH_TIMEOUT_SECONDS", 0.1)
        sleeps = []
        listener, clients = full_listener()
        port = listener.getsockname()[1]
        try:
            with pytest.raises(FetchTimeoutError) as err:
                Fetcher(sleep=sleeps.append).fetch(
                    f"http://127.0.0.1:{port}/x.wav", tmp_path, "x.wav")
        finally:
            for s in (listener, *clients):
                s.close()
        assert isinstance(err.value.__cause__, urllib.error.URLError)
        assert isinstance(err.value.__cause__.reason, TimeoutError)
        assert sleeps == [0.5, 1.0]

    def test_read_timeout(self, tmp_path, monkeypatch):
        # connected, the request sent, no response: a bare TimeoutError
        monkeypatch.setattr(corpus, "FETCH_TIMEOUT_SECONDS", 0.1)
        sleeps = []
        with socket.create_server(("127.0.0.1", 0), backlog=8) as silent:
            port = silent.getsockname()[1]
            with pytest.raises(FetchTimeoutError) as err:
                Fetcher(sleep=sleeps.append).fetch(
                    f"http://127.0.0.1:{port}/x.wav", tmp_path, "x.wav")
        assert type(err.value.__cause__) is TimeoutError
        assert sleeps == [0.5, 1.0]

    def test_refused_connection_is_not_retried(self, tmp_path):
        with socket.create_server(("127.0.0.1", 0)) as closed:
            port = closed.getsockname()[1]
        sleeps = []
        with pytest.raises(urllib.error.URLError) as err:
            Fetcher(sleep=sleeps.append).fetch(
                f"http://127.0.0.1:{port}/x.wav", tmp_path, "x.wav")
        assert isinstance(err.value.reason, ConnectionRefusedError)
        assert sleeps == []
        assert list(tmp_path.iterdir()) == []


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        kept, _ = filter_samples([page()])
        out = tmp_path / "samples.csv"
        write_samples_csv(out, kept)
        back = read_samples_csv(out)
        assert len(back) == 1
        assert back[0].word == kept[0].word
        assert back[0].ipa == kept[0].ipa
        assert back[0].speaker == kept[0].speaker

    def test_bad_header(self, tmp_path):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("nope\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            read_samples_csv(csv_path)


class TestCsvReaders:
    @pytest.mark.parametrize("reader, header", [
        (parse_manifest, "word,language,ipa_list,audio_list"),
        (read_samples_csv, "word,audio,ipa,speaker"),
    ], ids=["manifest", "samples"])
    def test_oversized_field_reports_line(self, tmp_path, reader, header):
        path = tmp_path / "x.csv"
        field = "x" * (csv.field_size_limit() + 1)
        path.write_text(f"{header}\n{field},a,b,c\n", encoding="utf-8")
        with pytest.raises(MalformedRowError) as err:
            reader(path)
        assert err.value.line_no == 2

    def test_missing_samples_file_is_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_samples_csv(tmp_path / "absent.csv")

    def test_empty_samples_file_is_a_header_error(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MalformedRowError) as err:
            read_samples_csv(path)
        assert err.value.line_no == 1

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        reader=st.sampled_from([parse_manifest, read_samples_csv]),
        head=st.sampled_from([b"", b"word,language,ipa_list,audio_list\n",
                              b"word,audio,ipa,speaker\n"]),
        body=st.one_of(
            st.binary(max_size=80),
            st.text(alphabet='ab,"|\r\n\x00ɔ̃ʁé', max_size=80)
            .map(lambda text: text.encode("utf-8")),
        ),
    )
    def test_arbitrary_bytes_parse_or_are_rejected(self, tmp_path, reader,
                                                   head, body):
        path = tmp_path / "x.csv"
        path.write_bytes(head + body)
        try:
            reader(path)
        except (ManifestIoError, MalformedRowError, UnknownSymbolError):
            pass
