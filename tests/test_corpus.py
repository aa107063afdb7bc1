"""Corpus parsing, ingestion, durable storage, and partner configuration."""

from __future__ import annotations

import json
import random

import pytest

from docrecs import (
    AlgorithmArm,
    ConfigError,
    CorpusStore,
    DocumentRecord,
    IngestAborted,
    PartnerConfig,
    RecordRejected,
    build_index,
    ingest_corpus,
    load_partner_configs,
    parse_document_record,
    read_store,
)

from support import make_corpus


class TestParseDocumentRecord:
    def test_minimal_record(self):
        record = parse_document_record(
            '{"id":"soclib-bib-136994","collection_id":"soclib","title":"X"}'
        )
        assert record.id == "soclib-bib-136994"
        assert record.collection_id == "soclib"
        assert record.title == "X"

    def test_defaults_applied(self):
        record = parse_document_record('{"id":"a1","collection_id":"c","title":"T","readership":0}')
        assert record.readership == 0
        assert record.authors == ()
        assert record.keywords == ()
        assert record.abstract is None
        assert record.venue is None
        assert record.year is None

    def test_missing_readership_defaults_to_zero(self):
        record = parse_document_record('{"id":"a1","collection_id":"c","title":"T"}')
        assert record.readership == 0

    def test_largest_readership_is_indexed(self):
        line = '{"id":"a1","collection_id":"c","title":"T","readership":9223372036854775807}'
        assert list(build_index([parse_document_record(line)]).readership) == [2**63 - 1]

    @pytest.mark.parametrize(
        "line,reason",
        [
            ('{"collection_id":"c","title":"T"}', "missing id"),
            ('{"id":"","collection_id":"c","title":"T"}', "missing id"),
            ('{"id":"a b","collection_id":"c","title":"T"}', "invalid id"),
            ('{"id":"a/b","collection_id":"c","title":"T"}', "invalid id"),
            ('{"id":"a1","collection_id":"c"}', "missing title"),
            ('{"id":"a1","collection_id":"c","title":""}', "missing title"),
            ('{"id":"a1","collection_id":"c","title":"T","readership":-1}', "negative readership"),
            ('{"id":"a1","collection_id":"c","title":"T","readership":1.5}', "invalid readership"),
            (  # 2**63, one past what the index's readership array holds
                '{"id":"a1","collection_id":"c","title":"T","readership":9223372036854775808}',
                "readership too large",
            ),
            ('{"id":"a1","collection_id":"c","title":"T","authors":"solo"}', "invalid authors"),
            ('{"id":"a1","collection_id":"c","title":"T","year":"1999"}', "invalid year"),
            ("{not json", "malformed json"),
            ("[1, 2]", "malformed json"),
        ],
    )
    def test_rejections(self, line, reason):
        with pytest.raises(RecordRejected, match=reason):
            parse_document_record(line)

    def test_id_character_class_accepts_dots_dashes_underscores(self):
        record = parse_document_record('{"id":"A-9._z","collection_id":"c","title":"T"}')
        assert record.id == "A-9._z"

    def test_missing_collection_defaults_to_empty(self):
        record = parse_document_record('{"id":"a1","title":"T"}')
        assert record.collection_id == ""

    def test_full_record_round_trips_all_fields(self):
        payload = {
            "id": "doc.1",
            "collection_id": "soc",
            "title": "On Reading",
            "authors": ["a b", "c d"],
            "abstract": "Words about words.",
            "venue": "Journal",
            "keywords": ["reading", "words"],
            "year": 2016,
            "readership": 12,
        }
        record = parse_document_record(json.dumps(payload))
        assert record == DocumentRecord(
            id="doc.1",
            collection_id="soc",
            title="On Reading",
            authors=("a b", "c d"),
            abstract="Words about words.",
            venue="Journal",
            keywords=("reading", "words"),
            year=2016,
            readership=12,
        )


def _lines(records):
    return [json.dumps(r) for r in records]


class TestIngest:
    def test_all_valid(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        records = make_corpus(random.Random(1), 3)
        summary = ingest_corpus(_lines(records), store)
        assert (summary.accepted, summary.rejected) == (3, 0)
        assert len(store) == 3

    def test_duplicate_within_stream(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        line = '{"id":"a1","collection_id":"c","title":"T"}'
        summary = ingest_corpus([line, line], store)
        assert (summary.accepted, summary.rejected) == (1, 1)
        assert summary.reject_reasons == ((2, "duplicate id"),)

    def test_duplicate_against_store(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        line = '{"id":"a1","collection_id":"c","title":"T"}'
        ingest_corpus([line], store)
        summary = ingest_corpus([line], store)
        assert (summary.accepted, summary.rejected) == (0, 1)
        assert summary.reject_reasons[0][1] == "duplicate id"

    def test_blank_lines_excluded_from_counts(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        lines = ["", '{"id":"a1","collection_id":"c","title":"T"}', "   ", "{bad"]
        summary = ingest_corpus(lines, store)
        assert (summary.accepted, summary.rejected) == (1, 1)
        # line numbers refer to positions in the raw stream
        assert summary.reject_reasons == ((4, "malformed json"),)

    def test_thousand_lines_with_seeded_defects(self, tmp_path):
        # Build 1,000 lines, then damage 7 seeded positions in distinct ways.
        rng = random.Random(20160918)
        records = make_corpus(rng, 1000)
        lines = _lines(records)
        defect_positions = sorted(rng.sample(range(1000), 7))
        defects = [
            lambda r: {k: v for k, v in r.items() if k != "id"},
            lambda r: {**r, "id": ""},
            lambda r: {**r, "id": "bad id"},
            lambda r: {k: v for k, v in r.items() if k != "title"},
            lambda r: {**r, "title": ""},
            lambda r: {**r, "readership": -5},
            lambda r: {**r, "id": records[0]["id"]},  # duplicate
        ]
        for position, damage in zip(defect_positions, defects):
            if position == 0:
                position = 1  # keep the duplicate target intact
            lines[position] = json.dumps(damage(records[position]))

        # Independent defect count: re-scan the generated file by hand.
        def scan_defects(all_lines):
            bad = 0
            seen = set()
            for line in all_lines:
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError:
                    bad += 1
                    continue
                doc_id = raw.get("id")
                ok = (
                    isinstance(doc_id, str)
                    and doc_id != ""
                    and all(c.isalnum() or c in "._-" for c in doc_id)
                    and isinstance(raw.get("title"), str)
                    and raw.get("title") != ""
                    and isinstance(raw.get("readership", 0), int)
                    and raw.get("readership", 0) >= 0
                    and doc_id not in seen
                )
                if ok:
                    seen.add(doc_id)
                else:
                    bad += 1
            return bad

        expected_bad = scan_defects(lines)
        assert expected_bad == 7

        store = CorpusStore(tmp_path / "s")
        summary = ingest_corpus(lines, store)
        assert summary.accepted == 1000 - expected_bad == 993
        assert summary.rejected == expected_bad
        assert len(store) == 993

    def test_unreadable_stream_aborts_with_partial_counts(self, tmp_path):
        store = CorpusStore(tmp_path / "s")

        def broken_stream():
            yield '{"id":"a1","collection_id":"c","title":"T"}'
            yield '{"id":"a2","collection_id":"c","title":"T"}'
            raise UnicodeDecodeError("utf-8", b"", 0, 1, "boom")

        with pytest.raises(IngestAborted) as excinfo:
            ingest_corpus(broken_stream(), store)
        assert excinfo.value.summary.accepted == 2
        assert len(store) == 2  # records before the failure are persisted

    def test_rejected_line_leaves_no_trace(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        lines = [
            '{"id":"good","collection_id":"c","title":"T"}',
            '{"id":"ghost","collection_id":"c","title":""}',
        ]
        ingest_corpus(lines, store)
        assert "ghost" not in store
        reloaded = CorpusStore(tmp_path / "s")
        assert "ghost" not in reloaded
        assert [r.id for r in read_store(tmp_path / "s")] == ["good"]

    def test_determinism_same_stream_same_store(self, tmp_path):
        records = make_corpus(random.Random(7), 50)
        lines = _lines(records)
        lines[10] = "{broken"
        summaries = []
        for name in ("a", "b"):
            store = CorpusStore(tmp_path / name)
            summaries.append(ingest_corpus(list(lines), store))
        assert summaries[0] == summaries[1]
        bytes_a = (tmp_path / "a" / "documents.jsonl").read_bytes()
        bytes_b = (tmp_path / "b" / "documents.jsonl").read_bytes()
        assert bytes_a == bytes_b



class TestTornFinalLine:
    """A crash mid-ingest can leave the store's last line without its newline."""

    def ingested(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        ingest_corpus(
            [
                '{"id":"a","collection_id":"c","title":"Alpha"}',
                '{"id":"b","collection_id":"c","title":"Beta \u00e9"}',
            ],
            store,
        )
        return tmp_path / "s" / "documents.jsonl"

    def test_reload_skips_and_reports_torn_line(self, tmp_path):
        path = self.ingested(tmp_path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"id": "c", "tit')
        store = CorpusStore(tmp_path / "s")
        assert len(store) == 2 and "c" not in store
        assert [r.id for r in read_store(tmp_path / "s")] == ["a", "b"]
        assert store.torn_tail == b'{"id": "c", "tit'

    def test_torn_inside_a_utf8_sequence(self, tmp_path):
        path = self.ingested(tmp_path)
        with path.open("ab") as fh:
            fh.write('{"id":"c","collection_id":"c","title":"\u00e9'.encode("utf-8")[:-1])
        store = CorpusStore(tmp_path / "s")
        assert len(store) == 2 and "c" not in store
        assert [r.id for r in read_store(tmp_path / "s")] == ["a", "b"]

    def test_next_ingest_replaces_the_fragment(self, tmp_path):
        path = self.ingested(tmp_path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"id": "c", "tit')
        store = CorpusStore(tmp_path / "s")
        summary = ingest_corpus(['{"id":"c","collection_id":"c","title":"Gamma"}'], store)
        assert summary.accepted == 1
        reloaded = CorpusStore(tmp_path / "s")
        assert [r.id for r in read_store(tmp_path / "s")] == ["a", "b", "c"]
        assert "c" in reloaded
        assert reloaded.torn_tail is None
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_corruption_before_the_last_line_still_fails(self, tmp_path):
        path = self.ingested(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(lines[0] + '{"id": "x", "tit\n' + lines[1], encoding="utf-8")
        with pytest.raises(RecordRejected, match="malformed json"):
            CorpusStore(tmp_path / "s")

    @pytest.mark.parametrize("bad", [b'{"id": "x", "tit\n', b"\xff\xfe\n", b'{"id": "x"}\n'])
    def test_bad_line_before_the_last_is_located(self, tmp_path, bad):
        path = self.ingested(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + bad + lines[1])
        with pytest.raises(RecordRejected, match=r"^line 2: "):
            CorpusStore(tmp_path / "s")


class TestReadStore:
    """The one parser of documents.jsonl, which CorpusStore, serve and simulate share."""

    def test_yields_the_stores_records_in_file_order(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        lines = _lines(make_corpus(random.Random(8), 12))
        ingest_corpus(lines, store)
        assert list(read_store(tmp_path / "s")) == list(map(parse_document_record, lines))

    def test_torn_tail_goes_to_the_callback(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        ingest_corpus(['{"id":"a","collection_id":"c","title":"Alpha"}'], store)
        with (tmp_path / "s" / "documents.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"id": "b", "ti')
        torn = []
        assert [r.id for r in read_store(tmp_path / "s", torn.append)] == ["a"]
        assert torn == [b'{"id": "b", "ti']

    def test_repeated_id_is_refused_naming_its_line(self, tmp_path):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "documents.jsonl").write_text(
            "".join(
                json.dumps({"id": doc_id, "collection_id": "c", "title": title}) + "\n"
                for doc_id, title in (("a", "First"), ("b", "Other"), ("a", "Second"))
            ),
            encoding="utf-8",
        )
        with pytest.raises(RecordRejected, match=r"^line 3: duplicate id$"):
            list(read_store(tmp_path / "s"))
        with pytest.raises(RecordRejected, match=r"^line 3: duplicate id$"):
            CorpusStore(tmp_path / "s")

    def test_store_without_documents_file_yields_nothing(self, tmp_path):
        assert list(read_store(tmp_path / "absent")) == []
        assert not (tmp_path / "absent").exists()


class TestGetDocument:
    def test_round_trip_after_ingest(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        line = json.dumps(
            {
                "id": "r1",
                "collection_id": "c",
                "title": "Titles Matter",
                "authors": ["x y"],
                "keywords": ["k"],
                "readership": 3,
            }
        )
        ingest_corpus([line], store)
        assert "r1" in store
        assert list(read_store(tmp_path / "s")) == [parse_document_record(line)]

    def test_unknown_id_is_absent(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        assert "nope" not in store

    def test_rejected_line_id_is_absent(self, tmp_path):
        store = CorpusStore(tmp_path / "s")
        summary = ingest_corpus(['{"id":"bad-one","collection_id":"c","title":""}'], store)
        assert summary.rejected == 1
        assert "bad-one" not in store
        assert list(read_store(tmp_path / "s")) == []

    def test_store_survives_restart(self, tmp_path):
        lines = _lines(make_corpus(random.Random(3), 20))
        ingest_corpus(lines, CorpusStore(tmp_path / "s"))
        reloaded = CorpusStore(tmp_path / "s")
        assert len(reloaded) == 20
        records = list(map(parse_document_record, lines))
        assert all(record.id in reloaded for record in records)
        assert list(read_store(tmp_path / "s")) == records


class TestPartnerConfig:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "partners.jsonl"
        path.write_text(
            json.dumps(
                {
                    "partner_id": "lib",
                    "allowed_collections": ["soc", "econ"],
                    "arm_weights": {"content_based": 3, "most_popular": 1},
                    "stereotype_list": ["d1", "d2"],
                    "default_k": 7,
                }
            )
            + "\n",
            encoding="utf-8",
        )
        configs = load_partner_configs(path)
        config = configs["lib"]
        assert config.allowed_collections == frozenset({"soc", "econ"})
        assert config.arm_weights[AlgorithmArm.CONTENT_BASED] == 3.0
        assert config.stereotype_list == ("d1", "d2")
        assert config.default_k == 7

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            PartnerConfig(
                partner_id="p",
                allowed_collections=frozenset({"c"}),
                arm_weights={AlgorithmArm.CONTENT_BASED: 0.0},
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            PartnerConfig(
                partner_id="p",
                allowed_collections=frozenset({"c"}),
                arm_weights={AlgorithmArm.CONTENT_BASED: -1.0},
            )

    @pytest.mark.parametrize(
        "weight",
        ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["NaN", "Infinity", "-Infinity", "integer-past-float-range"],
    )
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        path = tmp_path / "partners.jsonl"
        path.write_text(
            '{"partner_id":"p","arm_weights":{"content_based":%s,"stereotype":1,"most_popular":9}}\n'
            % weight,
            encoding="utf-8",
        )
        with pytest.raises(ConfigError) as excinfo:
            load_partner_configs(path)
        assert str(excinfo.value) == "line 1: arm weights must be finite"

    def test_duplicate_stereotype_entries_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            PartnerConfig(
                partner_id="p",
                allowed_collections=frozenset({"c"}),
                arm_weights={AlgorithmArm.CONTENT_BASED: 1.0},
                stereotype_list=("d1", "d1"),
            )

    def test_default_k_must_be_positive(self):
        with pytest.raises(ConfigError, match="default_k"):
            PartnerConfig(
                partner_id="p",
                allowed_collections=frozenset({"c"}),
                arm_weights={AlgorithmArm.CONTENT_BASED: 1.0},
                default_k=0,
            )

    def test_unknown_arm_label_rejected(self, tmp_path):
        path = tmp_path / "partners.jsonl"
        path.write_text(
            '{"partner_id":"p","allowed_collections":[],"arm_weights":{"mystery":1}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="unknown algorithm arm"):
            load_partner_configs(path)

    def test_duplicate_partner_rejected(self, tmp_path):
        entry = '{"partner_id":"p","allowed_collections":[],"arm_weights":{"content_based":1}}\n'
        path = tmp_path / "partners.jsonl"
        path.write_text(entry + entry, encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate partner_id"):
            load_partner_configs(path)
