"""Event logs, bot classification, CTR computation, and monthly reports."""

from __future__ import annotations

import csv
import dataclasses
import json
import random
import tempfile
from dataclasses import astuple
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrecs import (
    AlgorithmArm,
    AnalyticsLog,
    RecommendationSet,
    classify_requester,
    compute_ctr,
    monthly_report,
    popularity_table,
    write_report_csv,
)
from docrecs import analytics
from docrecs.analytics import REPORT_VARIANTS, delivered_documents, parse_rfc3339
from docrecs.corpus import to_json
from docrecs.recommenders import RecommendedItem

from support import build_store, make_corpus, oracle_monthly_report, read_jsonl

HUMAN_UA = "Mozilla/5.0 (Windows NT 10.0; rv:52.0) Firefox/52.0"
BOT_UA = "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"


def make_set(set_id="s1", n_items=3, doc_prefix="doc", arm=AlgorithmArm.CONTENT_BASED, at=None):
    items = tuple(
        RecommendedItem(f"{set_id}-rec{i}", i + 1, f"{doc_prefix}{i}", 0.5, f"Title {i}")
        for i in range(n_items)
    )
    return RecommendationSet(
        set_id=set_id,
        partner_id="lib",
        query_document_id="query-doc",
        algorithm=arm,
        created_at=at or datetime(2016, 9, 20, 12, 0, tzinfo=timezone.utc),
        items=items,
    )


def write_delivery_lines(path, events):
    with path.open("a", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def delivery(rec_id, month="2016-09", algorithm="content_based", ua=HUMAN_UA, doc="d1"):
    return {
        "recommendation_id": rec_id,
        "set_id": f"set-of-{rec_id}",
        "partner_id": "lib",
        "document_id": doc,
        "algorithm": algorithm,
        "delivered_at": f"{month}-15T10:00:00Z",
        "user_agent": ua,
    }


def click(rec_id, ts="2016-09-16T10:00:00Z"):
    return {"recommendation_id": rec_id, "clicked_at": ts}


class TestRecordDelivery:
    def test_one_line_per_item_in_rank_order(self, tmp_path, closing):
        log = closing(AnalyticsLog(tmp_path))
        assert log.record_delivery(make_set(n_items=5), HUMAN_UA) == 5
        events = read_jsonl(log.delivery_path)
        assert len(list(delivered_documents(log.delivery_path))) == 5
        assert [e["recommendation_id"] for e in events] == [f"s1-rec{i}" for i in range(5)]
        assert all(e["user_agent"] == HUMAN_UA for e in events)

    def test_empty_set_writes_nothing(self, tmp_path, closing):
        log = closing(AnalyticsLog(tmp_path))
        assert log.record_delivery(make_set(n_items=0), HUMAN_UA) == 0
        assert not log.delivery_path.exists() or log.delivery_path.read_text() == ""

    def test_many_sets_line_count(self, tmp_path, closing):
        log = closing(AnalyticsLog(tmp_path))
        for i in range(100):
            log.record_delivery(make_set(set_id=f"s{i}", n_items=5), HUMAN_UA)
        assert len(log.delivery_path.read_text().splitlines()) == 500


class TestTornFinalLine:
    """A last line that an interrupted append left without its newline."""

    def test_opening_ends_a_torn_line_once(self, tmp_path, closing):
        whole = json.dumps(delivery("r1")).encode() + b"\n"
        torn = whole[:40]
        (tmp_path / "deliveries.jsonl").write_bytes(whole + torn)
        (tmp_path / "clicks.jsonl").write_bytes(b'{"recommendation_id": "r1"')
        AnalyticsLog(tmp_path)
        log = closing(AnalyticsLog(tmp_path))  # a second opening finds the line ended
        assert log.delivery_path.read_bytes() == whole + torn + b"\n"
        assert log.click_path.read_bytes() == b'{"recommendation_id": "r1"\n'
        log.record_delivery(make_set(n_items=2), HUMAN_UA)
        assert [r for r, _ in delivered_documents(log.delivery_path)] == ["r1", "s1-rec0", "s1-rec1"]

    def test_whole_and_missing_logs_are_left_alone(self, tmp_path):
        AnalyticsLog(tmp_path)
        assert list(tmp_path.iterdir()) == []
        for content in (b"", b"\n", json.dumps(delivery("r1")).encode() + b"\n"):
            (tmp_path / "deliveries.jsonl").write_bytes(content)
            AnalyticsLog(tmp_path)
            assert (tmp_path / "deliveries.jsonl").read_bytes() == content
        assert not (tmp_path / "clicks.jsonl").exists()


class TestRecordClick:
    def test_single_line(self, tmp_path, closing):
        log = closing(AnalyticsLog(tmp_path))
        ts = datetime(2016, 9, 21, tzinfo=timezone.utc)
        assert log.record_click("r1", ts) == 1
        events = read_jsonl(log.click_path)
        assert events[0]["recommendation_id"] == "r1"
        assert parse_rfc3339(events[0]["clicked_at"]) == ts

    def test_duplicates_allowed(self, tmp_path, closing):
        log = closing(AnalyticsLog(tmp_path))
        ts = datetime(2016, 9, 21, tzinfo=timezone.utc)
        log.record_click("r1", ts)
        log.record_click("r1", ts)
        assert len(read_jsonl(log.click_path)) == 2

    def test_n_calls_n_lines(self, tmp_path, closing):
        log = closing(AnalyticsLog(tmp_path))
        ts = datetime(2016, 9, 21, tzinfo=timezone.utc)
        for i in range(25):
            log.record_click(f"r{i}", ts)
        assert len(log.click_path.read_text().splitlines()) == 25


# Text that JSON escapes, or that UTF-8 encodes in more than one byte
ESCAPED_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "é", "€", "\U0001f600"]),
    max_size=10,
)


class TestAppendHandles:
    @settings(max_examples=150, deadline=None)
    @given(
        set_id=ESCAPED_TEXT,
        partner_id=ESCAPED_TEXT,
        items=st.lists(st.tuples(ESCAPED_TEXT, ESCAPED_TEXT), max_size=4),
        arm=st.sampled_from(AlgorithmArm),
        at=st.datetimes(
            min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1), timezones=st.just(timezone.utc)
        ),
        user_agent=st.just("") | ESCAPED_TEXT,
        click_id=ESCAPED_TEXT,
    )
    def test_lines_are_the_json_of_each_payload(
        self, set_id, partner_id, items, arm, at, user_agent, click_id
    ):
        rec_set = RecommendationSet(
            set_id=set_id,
            partner_id=partner_id,
            query_document_id="q",
            algorithm=arm,
            created_at=at,
            items=tuple(
                RecommendedItem(rec_id, rank, doc_id, 0.5, "t")
                for rank, (rec_id, doc_id) in enumerate(items, 1)
            ),
        )
        with tempfile.TemporaryDirectory() as root:
            log = AnalyticsLog(root)
            try:
                assert log.record_delivery(rec_set, user_agent) == len(items)
                assert log.record_click(click_id, at) == 1
            finally:
                log.close()
            deliveries = log.delivery_path.read_bytes()
            clicks = log.click_path.read_bytes()
        stamp = analytics.format_rfc3339(at)
        payloads = [
            {
                "recommendation_id": rec_id,
                "set_id": set_id,
                "partner_id": partner_id,
                "document_id": doc_id,
                "algorithm": arm.value,
                "delivered_at": stamp,
                "user_agent": user_agent,
            }
            for rec_id, doc_id in items
        ]
        assert deliveries == b"".join((to_json(p) + "\n").encode() for p in payloads)
        click_payload = {"recommendation_id": click_id, "clicked_at": stamp}
        assert clicks == (to_json(click_payload) + "\n").encode()

    def test_close_releases_both_handles_and_may_repeat(self, tmp_path):
        log = AnalyticsLog(tmp_path)
        log.record_delivery(make_set(n_items=2), HUMAN_UA)
        log.record_click("s1-rec0", datetime(2016, 9, 21, tzinfo=timezone.utc))
        handles = list(log._files.values())
        assert len(handles) == 2 and not any(fh.closed for fh in handles)
        log.close()
        assert all(fh.closed for fh in handles) and not log._files
        log.close()

    def test_a_set_that_cannot_be_encoded_writes_nothing(self, tmp_path, closing):
        log = closing(AnalyticsLog(tmp_path))
        log.record_delivery(make_set(n_items=2), HUMAN_UA)
        before = log.delivery_path.read_bytes()
        good = make_set(set_id="s2")
        bad = dataclasses.replace(  # its last line holds a lone surrogate
            good, items=good.items[:-1] + (good.items[-1]._replace(document_id="doc\ud800"),)
        )
        with pytest.raises(UnicodeEncodeError):
            log.record_delivery(bad, HUMAN_UA)
        assert log.delivery_path.read_bytes() == before


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
JSON_SPACE = st.text(alphabet=" \t\n\r", max_size=3)
LINE_TEXTS = st.tuples(
    st.sampled_from(["", "\ufeff"]),  # a byte-order mark
    JSON_SPACE,
    JSON_VALUES.map(json.dumps) | st.text(max_size=12),
    st.sampled_from(["", " ", "\n", "\r\n", "\x0b", "\x0c", "\xa0"]) | JSON_SPACE,
    st.sampled_from(["", "x", "{}", " 1", "]"]) | st.text(max_size=3),  # trailing data
).map("".join)


class TestLineCheck:
    """The log readers parse a line as ``json.loads`` parses its UTF-8 text."""

    @staticmethod
    def outcome(parse, line):
        try:
            return repr(parse(line))
        except ValueError:
            return "rejected"

    @settings(max_examples=500, deadline=None)
    @given(line=LINE_TEXTS.map(lambda text: text.encode("utf-8", "surrogatepass")) | st.binary(max_size=16))
    def test_accepts_what_json_loads_accepts(self, line):
        assert self.outcome(analytics._json_value, line) == self.outcome(
            lambda raw: json.loads(raw.decode("utf-8")), line
        )


class TestClassifyRequester:
    def test_googlebot_is_bot(self):
        assert classify_requester(BOT_UA) == "bot"

    def test_firefox_is_human(self):
        assert classify_requester(HUMAN_UA) == "human"

    def test_empty_user_agent_is_bot(self):
        assert classify_requester("") == "bot"

    @pytest.mark.parametrize("ua", ["WebCrawler/1.0", "SpiderMonkey-ish Spider", "Yahoo! Slurp"])
    def test_default_markers(self, ua):
        assert classify_requester(ua) == "bot"


class TestComputeCtr:
    def test_large_scale_rendering(self):
        assert compute_ctr(57_435_086, 77_468).rendered == "0.13%"

    def test_zero_clicks(self):
        assert compute_ctr(12345, 0).rendered == "0.00%"

    def test_direct_arithmetic(self):
        assert compute_ctr(10_000, 19).rendered == "0.19%"

    def test_zero_deliveries(self):
        value = compute_ctr(0, 0)
        assert value.ratio == 0.0
        assert value.rendered == "0.00%"

    def test_half_away_from_zero(self):
        # 125 / 100000 = 0.125% rounds up, not to even
        assert compute_ctr(100_000, 125).rendered == "0.13%"

    def test_ratio_value(self):
        assert compute_ctr(200, 10).ratio == pytest.approx(0.05)

    def test_negative_deliveries_rejected(self):
        with pytest.raises(ValueError):
            compute_ctr(-1, 0)


class TestMonthlyReport:
    def test_empty_logs_overall_row_only(self, tmp_path):
        rows = monthly_report(tmp_path / "d.jsonl", tmp_path / "c.jsonl")
        assert len(rows) == 1
        row = rows[0]
        assert (row.period, row.algorithm, row.deliveries, row.clicks) == ("overall", "all", 0, 0)
        assert row.ctr_percent == "0.00%"

    def test_monthly_cohorts_match_yearly_extremes(self, tmp_path):
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        deliveries = [delivery(f"sep-{i}", month="2016-09") for i in range(10_000)]
        deliveries += [delivery(f"dec-{i}", month="2016-12") for i in range(10_000)]
        write_delivery_lines(dpath, deliveries)
        clicks = [click(f"sep-{i}") for i in range(19)]
        clicks += [click(f"dec-{i}", ts="2016-12-16T10:00:00Z") for i in range(10)]
        write_delivery_lines(cpath, clicks)
        rows = {(r.period, r.algorithm): r for r in monthly_report(dpath, cpath)}
        assert rows[("2016-09", "all")].ctr_percent == "0.19%"
        assert rows[("2016-12", "all")].ctr_percent == "0.10%"
        assert rows[("overall", "all")].deliveries == 20_000
        assert rows[("overall", "all")].clicks == 29

    def test_bot_filtering_and_dedup(self, tmp_path):
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        write_delivery_lines(
            dpath,
            [
                delivery("h1", ua=HUMAN_UA),
                delivery("h2", ua=HUMAN_UA),
                delivery("b1", ua=BOT_UA),
            ],
        )
        write_delivery_lines(cpath, [click("h1")])
        raw = {(r.period, r.algorithm): r for r in monthly_report(dpath, cpath, "raw")}
        filtered = {
            (r.period, r.algorithm): r for r in monthly_report(dpath, cpath, "bot_filtered")
        }
        assert raw[("overall", "all")].ctr_percent == "33.33%"
        assert filtered[("overall", "all")].ctr_percent == "50.00%"

    def test_duplicate_clicks_raw_vs_filtered(self, tmp_path):
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        write_delivery_lines(dpath, [delivery("h1"), delivery("h2")])
        write_delivery_lines(cpath, [click("h1"), click("h1"), click("h1")])
        raw = monthly_report(dpath, cpath, "raw")[0]
        filtered = monthly_report(dpath, cpath, "bot_filtered")[0]
        assert raw.clicks == 3  # duplicates kept raw; ratio may exceed cohort
        assert filtered.clicks == 1
        assert filtered.clicks <= filtered.deliveries

    def test_click_joins_delivery_month(self, tmp_path):
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        write_delivery_lines(dpath, [delivery("r1", month="2016-09")])
        write_delivery_lines(cpath, [click("r1", ts="2016-10-03T00:00:00Z")])
        rows = {(r.period, r.algorithm): r for r in monthly_report(dpath, cpath)}
        assert rows[("2016-09", "all")].clicks == 1
        assert ("2016-10", "all") not in rows

    def test_orphan_clicks_reported_not_counted(self, tmp_path):
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        write_delivery_lines(dpath, [delivery("r1")])
        write_delivery_lines(cpath, [click("r1"), click("nobody")])
        issues = []
        rows = monthly_report(dpath, cpath, issues=issues)
        assert rows[0].clicks == 1
        assert issues[0].orphan_click_ids == ("nobody",)

    def test_malformed_lines_skipped_and_reported(self, tmp_path):
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        write_delivery_lines(dpath, [delivery("r1")])
        with dpath.open("a", encoding="utf-8") as fh:
            fh.write("{torn line\n")
        write_delivery_lines(dpath, [delivery("r2")])
        cpath.write_text("", encoding="utf-8")
        issues = []
        rows = monthly_report(dpath, cpath, issues=issues)
        assert rows[-1].deliveries == 2
        assert issues[0].delivery_rejects == ((2, "malformed delivery event"),)

    def test_per_algorithm_rows_sum_to_all(self, tmp_path):
        rng = random.Random(61)
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        arms = [arm.value for arm in AlgorithmArm]
        deliveries = [
            delivery(f"r{i}", month=rng.choice(["2016-09", "2016-10"]), algorithm=rng.choice(arms))
            for i in range(300)
        ]
        write_delivery_lines(dpath, deliveries)
        write_delivery_lines(cpath, [click(f"r{i}") for i in rng.sample(range(300), 40)])
        rows = monthly_report(dpath, cpath)
        by_key = {(r.period, r.algorithm): r for r in rows}
        periods = {r.period for r in rows}
        for period in periods:
            arm_rows = [r for r in rows if r.period == period and r.algorithm != "all"]
            assert sum(r.deliveries for r in arm_rows) == by_key[(period, "all")].deliveries
            assert sum(r.clicks for r in arm_rows) == by_key[(period, "all")].clicks
        month_rows = [r for r in rows if r.period != "overall" and r.algorithm == "all"]
        assert sum(r.deliveries for r in month_rows) == by_key[("overall", "all")].deliveries
        assert sum(r.clicks for r in month_rows) == by_key[("overall", "all")].clicks

    def test_bot_monotonicity_per_month(self, tmp_path):
        rng = random.Random(62)
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        deliveries = [
            delivery(
                f"r{i}",
                month=rng.choice(["2016-09", "2016-10", "2016-11"]),
                ua=rng.choice([HUMAN_UA, BOT_UA]),
            )
            for i in range(200)
        ]
        write_delivery_lines(dpath, deliveries)
        cpath.write_text("", encoding="utf-8")
        raw = {(r.period, r.algorithm): r for r in monthly_report(dpath, cpath, "raw")}
        filtered = monthly_report(dpath, cpath, "bot_filtered")
        for row in filtered:
            assert row.deliveries <= raw[(row.period, row.algorithm)].deliveries

    def test_report_runs_are_deterministic_and_read_only(self, tmp_path):
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        write_delivery_lines(dpath, [delivery("r1"), delivery("r2")])
        write_delivery_lines(cpath, [click("r1")])
        before = (dpath.read_bytes(), cpath.read_bytes())
        first = monthly_report(dpath, cpath)
        second = monthly_report(dpath, cpath)
        assert first == second
        assert (dpath.read_bytes(), cpath.read_bytes()) == before

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            monthly_report(tmp_path / "d.jsonl", tmp_path / "c.jsonl", "denoised")

    @pytest.mark.parametrize("variant", REPORT_VARIANTS)
    def test_one_report_reads_each_log_once(self, tmp_path, monkeypatch, variant):
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        write_delivery_lines(dpath, [delivery("r1"), delivery("r2", ua=BOT_UA)])
        write_delivery_lines(cpath, [click("r1"), click("r2"), click("nobody")])
        reads = []
        real_read = analytics._numbered_lines
        monkeypatch.setattr(
            analytics, "_numbered_lines", lambda path: reads.append(path) or real_read(path)
        )
        monthly_report(dpath, cpath, variant, issues=[])
        assert sorted(reads) == sorted([dpath, cpath])


class TestCsvReport:
    def test_header_and_rows(self, tmp_path):
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        write_delivery_lines(dpath, [delivery("r1")])
        write_delivery_lines(cpath, [click("r1")])
        out = tmp_path / "report.csv"
        write_report_csv(monthly_report(dpath, cpath), out)
        with out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["period", "variant", "algorithm", "deliveries", "clicks", "ctr_percent"]
        assert rows[1] == ["2016-09", "raw", "all", "1", "1", "100.00%"]


DELIVERY_KEYS = (
    "recommendation_id",
    "set_id",
    "partner_id",
    "document_id",
    "algorithm",
    "delivered_at",
    "user_agent",
)
ARM_LABELS = [arm.value for arm in AlgorithmArm]
GOOD_TIMESTAMPS = ["2016-09-15T10:00:00Z", "2016-09-15T12:00:00+02:00", "2016-09-15T10:00:00.25Z"]
BAD_TIMESTAMPS = [
    "2016-13-01T10:00:00Z",
    "2016-02-30T10:00:00Z",
    "2016-09-15T24:00:00Z",
    "2016-09-15T10:00:00",  # no offset
    "0001-01-01T00:00:00+01:00",  # before year 1 in UTC
    "9999-12-31T23:59:59-01:00",  # after year 9999 in UTC
    "yesterday",
    "",
]
NOT_STRINGS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.lists(st.text(max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def delivery_lines(draw):
    """A delivery line, well formed or with one mutation, and whether it is well formed."""
    event = delivery(
        f"r{draw(st.integers(0, 5))}",
        algorithm=draw(st.sampled_from(ARM_LABELS)),
        doc=draw(st.sampled_from(["d1", "d2", "d3"])),
    )
    event["delivered_at"] = draw(st.sampled_from(GOOD_TIMESTAMPS))
    kind = draw(st.sampled_from(["none", "truncated", "dropped", "retyped", "timestamp", "arm"]))
    if kind == "truncated":
        line = json.dumps(event)
        return line[: draw(st.integers(1, len(line) - 1))], False
    if kind == "dropped":
        key = draw(st.sampled_from(DELIVERY_KEYS))
        del event[key]
        return json.dumps(event), key == "user_agent"  # the one optional field
    if kind == "retyped":
        event[draw(st.sampled_from(DELIVERY_KEYS))] = draw(NOT_STRINGS)
    elif kind == "timestamp":
        event["delivered_at"] = draw(st.sampled_from(BAD_TIMESTAMPS))
    elif kind == "arm":
        event["algorithm"] = draw(
            st.sampled_from(["Content_Based", "content_based ", "most-popular", "all"])
            | st.text(max_size=8).filter(lambda label: label not in ARM_LABELS)
        )
    return json.dumps(event), kind == "none"


class TestStartupReplay:
    """The startup replay and the report share one per-line check."""

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(delivery_lines(), min_size=1, max_size=12))
    def test_accepts_the_lines_the_report_counts(self, lines):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "deliveries.jsonl"
            path.write_text("".join(line + "\n" for line, _ in lines), encoding="utf-8")
            issues = []
            monthly_report(path, Path(root) / "clicks.jsonl", issues=issues)
            pairs = list(delivered_documents(path))
        good = [json.loads(line) for line, ok in lines if ok]
        assert [n for n, _ in issues[0].delivery_rejects] == [
            n for n, (_, ok) in enumerate(lines, 1) if not ok
        ]
        assert pairs == [(e["recommendation_id"], e["document_id"]) for e in good]


UTC_INSTANTS = [
    datetime(2016, 9, 30, 23, 30, tzinfo=timezone.utc),
    datetime(2016, 10, 1, 0, 30, tzinfo=timezone.utc),
    datetime(2016, 10, 15, 12, 0, tzinfo=timezone.utc),
    datetime(2016, 12, 31, 23, 59, 59, tzinfo=timezone.utc),
    datetime(2017, 1, 1, 1, 0, 0, 250_000, tzinfo=timezone.utc),
]
MALFORMED_CLICKS = [
    b"{torn",
    b"\xff\xfe\n",
    b"[]",
    b'{"recommendation_id": "r1"}',
    b'{"recommendation_id": 1, "clicked_at": "2016-10-01T00:00:00Z"}',
    b'{"recommendation_id": "r1", "clicked_at": "2016-10-01T00:00:00"}',
]


@st.composite
def report_logs(draw):
    """Delivery and click log lines, with what an independent tally needs to know of them.

    Returns the delivery lines, the click lines, (event, UTC month, is bot)
    per well-formed delivery, the click ids of the well-formed clicks, and
    the line numbers of the malformed lines of each log. Ids repeat across
    humans and bots in either order, clicks repeat and miss, and the
    timestamps carry offsets that move them across a UTC month boundary.
    Either log may be absent (``None``).
    """
    ids = [f"r{i}" for i in range(draw(st.integers(1, 6)))]
    delivery_lines_out, deliveries, bad_deliveries = [], [], []
    for lineno in range(1, draw(st.integers(0, 14)) + 1):
        if draw(st.integers(0, 5)) == 0:
            line, _ = draw(delivery_lines().filter(lambda pair: not pair[1]))
            delivery_lines_out.append(line.encode("utf-8"))
            bad_deliveries.append(lineno)
            continue
        instant = draw(st.sampled_from(UTC_INSTANTS))
        offset = timezone(timedelta(hours=draw(st.sampled_from([0, 2, -2]))))
        bot = draw(st.booleans())
        event = delivery(
            draw(st.sampled_from(ids)),
            algorithm=draw(st.sampled_from(ARM_LABELS)),
            ua=BOT_UA if bot else HUMAN_UA,
        )
        event["delivered_at"] = instant.astimezone(offset).isoformat().replace("+00:00", "Z")
        delivery_lines_out.append(json.dumps(event).encode("utf-8"))
        deliveries.append((event, f"{instant:%Y-%m}", bot))
    click_lines, click_ids, bad_clicks = [], [], []
    for lineno in range(1, draw(st.integers(0, 14)) + 1):
        if draw(st.integers(0, 5)) == 0:
            click_lines.append(draw(st.sampled_from(MALFORMED_CLICKS)))
            bad_clicks.append(lineno)
            continue
        rec_id = draw(st.sampled_from(ids + ["orphan-1", "orphan-2"]))
        click_lines.append(json.dumps(click(rec_id, "2016-10-02T00:00:00+02:00")).encode("utf-8"))
        click_ids.append(rec_id)
    if not delivery_lines_out and draw(st.booleans()):
        delivery_lines_out = None
    if not click_lines and draw(st.booleans()):
        click_lines = None
    return delivery_lines_out, click_lines, deliveries, click_ids, bad_deliveries, bad_clicks


def write_log(path, lines):
    if lines is not None:
        path.write_bytes(b"".join(line.rstrip(b"\n") + b"\n" for line in lines))


class TestReportAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(logs=report_logs())
    def test_rows_and_issues_match_an_independent_tally(self, logs):
        delivery_lines, click_lines, deliveries, click_ids, bad_deliveries, bad_clicks = logs
        with tempfile.TemporaryDirectory() as root:
            dpath, cpath = Path(root) / "d.jsonl", Path(root) / "c.jsonl"
            write_log(dpath, delivery_lines)
            write_log(cpath, click_lines)
            for variant in REPORT_VARIANTS:
                issues = []
                rows = [astuple(r) for r in monthly_report(dpath, cpath, variant, issues=issues)]
                want_rows, want_orphans = oracle_monthly_report(deliveries, click_ids, variant)
                assert rows == want_rows
                assert issues[0].delivery_rejects == tuple(
                    (n, "malformed delivery event") for n in bad_deliveries
                )
                assert issues[0].click_rejects == tuple(
                    (n, "malformed click event") for n in bad_clicks
                )
                assert issues[0].orphan_click_ids == want_orphans


def ranked_ids(pop):
    return [pop.index.doc_ids[o] for o in pop.ranked]


class TestPopularityTable:
    def test_empty_logs_readership_only(self, tmp_path):
        records = make_corpus(random.Random(63), 5)
        store = build_store(tmp_path, records)
        pop = popularity_table(tmp_path / "d.jsonl", tmp_path / "c.jsonl", store)
        index = pop.index
        for record in records:
            ordinal = index.ordinals[record["id"]]
            assert index.readership[ordinal] == record["readership"]
            assert index.doc_collections[ordinal] == record["collection_id"]
        assert ranked_ids(pop) == [
            r["id"] for r in sorted(records, key=lambda r: (-r["readership"], r["id"]))
        ]

    def test_single_delivery_and_click(self, tmp_path):
        records = make_corpus(random.Random(64), 3)
        store = build_store(tmp_path, records)
        doc = min(records, key=lambda r: (r["readership"], r["id"]))["id"]
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        write_delivery_lines(dpath, [delivery("r1", doc=doc)])
        write_delivery_lines(cpath, [click("r1")])
        pop = popularity_table(dpath, cpath, store)
        # the least-read document, once clicked, outranks every unclicked one
        assert ranked_ids(pop)[0] == doc

    def test_fifty_event_log_matches_count_script(self, tmp_path):
        rng = random.Random(65)
        records = make_corpus(rng, 8)
        store = build_store(tmp_path, records)
        ids = [r["id"] for r in records]
        dpath, cpath = tmp_path / "d.jsonl", tmp_path / "c.jsonl"
        deliveries = [delivery(f"r{i}", doc=rng.choice(ids)) for i in range(50)]
        write_delivery_lines(dpath, deliveries)
        clicked = rng.sample(range(50), 12) + [0, 0]  # two duplicate clicks on r0
        write_delivery_lines(cpath, [click(f"r{i}") for i in clicked])
        pop = popularity_table(dpath, cpath, store)

        # independent tallies straight from the event dicts
        expected_deliveries: dict[str, int] = {}
        for event in deliveries:
            expected_deliveries[event["document_id"]] = (
                expected_deliveries.get(event["document_id"], 0) + 1
            )
        doc_of = {e["recommendation_id"]: e["document_id"] for e in deliveries}
        expected_clicks: dict[str, int] = {}
        for rec_id in {f"r{i}" for i in clicked}:  # dedup
            expected_clicks[doc_of[rec_id]] = expected_clicks.get(doc_of[rec_id], 0) + 1

        readership = {r["id"]: r["readership"] for r in records}
        assert ranked_ids(pop) == sorted(
            ids,
            key=lambda d: (
                -expected_clicks.get(d, 0),
                -expected_deliveries.get(d, 0),
                -readership[d],
                d,
            ),
        )
