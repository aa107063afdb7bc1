"""Append-only delivery/click event logs and click-through-rate reporting.

Logs are newline-delimited JSON (one event per line, UTF-8, RFC 3339 UTC
timestamps): ``deliveries.jsonl`` and ``clicks.jsonl``. Reports never mutate
the logs, so report runs over the same files are byte-identical.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import threading
from collections import Counter
from datetime import datetime, timezone
from decimal import ROUND_HALF_UP, Decimal
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from .corpus import AlgorithmArm, DocumentRecord, to_json

if TYPE_CHECKING:  # `report` runs without the index and recommenders modules
    from .index import Index
    from .recommenders import PopularityTable, RecommendationSet

DELIVERY_LOG_FILENAME = "deliveries.jsonl"
CLICK_LOG_FILENAME = "clicks.jsonl"

BOT_MARKERS: tuple[str, ...] = ("bot", "crawler", "spider", "slurp")

REPORT_VARIANTS = ("raw", "bot_filtered")

CSV_HEADER = ("period", "variant", "algorithm", "deliveries", "clicks", "ctr_percent")

_ARMS = {arm.value: arm for arm in AlgorithmArm}
# A log line's required fields; KeyError when one is missing, TypeError when
# the line holds no JSON object.
_DELIVERY_FIELDS = itemgetter(
    "recommendation_id", "set_id", "partner_id", "document_id", "algorithm", "delivered_at"
)
_CLICK_FIELDS = itemgetter("recommendation_id", "clicked_at")


def format_rfc3339(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


@functools.lru_cache(maxsize=64)  # a set's lines are adjacent and share one time
def parse_rfc3339(value: str) -> datetime:
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        raise ValueError(f"timestamp without offset: {value}")
    return ts.astimezone(timezone.utc)


class AnalyticsLog:
    """Delivery and click logs in a directory, with serialized appends.

    Each log is opened once, on its first append, and stays open until
    :meth:`close`. A single lock funnels all writers so concurrent request
    handlers never interleave partial lines. Each append is encoded whole
    before any byte is written, then written and flushed at once, so an
    event is in the file by the time its response is sent, and one that
    cannot be encoded writes nothing. A log renamed away keeps receiving
    lines until it is closed. A last line that an interrupted append left
    without its newline is ended when the log is opened, so its bytes stay a
    line of their own (malformed, and skipped by every reader) rather than
    joining the next line appended.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.delivery_path = self.root / DELIVERY_LOG_FILENAME
        self.click_path = self.root / CLICK_LOG_FILENAME
        self._lock = threading.Lock()
        self._files: dict[Path, BinaryIO] = {}  # open append handles, by log path
        for path in (self.delivery_path, self.click_path):
            try:
                with path.open("rb") as fh:
                    if fh.seek(0, os.SEEK_END) == 0:
                        continue
                    fh.seek(-1, os.SEEK_END)
                    torn = fh.read(1) != b"\n"
            except FileNotFoundError:
                continue
            if torn:
                with path.open("ab") as fh:
                    fh.write(b"\n")

    def _append(self, path: Path, data: bytes) -> None:
        with self._lock:
            fh = self._files.get(path)
            if fh is None:
                fh = self._files[path] = path.open("ab")
            fh.write(data)
            fh.flush()

    def record_delivery(self, rec_set: RecommendationSet, user_agent: str) -> None:
        """Append one delivery line per item, in rank order.

        The lines are those of ``to_json`` on each event's payload; the
        fields the set's items share are encoded once.
        """
        js = to_json
        middle = ', "set_id": %s, "partner_id": %s, "document_id": ' % (
            js(rec_set.set_id),
            js(rec_set.partner_id),
        )
        tail = ', "algorithm": %s, "delivered_at": %s, "user_agent": %s}\n' % (
            js(rec_set.algorithm.value),
            js(format_rfc3339(rec_set.created_at)),
            js(user_agent),
        )
        items = rec_set.items
        head = '{"recommendation_id": '
        data = "".join(
            [head + js(item.recommendation_id) + middle + js(item.document_id) + tail for item in items]
        ).encode("utf-8")
        self._append(self.delivery_path, data)

    def record_click(self, recommendation_id: str, ts: datetime) -> None:
        """Append one click line; duplicates are kept (dedup is report-time)."""
        line = '{"recommendation_id": %s, "clicked_at": %s}\n' % (
            to_json(recommendation_id),
            to_json(format_rfc3339(ts)),
        )
        self._append(self.click_path, line.encode("utf-8"))

    def close(self) -> None:
        """Close the open handles; a later append opens its log again."""
        with self._lock:
            files, self._files = self._files, {}
            for fh in files.values():
                fh.close()


def _numbered_lines(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """(line number, undecoded line) for each non-blank line of a log; none if it is absent.

    Lines are decoded one at a time by the caller, so a line that is not
    UTF-8 is one malformed line rather than the end of the read.
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def _json_value(line: bytes):
    """The JSON value of a log line, as ``json.loads`` reads its text; ValueError if none.

    A byte-order mark, or anything but JSON whitespace around the value, is
    an error as it is there.
    """
    text = line.decode("utf-8").rstrip(_JSON_SPACE)
    value, end = _raw_decode(text, len(text) - len(text.lstrip(_JSON_SPACE)))
    if end != len(text):
        raise ValueError("extra data after the JSON value")
    return value


def _delivery_fields(line: bytes) -> tuple | None:
    """A delivery line's fields; None if it is malformed.

    The fields are recommendation id, set id, partner id, document id,
    :class:`AlgorithmArm`, UTC delivery time and user agent.

    A well-formed line is a JSON object whose six event fields are strings,
    with a known algorithm label and an RFC 3339 timestamp with an offset,
    and whose ``user_agent``, when present, is a string. Every reader of the
    delivery log checks its lines here, so all of them accept the same lines.
    """
    try:
        raw = _json_value(line)
        fields = _DELIVERY_FIELDS(raw)
        user_agent = raw.get("user_agent", "")
        if all(map(isinstance, fields, repeat(str))) and isinstance(user_agent, str):
            rec_id, set_id, partner_id, doc_id, label, delivered_at = fields
            arm = _ARMS.get(label)
            if arm is not None:
                return (
                    rec_id,
                    set_id,
                    partner_id,
                    doc_id,
                    arm,
                    parse_rfc3339(delivered_at),
                    user_agent,
                )
    except (ValueError, KeyError, TypeError, OverflowError):
        pass  # not UTF-8 or JSON, not an object, a field missing, a bad or out-of-range time
    return None


def _clicks(path: str | Path) -> tuple[list[str], list[tuple[int, str]]]:
    """The recommendation ids of a click log's well-formed lines, in line order, and its rejects.

    A well-formed line is a JSON object whose ``recommendation_id`` is a
    string and whose ``clicked_at`` is an RFC 3339 timestamp with an offset.
    """
    ids, rejects = [], []
    for lineno, line in _numbered_lines(path):
        try:
            rec_id, clicked_at = _CLICK_FIELDS(_json_value(line))
            if isinstance(rec_id, str) and isinstance(clicked_at, str):
                parse_rfc3339(clicked_at)
                ids.append(rec_id)
                continue
        except (ValueError, KeyError, TypeError, OverflowError):
            pass  # not UTF-8 or JSON, not an object, a field missing, a bad time
        rejects.append((lineno, "malformed click event"))
    return ids, rejects


def classify_requester(user_agent: str) -> str:
    """Return "bot" iff the lowercased user agent contains a bot marker; empty means bot."""
    if not user_agent:
        return "bot"
    lowered = user_agent.lower()
    return "bot" if any(marker in lowered for marker in BOT_MARKERS) else "human"


def compute_ctr(deliveries: int, clicks: int) -> str:
    """Click-through rate as a percent string.

    The string is ``100 * clicks / deliveries`` with two decimals, rounded
    half away from zero; zero deliveries render as "0.00%".
    """
    if deliveries < 0:
        raise ValueError("deliveries must be >= 0")
    if deliveries == 0:
        return "0.00%"
    percent = (Decimal(clicks) * 100 / Decimal(deliveries)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP
    )
    return f"{percent}%"


class CtrReportRow(NamedTuple):
    period: str  # "YYYY-MM" or "overall"
    variant: str  # "raw" | "bot_filtered"
    algorithm: str  # arm label or "all"
    deliveries: int
    clicks: int
    ctr_percent: str


class LogIssues(NamedTuple):
    delivery_rejects: tuple[tuple[int, str], ...]
    click_rejects: tuple[tuple[int, str], ...]
    orphan_click_ids: tuple[str, ...]


def monthly_report(
    delivery_log: str | Path,
    click_log: str | Path,
    variant: str = "raw",
    *,
    issues: list[LogIssues] | None = None,
) -> list[CtrReportRow]:
    """CTR rows per UTC calendar month plus a final "overall" row.

    A click is attributed to the month its delivery happened in, not the
    click's own month; orphan clicks (no matching delivery) are never
    counted. The ``bot_filtered`` variant drops deliveries whose user agent
    classifies as bot, drops clicks whose delivery was dropped, and counts at
    most one click per recommendation id. Aggregate rows carry algorithm
    "all"; per-algorithm sub-rows follow, label ascending. When ``issues``
    is given, the :class:`LogIssues` of the same pass is appended to it.
    """
    if variant not in REPORT_VARIANTS:
        raise ValueError(f"unknown variant: {variant}")
    filtered = variant == "bot_filtered"
    # a log holds few distinct user agents: classify each one once per pass
    is_bot = functools.cache(lambda agent: classify_requester(agent) == "bot")

    click_ids, click_rejects = _clicks(click_log)
    clicked_ids = set(click_ids)
    # clicked recommendation id -> (year, month, arm label) of its counted
    # delivery, the last one when an id repeats. Under bot_filtered an id that
    # only bots were delivered, or whose one click is already counted, maps to
    # None; a clicked id with any well-formed delivery has an entry, so
    # orphans are the click ids missing here.
    placed: dict[str, tuple[int, int, str] | None] = {}
    delivered: Counter[tuple[int, int, str]] = Counter()
    delivery_rejects: list[tuple[int, str]] = []
    for lineno, line in _numbered_lines(delivery_log):
        fields = _delivery_fields(line)
        if fields is None:
            delivery_rejects.append((lineno, "malformed delivery event"))
        elif filtered and is_bot(fields[6]):
            if fields[0] in clicked_ids:
                placed.setdefault(fields[0], None)
        else:
            delivered_at = fields[5]
            key = (delivered_at.year, delivered_at.month, fields[4].value)
            delivered[key] += 1
            if fields[0] in clicked_ids:
                placed[fields[0]] = key

    clicked: Counter[tuple[int, int, str]] = Counter()
    orphans: set[str] = set()
    for rec_id in click_ids:
        if rec_id not in placed:
            orphans.add(rec_id)
        elif (key := placed[rec_id]) is not None:
            clicked[key] += 1
            if filtered:
                placed[rec_id] = None
    if issues is not None:
        issues.append(
            LogIssues(tuple(delivery_rejects), tuple(click_rejects), tuple(sorted(orphans)))
        )

    tally: dict[tuple[str, str], list[int]] = {("overall", "all"): [0, 0]}
    for (year, month, label), n in delivered.items():
        clicks = clicked[(year, month, label)]
        period = f"{year:04d}-{month:02d}"
        for row_key in ((period, "all"), (period, label), ("overall", "all"), ("overall", label)):
            counts = tally.setdefault(row_key, [0, 0])
            counts[0] += n
            counts[1] += clicks
    # "YYYY-MM" periods sort before "overall"; "all" leads each period
    order = sorted(
        tally.items(), key=lambda item: (item[0][0], item[0][1] != "all", item[0][1])
    )
    return [
        CtrReportRow(period, variant, algorithm, n, clicks, compute_ctr(n, clicks))
        for (period, algorithm), (n, clicks) in order
    ]


def write_report_csv(rows: Sequence[CtrReportRow], path: str | Path) -> None:
    """UTF-8 CSV with the pinned header."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def popularity_table(
    delivery_log: str | Path,
    click_log: str | Path,
    corpus: Index | Iterable[DocumentRecord],
    *,
    delivered_ids: set[str] | None = None,
    issues: list[LogIssues] | None = None,
) -> PopularityTable:
    """Rank the documents of ``corpus`` by clicks (deduplicated), deliveries, readership.

    ``corpus`` is the service's index; any other iterable of records is
    indexed first. After the click log, the delivery log is replayed in one
    pass that counts deliveries by document and keeps a document only for a
    clicked id: that of its last delivery. When ``delivered_ids`` is given,
    every recommendation id in the delivery log is added to it from the same
    pass, so a starting service reads the log once for both its popularity
    table and its click validation. When ``issues`` is given, the
    :class:`LogIssues` of the replay is appended to it, as
    :func:`monthly_report` does.
    """
    from .index import Index, build_index
    from .recommenders import PopularityTable

    click_ids, click_rejects = _clicks(click_log)
    clicked_ids = set(click_ids)
    clicked_doc: dict[str, str] = {}  # clicked recommendation id -> document id
    deliveries: Counter[str] = Counter()
    delivery_rejects: list[tuple[int, str]] = []
    for lineno, line in _numbered_lines(delivery_log):
        fields = _delivery_fields(line)
        if fields is None:
            delivery_rejects.append((lineno, "malformed delivery event"))
            continue
        rec_id, doc_id = fields[0], fields[3]
        deliveries[doc_id] += 1
        if delivered_ids is not None:
            delivered_ids.add(rec_id)
        if rec_id in clicked_ids:
            clicked_doc[rec_id] = doc_id
    if issues is not None:
        orphans = tuple(sorted(clicked_ids.difference(clicked_doc)))
        issues.append(LogIssues(tuple(delivery_rejects), tuple(click_rejects), orphans))
    index = corpus if isinstance(corpus, Index) else build_index(corpus)
    return PopularityTable(index, Counter(clicked_doc.values()), deliveries)
