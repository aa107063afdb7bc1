"""Partner document corpus: record parsing, durable storage, algorithm arms, partner configuration.

Corpus files are JSON Lines (one document object per line, UTF-8). The store
is a directory holding a single ``documents.jsonl`` file so that ingested
records survive process restarts. :func:`read_store` is the one parser of that
file: it yields records one line at a time, so ``serve`` and ``simulate``
index them without holding them. :class:`CorpusStore`, which ``ingest``
appends through, keeps only the ids.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple

_ID_RE = re.compile(r"[A-Za-z0-9._-]+")

STORE_FILENAME = "documents.jsonl"

_MAX_READERSHIP = 2**63 - 1  # the largest count the index's readership array holds

# Every JSON text the program writes, as json.dumps(value, ensure_ascii=False)
# writes it; one encoder serves every call and thread, as it keeps no state.
to_json = json.JSONEncoder(ensure_ascii=False).encode


class RecordRejected(ValueError):
    """A corpus line failed validation; str(exc) names the violated rule."""


class IngestAborted(RuntimeError):
    """The input stream became unreadable mid-ingest.

    ``summary`` holds the counts up to the failure point; records accepted
    before the failure are already persisted.
    """

    def __init__(self, summary: "IngestSummary"):
        super().__init__("corpus stream became unreadable during ingest")
        self.summary = summary


class ConfigError(ValueError):
    """A partner configuration entry is invalid."""


@dataclass(frozen=True)
class DocumentRecord:
    """One document's metadata as supplied by a partner."""

    id: str
    collection_id: str
    title: str
    authors: tuple[str, ...] = ()
    abstract: str | None = None
    venue: str | None = None
    keywords: tuple[str, ...] = ()
    year: int | None = None
    readership: int = 0


@dataclass(frozen=True)
class IngestSummary:
    accepted: int
    rejected: int
    reject_reasons: tuple[tuple[int, str], ...]


def _string_list(value: object, name: str) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise RecordRejected(f"invalid {name}")


def _optional_string(value: object, name: str) -> str | None:
    if value is None:
        return None
    if isinstance(value, str):
        return value
    raise RecordRejected(f"invalid {name}")


def parse_document_record(line: str) -> DocumentRecord:
    """Parse one JSON Lines corpus entry into a validated record.

    Missing ``authors``/``keywords`` default to empty, missing ``readership``
    to 0, and missing ``collection_id`` to the empty string. Raises
    :class:`RecordRejected` naming the violated rule otherwise.
    """
    try:
        raw = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise RecordRejected("malformed json") from None
    if not isinstance(raw, dict):
        raise RecordRejected("malformed json")

    doc_id = raw.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise RecordRejected("missing id")
    if not _ID_RE.fullmatch(doc_id):
        raise RecordRejected("invalid id")

    title = raw.get("title")
    if not isinstance(title, str) or not title:
        raise RecordRejected("missing title")

    collection_id = raw.get("collection_id")
    if collection_id is None:
        collection_id = ""
    elif not isinstance(collection_id, str):
        raise RecordRejected("invalid collection_id")

    readership = raw.get("readership", 0)
    if isinstance(readership, bool) or not isinstance(readership, int):
        raise RecordRejected("invalid readership")
    if readership < 0:
        raise RecordRejected("negative readership")
    if readership > _MAX_READERSHIP:
        raise RecordRejected("readership too large")

    year = raw.get("year")
    if year is not None and (isinstance(year, bool) or not isinstance(year, int)):
        raise RecordRejected("invalid year")

    return DocumentRecord(
        id=doc_id,
        collection_id=collection_id,
        title=title,
        authors=_string_list(raw.get("authors"), "authors"),
        abstract=_optional_string(raw.get("abstract"), "abstract"),
        venue=_optional_string(raw.get("venue"), "venue"),
        keywords=_string_list(raw.get("keywords"), "keywords"),
        year=year,
        readership=readership,
    )


def _record_json(record: DocumentRecord) -> str:
    payload = {
        "id": record.id,
        "collection_id": record.collection_id,
        "title": record.title,
        "authors": list(record.authors),
        "abstract": record.abstract,
        "venue": record.venue,
        "keywords": list(record.keywords),
        "year": record.year,
        "readership": record.readership,
    }
    return to_json(payload)


def read_store(
    root: str | Path, on_torn_tail: Callable[[bytes], None] | None = None
) -> Iterator[DocumentRecord]:
    """Yield the records of the store at ``root`` in file order, one line at a time.

    Every record is written as one line ending in a newline, so a last line
    without one is a write cut short (a crash mid-ingest), possibly inside a
    UTF-8 sequence. It is skipped and handed to ``on_torn_tail``. A bad line
    anywhere else, or a second record with an id already read, raises
    :class:`RecordRejected` naming its line number. A store without a
    documents file yields nothing.
    """
    path = Path(root) / STORE_FILENAME
    if not path.exists():
        return
    seen: set[str] = set()
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                if on_torn_tail is not None:
                    on_torn_tail(line)
            elif line.strip():
                try:
                    record = parse_document_record(line.decode("utf-8"))
                except (RecordRejected, UnicodeDecodeError) as exc:
                    raise RecordRejected(f"line {lineno}: {exc}") from None
                if record.id in seen:
                    raise RecordRejected(f"line {lineno}: duplicate id")
                seen.add(record.id)
                yield record


class CorpusStore:
    """Directory-backed document store that keeps only its records' ids.

    Ingestion is single-writer. Iterating a store streams its records from
    disk in file order through :func:`read_store`.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._path = self.root / STORE_FILENAME
        # A torn last line is kept for the caller to report and cut off
        # before the next append.
        self.torn_tail: bytes | None = None

        def keep_torn_tail(line: bytes) -> None:
            self.torn_tail = line

        self._ids = {r.id for r in read_store(self.root, keep_torn_tail)}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._ids

    def __iter__(self) -> Iterator[DocumentRecord]:
        return read_store(self.root)

    def _append_handle(self) -> IO[str]:
        if self.torn_tail is not None:
            os.truncate(self._path, self._path.stat().st_size - len(self.torn_tail))
            self.torn_tail = None
        return self._path.open("a", encoding="utf-8")

    def _add(self, record: DocumentRecord, fh: IO[str]) -> None:
        fh.write(_record_json(record) + "\n")
        fh.flush()
        self._ids.add(record.id)


def ingest_corpus(stream: Iterable[str], store: CorpusStore) -> IngestSummary:
    """Ingest JSON Lines from ``stream`` into ``store``.

    Blank lines are skipped and excluded from the counts. Duplicate ids,
    within the stream or against records already in the store, are rejected
    with reason ``"duplicate id"``. A rejected line leaves no trace in the
    store. If the stream itself fails mid-read, :class:`IngestAborted` is
    raised carrying the summary up to the failure point.
    """
    accepted = 0
    reasons: list[tuple[int, str]] = []
    iterator = iter(stream)
    lineno = 0
    with store._append_handle() as fh:
        while True:
            lineno += 1
            try:
                line = next(iterator)
            except StopIteration:
                break
            except (OSError, UnicodeError) as exc:
                raise IngestAborted(
                    IngestSummary(accepted, len(reasons), tuple(reasons))
                ) from exc
            if not line.strip():
                continue
            try:
                record = parse_document_record(line)
            except RecordRejected as exc:
                reasons.append((lineno, str(exc)))
                continue
            if record.id in store:
                reasons.append((lineno, "duplicate id"))
                continue
            store._add(record, fh)
            accepted += 1
    return IngestSummary(accepted, len(reasons), tuple(reasons))


class AlgorithmArm(str, Enum):
    """One selectable recommendation algorithm in per-request rotation.

    The string values are the wire labels used in partner configuration,
    response bodies, and analytics logs.
    """

    CONTENT_BASED = "content_based"
    CONTENT_BASED_READERSHIP_RERANK = "content_based_readership_rerank"
    STEREOTYPE = "stereotype"
    MOST_POPULAR = "most_popular"

    def __str__(self) -> str:
        return self.value


class ArmRotation(NamedTuple):
    """A weighted draw among arms, checked and summed once by :func:`arm_rotation`.

    ``arms`` are the positive-weight arms in :class:`AlgorithmArm` order,
    ``sums`` their running float sums and ``total`` the sum of every weight.
    """

    arms: tuple[AlgorithmArm, ...]
    sums: tuple[float, ...]
    total: float

    def draw(self, rng: random.Random) -> AlgorithmArm:
        """Each arm with probability weight / total, from one draw of ``rng``.

        A draw at or past the last sum, which round-off allows, takes the last arm.
        """
        point = rng.random() * self.total
        return next((a for a, bound in zip(self.arms, self.sums) if point < bound), self.arms[-1])


def arm_rotation(arm_weights: Mapping[AlgorithmArm, float]) -> ArmRotation:
    """Check ``arm_weights`` and build their rotation; keys that are not arms are ignored.

    Raises :class:`ConfigError` when a weight is not finite, is negative, or
    none is positive.
    """
    weights = {arm: arm_weights[arm] for arm in AlgorithmArm if arm in arm_weights}
    if not all(map(math.isfinite, weights.values())):
        raise ConfigError("arm weights must be finite")
    if any(w < 0 for w in weights.values()):
        raise ConfigError("arm weights must be non-negative")
    if not any(w > 0 for w in weights.values()):
        raise ConfigError("at least one arm weight must be positive")
    arms = tuple(arm for arm, w in weights.items() if w != 0)
    sums = tuple(accumulate(map(weights.get, arms), initial=0.0))[1:]
    return ArmRotation(arms, sums, sum(weights.values()))


@dataclass(frozen=True)
class PartnerConfig:
    """A partner's candidate scope, algorithm rotation, and display defaults.

    ``rotation`` is built from ``arm_weights`` once, so no request checks them.
    """

    partner_id: str
    allowed_collections: frozenset[str]
    arm_weights: Mapping[AlgorithmArm, float]
    stereotype_list: tuple[str, ...] = ()
    default_k: int = 5
    rotation: ArmRotation = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.partner_id:
            raise ConfigError("partner_id must be non-empty")
        object.__setattr__(self, "rotation", arm_rotation(self.arm_weights))
        if len(set(self.stereotype_list)) != len(self.stereotype_list):
            raise ConfigError("stereotype_list entries must be unique")
        if self.default_k < 1:
            raise ConfigError("default_k must be >= 1")


_NUMBER = (int, float)
# Each kind of JSON value, as an error names it.
_KINDS = {int: "an integer", _NUMBER: "a number", str: "a string", dict: "a JSON object"}


def _checked(value: object, name: str, kinds: type | tuple[type, ...], error: type[ValueError]):
    """``value`` if it is of ``kinds``, else ``error``; a JSON ``true`` or ``false`` is of none."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise error(f"{name} must be {_KINDS[kinds]}")
    return value


def parse_partner_config(raw: object) -> PartnerConfig:
    if not isinstance(raw, dict):
        raise ConfigError("partner entry must be a JSON object")
    partner_id = raw.get("partner_id")
    if not isinstance(partner_id, str) or not partner_id:
        raise ConfigError("missing partner_id")

    collections = raw.get("allowed_collections", [])
    if not isinstance(collections, list) or not all(isinstance(c, str) for c in collections):
        raise ConfigError("allowed_collections must be a list of strings")

    raw_weights = raw.get("arm_weights")
    if not isinstance(raw_weights, dict):
        raise ConfigError("arm_weights must be a map of arm label to weight")
    weights: dict[AlgorithmArm, float] = {}
    for label, value in raw_weights.items():
        try:
            arm = AlgorithmArm(label)
        except ValueError:
            raise ConfigError(f"unknown algorithm arm: {label}") from None
        try:
            weights[arm] = float(_checked(value, f"weight for {label}", _NUMBER, ConfigError))
        except OverflowError:  # an integer past the float range
            raise ConfigError("arm weights must be finite") from None

    stereotype = raw.get("stereotype_list", [])
    if not isinstance(stereotype, list) or not all(isinstance(s, str) for s in stereotype):
        raise ConfigError("stereotype_list must be a list of strings")

    return PartnerConfig(
        partner_id=partner_id,
        allowed_collections=frozenset(collections),
        arm_weights=weights,
        stereotype_list=tuple(stereotype),
        default_k=_checked(raw.get("default_k", 5), "default_k", int, ConfigError),
    )


def load_partner_configs(path: str | Path) -> dict[str, PartnerConfig]:
    """Load a partner configuration file (one JSON object per line)."""
    configs: dict[str, PartnerConfig] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                raise ConfigError(f"line {lineno}: malformed json") from None
            try:
                config = parse_partner_config(raw)
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            if config.partner_id in configs:
                raise ConfigError(f"line {lineno}: duplicate partner_id {config.partner_id}")
            configs[config.partner_id] = config
    return configs
