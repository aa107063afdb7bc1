"""docrecs: self-hosted related-document recommendations with click analytics."""

import importlib

from .corpus import (
    AlgorithmArm,
    ConfigError,
    CorpusStore,
    DocumentRecord,
    IngestAborted,
    IngestSummary,
    PartnerConfig,
    RecordRejected,
    ingest_corpus,
    load_partner_configs,
    parse_document_record,
    read_store,
)
from .index import (
    Index,
    ScoredCandidate,
    build_index,
    more_like_this,
    tokenize,
)
from .recommenders import (
    PopularityTable,
    RecommendationSet,
    RecommendedItem,
    produce_recommendations,
    recommend_most_popular,
    recommend_stereotype,
    rerank_bibliometric,
)
from .analytics import (
    AnalyticsLog,
    CtrReportRow,
    classify_requester,
    compute_ctr,
    monthly_report,
    popularity_table,
    write_report_csv,
)

# The HTTP layer and the simulator load on first use, so that `ingest` and
# `report` do not pay for importing them.
_LAZY_EXPORTS = {
    "HttpRequestContext": "service",
    "HttpResponse": "service",
    "RaasService": "service",
    "build_service": "service",
    "serialize_set_json": "service",
    "serialize_set_xml": "service",
    "serve_http": "service",
    "SimulationResult": "simulate",
    "SimulationSpec": "simulate",
    "run_simulation": "simulate",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"
