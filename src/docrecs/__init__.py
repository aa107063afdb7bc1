"""docrecs: self-hosted related-document recommendations with click analytics."""

import importlib

# Every export loads its module on first use, so that each command imports
# only what it runs: `ingest` the corpus module, `report` also analytics.
_LAZY_EXPORTS = {
    "AlgorithmArm": "corpus",
    "ConfigError": "corpus",
    "CorpusStore": "corpus",
    "DocumentRecord": "corpus",
    "IngestAborted": "corpus",
    "IngestSummary": "corpus",
    "RecordRejected": "corpus",
    "ingest_corpus": "corpus",
    "parse_document_record": "corpus",
    "read_store": "corpus",
    "Index": "index",
    "ScoredCandidate": "index",
    "build_index": "index",
    "more_like_this": "index",
    "tokenize": "index",
    "PartnerConfig": "recommenders",
    "PopularityTable": "recommenders",
    "RecommendationSet": "recommenders",
    "RecommendedItem": "recommenders",
    "load_partner_configs": "recommenders",
    "produce_recommendations": "recommenders",
    "recommend_most_popular": "recommenders",
    "recommend_stereotype": "recommenders",
    "rerank_bibliometric": "recommenders",
    "AnalyticsLog": "analytics",
    "CtrReportRow": "analytics",
    "classify_requester": "analytics",
    "compute_ctr": "analytics",
    "monthly_report": "analytics",
    "popularity_table": "analytics",
    "write_report_csv": "analytics",
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
