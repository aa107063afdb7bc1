"""CLI subcommands, exit codes, config precedence, and simulation runs."""

from __future__ import annotations

import contextlib
import csv
import json
import random
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from docrecs.cli import run
from docrecs.service import RaasHttpServer

from support import make_corpus

PARTNER_LINE = json.dumps(
    {
        "partner_id": "lib",
        "allowed_collections": ["main"],
        "arm_weights": {
            "content_based": 1,
            "content_based_readership_rerank": 1,
            "stereotype": 1,
            "most_popular": 1,
        },
        "stereotype_list": [],
        "default_k": 5,
    }
)


def write_corpus(tmp_path, n_docs=30, seed=5):
    records = make_corpus(random.Random(seed), n_docs)
    path = tmp_path / "docs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def write_partners(tmp_path):
    path = tmp_path / "partners.jsonl"
    path.write_text(PARTNER_LINE + "\n", encoding="utf-8")
    return path


def write_sim_spec(tmp_path, request_count=200, seed=11, bot_fraction=0.2, p=0.05):
    spec = {
        "request_count": request_count,
        "click_probability": {
            "content_based": p,
            "content_based_readership_rerank": p,
            "stereotype": p,
            "most_popular": p,
        },
        "bot_fraction": bot_fraction,
        "seed": seed,
        "partner_id": "lib",
        "k": 5,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


GOOD_DELIVERY = {
    "recommendation_id": "rec-1",
    "set_id": "set-1",
    "partner_id": "lib",
    "document_id": "d1",
    "algorithm": "content_based",
    "delivered_at": "2016-09-01T00:00:00Z",
    "user_agent": "Mozilla/5.0",
}
GOOD_CLICK = {"recommendation_id": "rec-1", "clicked_at": "2016-09-01T00:00:01Z"}


def write_logs(logs, deliveries, clicks):
    logs.mkdir(parents=True, exist_ok=True)
    for name, events in (("deliveries.jsonl", deliveries), ("clicks.jsonl", clicks)):
        (logs / name).write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")


@contextlib.contextmanager
def serving(store, partners, logs):
    """`docrecs serve` on a free port; yields (process, "HOST:PORT", banner)."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "docrecs",
            "serve",
            "--store",
            str(store),
            "--partners",
            str(partners),
            "--listen",
            "127.0.0.1:0",
            "--logs",
            str(logs),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline().strip()  # printed once the socket is bound
        yield proc, banner.removeprefix("listening on "), banner
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


class TestIngestCommand:
    def test_three_valid_lines(self, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            "".join(
                json.dumps({"id": f"d{i}", "collection_id": "c", "title": "T"}) + "\n"
                for i in range(3)
            ),
            encoding="utf-8",
        )
        code = run(["ingest", "--corpus", str(path), "--store", str(tmp_path / "s")])
        assert code == 0
        assert "accepted=3 rejected=0" in capsys.readouterr().out

    def test_rejects_reported_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id":"d1","title":"T"}\n{"title":"no id"}\n', encoding="utf-8")
        code = run(["ingest", "--corpus", str(path), "--store", str(tmp_path / "s")])
        captured = capsys.readouterr()
        assert code == 0
        assert "accepted=1 rejected=1" in captured.out
        assert "line 2: missing id" in captured.err

    def test_torn_store_line_reported_then_replaced(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n_docs=3)
        store = tmp_path / "s"
        assert run(["ingest", "--corpus", str(corpus), "--store", str(store)]) == 0
        with (store / "documents.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"id": "c", "tit')
        capsys.readouterr()
        assert run(["ingest", "--corpus", str(corpus), "--store", str(store)]) == 0
        captured = capsys.readouterr()
        assert "ignored a torn final line (16 bytes)" in captured.err
        assert "accepted=0 rejected=3" in captured.out
        assert (store / "documents.jsonl").read_text(encoding="utf-8").endswith("}\n")

    def test_bad_store_line_mid_file_is_one_line_data_error(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n_docs=3)
        store = tmp_path / "s"
        assert run(["ingest", "--corpus", str(corpus), "--store", str(store)]) == 0
        assert capsys.readouterr().out == "accepted=3 rejected=0\n"
        lines = (store / "documents.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(1, "{broken\n")
        (store / "documents.jsonl").write_text("".join(lines), encoding="utf-8")
        assert run(["ingest", "--corpus", str(corpus), "--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"docrecs: {store}: unreadable store: line 2: malformed json\n"

    def test_missing_corpus_file_is_data_error(self, tmp_path):
        code = run(["ingest", "--corpus", str(tmp_path / "nope.jsonl"), "--store", str(tmp_path / "s")])
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert run(["dance"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exits_1(self):
        assert run([]) == 1

    def test_missing_required_flag_exits_1(self, tmp_path, capsys):
        assert run(["ingest", "--corpus", str(tmp_path / "x.jsonl")]) == 1
        assert "--store" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_env_supplies_missing_flag(self, tmp_path, capsys, monkeypatch):
        corpus = write_corpus(tmp_path, n_docs=2)
        monkeypatch.setenv("RAAS_STORE", str(tmp_path / "env-store"))
        assert run(["ingest", "--corpus", str(corpus)]) == 0
        assert (tmp_path / "env-store" / "documents.jsonl").exists()

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        corpus = write_corpus(tmp_path, n_docs=2)
        monkeypatch.setenv("RAAS_STORE", str(tmp_path / "env-store"))
        assert run(["ingest", "--corpus", str(corpus), "--store", str(tmp_path / "flag-store")]) == 0
        assert (tmp_path / "flag-store" / "documents.jsonl").exists()
        assert not (tmp_path / "env-store").exists()

    def test_config_file_is_last_resort(self, tmp_path, capsys, monkeypatch):
        corpus = write_corpus(tmp_path, n_docs=2)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(tmp_path / "cfg-store")}), encoding="utf-8")
        monkeypatch.delenv("RAAS_STORE", raising=False)
        assert run(["--config", str(config), "ingest", "--corpus", str(corpus)]) == 0
        assert (tmp_path / "cfg-store" / "documents.jsonl").exists()

    def test_env_beats_config_file(self, tmp_path, capsys, monkeypatch):
        corpus = write_corpus(tmp_path, n_docs=2)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(tmp_path / "cfg-store")}), encoding="utf-8")
        monkeypatch.setenv("RAAS_STORE", str(tmp_path / "env-store"))
        assert run(["--config", str(config), "ingest", "--corpus", str(corpus)]) == 0
        assert (tmp_path / "env-store" / "documents.jsonl").exists()
        assert not (tmp_path / "cfg-store").exists()


# For each command and option: a value that reaches the command, with {dir}
# (a directory of its own per source) and {source} filled in; the exit code it
# leads to; and the text of the output or error that names it. ``report
# --store`` is absent: it is accepted and never read.
OPTION_PROBES = {
    ("ingest", "corpus"): ("{dir}/missing.jsonl", 2, "corpus file not found: {value}"),
    ("ingest", "store"): ("{dir}/torn-store", 0, "{value}: ignored a torn final line"),
    ("serve", "store"): ("{dir}/torn-store", 2, "{value}: ignored a torn final line"),
    ("serve", "partners"): ("{dir}/missing.jsonl", 2, "No such file or directory: '{value}'"),
    ("serve", "listen"): ("{source}-host", 1, "--listen expects HOST:PORT, got {value}\n"),
    ("serve", "logs"): ("{dir}/a-file", 2, "File exists: '{value}'"),
    ("serve", "seed"): ("{source}-seed", 2, "'{value}'"),
    ("report", "logs"): ("{dir}/missing", 2, "logs directory not found: {value}"),
    ("report", "variant"): ("{source}-variant", 1, "got {value}\n"),
    ("report", "out"): (
        "{dir}/missing/r.csv", 2, "cannot write report: [Errno 2] No such file or directory: '{value}'"
    ),
    ("simulate", "store"): ("{dir}/torn-store", 2, "{value}: ignored a torn final line"),
    ("simulate", "partners"): ("{dir}/missing.jsonl", 2, "No such file or directory: '{value}'"),
    ("simulate", "spec"): ("{dir}/missing.json", 2, "No such file or directory: '{value}'"),
    ("simulate", "logs"): ("{dir}/a-file", 2, "File exists: '{value}'"),
}
COMMAND_OPTIONS = {
    "ingest": ("corpus", "store"),
    "serve": ("store", "partners", "listen", "logs", "seed"),
    "report": ("logs", "variant", "out"),
    "simulate": ("store", "partners", "spec", "logs"),
}


class TestOptionSources:
    """Each option reads --name, then RAAS_NAME, then the config file's key name."""

    @pytest.fixture(autouse=True)
    def no_raas_environment(self, monkeypatch):
        for option in {o for options in COMMAND_OPTIONS.values() for o in options}:
            monkeypatch.delenv(f"RAAS_{option.upper()}", raising=False)

    def valid_options(self, tmp_path):
        """A working value for every option; the store is empty, so nothing serves."""
        (tmp_path / "empty-store").mkdir()
        (tmp_path / "logs").mkdir()
        return {
            "corpus": write_corpus(tmp_path, n_docs=2),
            "store": tmp_path / "empty-store",
            "partners": write_partners(tmp_path),
            "listen": "127.0.0.1:0",
            "logs": tmp_path / "logs",
            "seed": "3",
            "spec": write_sim_spec(tmp_path),
            "variant": "raw",
            "out": tmp_path / "r.csv",
        }

    def run_with(self, tmp_path, monkeypatch, command, option, sources):
        """Runs ``command`` with the probe for ``option`` given through each of ``sources``."""
        options = self.valid_options(tmp_path)
        argv = [command]
        for name in COMMAND_OPTIONS[command]:
            if name != option:
                argv += [f"--{name}", str(options[name])]
        template, code, shown = OPTION_PROBES[command, option]
        values = {}
        for source in sources:
            source_dir = tmp_path / source
            (source_dir / "torn-store").mkdir(parents=True)
            (source_dir / "torn-store" / "documents.jsonl").write_text('{"id": "c", "tit')
            (source_dir / "a-file").write_text("")
            values[source] = template.format(dir=source_dir, source=source)
        if "flag" in values:
            argv += [f"--{option}", values["flag"]]
        if "env" in values:
            monkeypatch.setenv(f"RAAS_{option.upper()}", values["env"])
        if "config" in values:
            (tmp_path / "cfg.json").write_text(json.dumps({option: values["config"]}))
            argv = ["--config", str(tmp_path / "cfg.json"), *argv]
        return run(argv), code, shown, values

    @pytest.mark.parametrize("source", ["env", "config"])
    @pytest.mark.parametrize("command, option", sorted(OPTION_PROBES))
    def test_option_from_one_source_reaches_the_command(
        self, tmp_path, capsys, monkeypatch, command, option, source
    ):
        code, expected_code, shown, values = self.run_with(
            tmp_path, monkeypatch, command, option, [source]
        )
        out, err = capsys.readouterr()
        assert code == expected_code, err
        assert shown.format(value=values[source]) in out + err

    @pytest.mark.parametrize("sources", [("flag", "env", "config"), ("env", "config")])
    @pytest.mark.parametrize(
        "command, option",
        [("ingest", "corpus"), ("serve", "listen"), ("report", "variant"), ("simulate", "spec")],
    )
    def test_flag_beats_environment_beats_config(
        self, tmp_path, capsys, monkeypatch, command, option, sources
    ):
        code, expected_code, shown, values = self.run_with(
            tmp_path, monkeypatch, command, option, sources
        )
        out, err = capsys.readouterr()
        assert code == expected_code, err
        assert shown.format(value=values[sources[0]]) in out + err
        assert not any(values[source] in out + err for source in sources[1:])

    def test_config_integer_is_read_as_its_decimal_text(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"listen": 8080}))
        argv = ["--config", str(config), "serve", "--store", "s", "--partners", "p", "--logs", "l"]
        assert run(argv) == 1
        assert capsys.readouterr().err.endswith("--listen expects HOST:PORT, got 8080\n")

    @pytest.mark.parametrize("value", [True, 1.5, None, {"a": 1}])  # a list: see UNUSABLE_INPUTS
    def test_config_value_that_is_not_text_or_integer_is_a_data_error(self, tmp_path, capsys, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": value}))
        assert run(["--config", str(config), "ingest", "--corpus", "c"]) == 2
        assert capsys.readouterr().err == (
            "docrecs: config key store must be a string or an integer\n"
        )


# Inputs that cannot be used, each given on the command line; {name} fills in
# a path or value that the test prepares. Of a flag given twice, the last counts.
SERVE = ["serve", "--store", "{store}", "--partners", "{partners}", "--logs", "{tmp}/logs"]
UNUSABLE_INPUTS = {
    "directory-as-corpus": ["ingest", "--corpus", "{tmp}", "--store", "{tmp}/s"],
    "directory-as-partners": [*SERVE, "--listen", "127.0.0.1:0", "--partners", "{tmp}"],
    "directory-as-spec": [
        "simulate", "--store", "{store}", "--partners", "{partners}", "--logs", "{tmp}/logs",
        "--spec", "{tmp}",
    ],
    "file-as-store": ["ingest", "--corpus", "{corpus}", "--store", "{corpus}"],
    "file-as-logs": [*SERVE, "--listen", "127.0.0.1:0", "--logs", "{corpus}"],
    "port-in-use": [*SERVE, "--listen", "127.0.0.1:{held_port}"],
    "unresolvable-host": [*SERVE, "--listen", "unresolvable.invalid:8080"],
    "config-list-value": ["--config", "{tmp}/cfg.json", "ingest", "--corpus", "{corpus}"],
    "seed-from-environment": [*SERVE, "--listen", "127.0.0.1:0"],  # RAAS_SEED=x
    "long-seed-from-environment": [*SERVE, "--listen", "127.0.0.1:0"],  # 5,000 digits
    "long-text-seed-from-environment": [*SERVE, "--listen", "127.0.0.1:0"],  # 5,000 x's
    "seed-from-config": ["--config", "{tmp}/seed.json", *SERVE, "--listen", "127.0.0.1:0"],
    "long-unresolvable-host": [*SERVE, "--listen", "a." * 2500 + "invalid:8080"],
    # a store written before ingest refused a readership past 2**63 - 1
    "huge-readership-serve": [*SERVE, "--listen", "127.0.0.1:0", "--store", "{tmp}/huge"],
    "huge-readership-simulate": [
        "simulate", "--store", "{tmp}/huge", "--partners", "{partners}", "--logs", "{tmp}/logs",
        "--spec", "{spec}",
    ],
}
# How the line of some of those cases starts.
UNUSABLE_MESSAGES = {
    "port-in-use": "docrecs: cannot listen on 127.0.0.1:{held_port}: [Errno ",
    "seed-from-environment": "docrecs: --seed from RAAS_SEED must be an integer, got 'x'\n",
    "seed-from-config": "docrecs: --seed from config key seed must be an integer, got 'x'\n",
    "long-seed-from-environment": "docrecs: --seed from RAAS_SEED has more digits than can be read\n",
    "long-text-seed-from-environment": (
        "docrecs: --seed from RAAS_SEED must be an integer, got 'xxxxxxxxxx"
    ),
    "long-unresolvable-host": "docrecs: cannot listen on " + "a." * 20 + "... (5012 characters): ",
    "huge-readership-serve": "docrecs: line 2: readership too large\n",
    "huge-readership-simulate": "docrecs: line 2: readership too large\n",
}


@pytest.mark.parametrize("case", list(UNUSABLE_INPUTS))
def test_unusable_input_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch, case):
    corpus = write_corpus(tmp_path, n_docs=10)
    store = tmp_path / "store"
    assert run(["ingest", "--corpus", str(corpus), "--store", str(store)]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({"store": [1]}))
    (tmp_path / "seed.json").write_text(json.dumps({"seed": "x"}))
    monkeypatch.delenv("RAAS_SEED", raising=False)
    if case == "seed-from-environment":
        monkeypatch.setenv("RAAS_SEED", "x")
    if case == "long-seed-from-environment":  # an integer, past the 4,300 digits int() reads
        monkeypatch.setenv("RAAS_SEED", "1" * 5000)
    if case == "long-text-seed-from-environment":
        monkeypatch.setenv("RAAS_SEED", "x" * 5000)
    if case.startswith("huge-readership-"):
        lines = [{"id": "a", "title": "T"}, {"id": "b", "title": "T", "readership": 10**20}]
        (tmp_path / "huge").mkdir()
        (tmp_path / "huge" / "documents.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines))
    if case.endswith("unresolvable-host"):  # stands in for the lookup, so the test makes none

        def unresolvable(server):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(RaasHttpServer, "server_bind", unresolvable)
    capsys.readouterr()
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        values = dict(
            tmp=tmp_path, corpus=corpus, store=store, partners=write_partners(tmp_path),
            spec=write_sim_spec(tmp_path), held_port=held.getsockname()[1],
        )
        code = run([arg.format(**values) for arg in UNUSABLE_INPUTS[case]])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("docrecs: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith(UNUSABLE_MESSAGES.get(case, "").format(**values)), err
    if case.startswith("long-"):  # the value is not echoed whole
        assert len(err) < 200, err


@pytest.mark.parametrize(
    "seed, reason",
    [
        ("x", "must be an integer, got 'x'"),
        ("1" * 5000, "has more digits than can be read"),  # an integer past int()'s limit
        ("x" * 5000, "must be an integer, got '" + "x" * 40 + "'... (5000 characters)"),
    ],
    ids=["short-text", "long-integer", "long-text"],
)
def test_unusable_seed_on_the_command_line_is_a_short_usage_error(capsys, seed, reason):
    argv = ["serve", "--store", "s", "--partners", "p", "--listen", "h:1", "--logs", "l"]
    assert run([*argv, "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"docrecs serve: error: argument --seed: {reason}\n"), err[-300:]
    assert len(err) < 400, err[-300:]


def test_listen_port_out_of_range_is_a_usage_error(capsys):
    for listen, shown in [
        ("127.0.0.1:99999", "127.0.0.1:99999"),
        # 5,000 digits: past int()'s limit, and quoted by the first 40 characters
        ("127.0.0.1:" + "1" * 5000, "127.0.0.1:" + "1" * 30 + "... (5010 characters)"),
    ]:
        argv = ["serve", "--store", "s", "--partners", "p", "--listen", listen, "--logs", "l"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"--listen expects HOST:PORT, got {shown}\n"), err[-300:]
        assert len(err) < 300, err[-300:]


class TestReportCommand:
    def test_empty_logs_yield_overall_row_only(self, tmp_path, capsys):
        (tmp_path / "logs").mkdir()
        out = tmp_path / "report.csv"
        code = run(
            [
                "report",
                "--logs",
                str(tmp_path / "logs"),
                "--store",
                str(tmp_path / "s"),
                "--variant",
                "raw",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["period", "variant", "algorithm", "deliveries", "clicks", "ctr_percent"]
        assert rows[1] == ["overall", "raw", "all", "0", "0", "0.00%"]
        assert len(rows) == 2

    def test_missing_logs_directory_is_a_data_error(self, tmp_path, capsys):
        logs, out = tmp_path / "no-such-logs", tmp_path / "report.csv"
        assert run(["report", "--logs", str(logs), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"docrecs: logs directory not found: {logs}\n"
        assert not logs.exists() and not out.exists()

    def test_missing_out_directory_is_a_one_line_data_error(self, tmp_path, capsys):
        (tmp_path / "logs").mkdir()
        out = tmp_path / "no-such-dir" / "report.csv"
        assert run(["report", "--logs", str(tmp_path / "logs"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("docrecs: cannot write report: ") and err.count("\n") == 1, err

    def test_dropped_log_lines_counted_on_stderr(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        delivery = {
            "recommendation_id": "rec-1",
            "set_id": "set-1",
            "partner_id": "lib",
            "document_id": "d1",
            "algorithm": "content_based",
            "delivered_at": "2016-09-01T00:00:00Z",
            "user_agent": "Mozilla/5.0",
        }
        (logs / "deliveries.jsonl").write_text(json.dumps(delivery) + "\nnot json\n", encoding="utf-8")
        clicks = [
            {"recommendation_id": "rec-1", "clicked_at": "2016-09-01T00:00:01Z"},
            {"recommendation_id": "nobody", "clicked_at": "2016-09-01T00:00:02Z"},
        ]
        (logs / "clicks.jsonl").write_text(
            "".join(json.dumps(c) + "\n" for c in clicks) + "{torn\n", encoding="utf-8"
        )
        out = tmp_path / "r.csv"
        args = ["report", "--logs", str(logs), "--store", str(tmp_path / "nonexistent")]
        assert run(args + ["--variant", "raw", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out} (4 rows)\n"
        assert captured.err == (
            "docrecs: skipped 1 malformed delivery lines, 1 malformed click lines "
            "and 1 orphan click ids\n"
        )

    @pytest.mark.parametrize(
        "log, bad, variant, counts",
        [
            ("deliveries", dict(GOOD_DELIVERY, recommendation_id="rec-2", delivered_at=None), "raw", (1, 0)),
            ("clicks", dict(GOOD_CLICK, clicked_at=7), "raw", (0, 1)),
            ("deliveries", dict(GOOD_DELIVERY, recommendation_id="rec-2", user_agent=5), "bot_filtered", (1, 0)),
            ("deliveries", b'{"recommendation_id": "rec-\xff"}', "raw", (1, 0)),
        ],
        ids=["delivered_at-null", "clicked_at-int", "user_agent-int", "not-utf-8"],
    )
    def test_bad_log_line_is_counted_not_fatal(self, tmp_path, capsys, log, bad, variant, counts):
        logs = tmp_path / "logs"
        write_logs(logs, [GOOD_DELIVERY], [GOOD_CLICK])
        with (logs / f"{log}.jsonl").open("ab") as fh:
            fh.write((bad if isinstance(bad, bytes) else json.dumps(bad).encode()) + b"\n")
        out = tmp_path / "r.csv"
        args = ["report", "--logs", str(logs), "--variant", variant, "--out", str(out)]
        assert run(args) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"docrecs: skipped {counts[0]} malformed delivery lines, {counts[1]} malformed "
            "click lines and 0 orphan click ids\n"
        )
        with out.open(encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh))[1] == ["2016-09", variant, "all", "1", "1", "100.00%"]

    def test_bad_variant_exits_1(self, tmp_path, capsys):
        code = run(
            ["report", "--logs", str(tmp_path), "--store", str(tmp_path), "--variant", "x", "--out", "o"]
        )
        assert code == 1

    def test_long_variant_is_quoted_by_its_first_40_characters(self, tmp_path, capsys):
        code = run(["report", "--logs", str(tmp_path), "--variant", "x" * 5000, "--out", "o"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.endswith("got " + "x" * 40 + "... (5000 characters)\n"), err[-300:]
        assert len(err) < 300, err[-300:]


class TestSimulateCommand:
    def setup_inputs(self, tmp_path, **spec_kwargs):
        corpus = write_corpus(tmp_path)
        partners = write_partners(tmp_path)
        spec = write_sim_spec(tmp_path, **spec_kwargs)
        store = tmp_path / "store"
        assert run(["ingest", "--corpus", str(corpus), "--store", str(store)]) == 0
        return store, partners, spec

    def test_simulation_writes_logs_and_summary(self, tmp_path, capsys):
        store, partners, spec = self.setup_inputs(tmp_path)
        logs = tmp_path / "logs"
        code = run(
            [
                "simulate",
                "--store",
                str(store),
                "--partners",
                str(partners),
                "--spec",
                str(spec),
                "--logs",
                str(logs),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "requests=200" in out
        assert "deliveries=1000" in out  # 200 requests x k=5 on a 30-doc corpus
        assert (logs / "deliveries.jsonl").exists()

    def test_identical_seeds_are_byte_identical(self, tmp_path, capsys):
        store, partners, spec = self.setup_inputs(tmp_path)
        outputs = []
        for name in ("one", "two"):
            logs = tmp_path / name
            assert (
                run(
                    [
                        "simulate",
                        "--store",
                        str(store),
                        "--partners",
                        str(partners),
                        "--spec",
                        str(spec),
                        "--logs",
                        str(logs),
                    ]
                )
                == 0
            )
            report = tmp_path / f"{name}.csv"
            assert (
                run(
                    [
                        "report",
                        "--logs",
                        str(logs),
                        "--store",
                        str(store),
                        "--variant",
                        "raw",
                        "--out",
                        str(report),
                    ]
                )
                == 0
            )
            outputs.append(
                (
                    (logs / "deliveries.jsonl").read_bytes(),
                    (logs / "clicks.jsonl").read_bytes(),
                    report.read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_unknown_partner_is_data_error(self, tmp_path, capsys):
        store, partners, spec = self.setup_inputs(tmp_path)
        bad_spec = json.loads(spec.read_text())
        bad_spec["partner_id"] = "stranger"
        spec.write_text(json.dumps(bad_spec), encoding="utf-8")
        code = run(
            [
                "simulate",
                "--store",
                str(store),
                "--partners",
                str(partners),
                "--spec",
                str(spec),
                "--logs",
                str(tmp_path / "logs"),
            ]
        )
        assert code == 2

    def simulate(self, store, partners, spec, logs):
        return run(
            ["simulate", "--store", str(store), "--partners", str(partners), "--spec", str(spec),
             "--logs", str(logs)]
        )

    def test_torn_store_line_is_skipped_and_reported(self, tmp_path, capsys):
        store, partners, spec = self.setup_inputs(tmp_path)
        with (store / "documents.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"id": "c", "tit')
        capsys.readouterr()
        assert self.simulate(store, partners, spec, tmp_path / "logs") == 0
        out, err = capsys.readouterr()
        assert "requests=200" in out
        assert err == (
            f"docrecs: {store}: ignored a torn final line (16 bytes) left by an interrupted write\n"
        )

    @pytest.mark.parametrize(
        "name, value, reason",
        [
            ("request_count", 2.9, "request_count must be an integer"),
            ("seed", True, "seed must be an integer"),
            ("partner_id", 5, "partner_id must be a string"),
            ("k", "3", "k must be an integer"),
            ("bot_fraction", True, "bot_fraction must be a number"),
            ("bot_fraction", 10**400, "int too large to convert to float"),
            ("click_probability", {"stereotype": "0.5"}, "click_probability of stereotype must be a number"),
            ("click_probability", [["stereotype", 0.5]], "click_probability must be a JSON object"),
        ],
        ids=[
            "float", "boolean-seed", "integer-partner", "text-k", "boolean-fraction", "huge-fraction",
            "text-p", "list",
        ],
    )
    def test_spec_value_of_another_type_is_a_one_line_data_error(
        self, tmp_path, capsys, name, value, reason
    ):
        store, partners, spec = self.setup_inputs(tmp_path)
        raw = json.loads(spec.read_text(encoding="utf-8"))
        spec.write_text(json.dumps({**raw, name: value}), encoding="utf-8")
        capsys.readouterr()
        assert self.simulate(store, partners, spec, tmp_path / "logs") == 2
        assert capsys.readouterr() == ("", f"docrecs: invalid simulation spec: {reason}\n")

    def test_empty_store_is_a_one_line_data_error(self, tmp_path, capsys):
        partners, spec = write_partners(tmp_path), write_sim_spec(tmp_path)
        (tmp_path / "store").mkdir()
        assert self.simulate(tmp_path / "store", partners, spec, tmp_path / "logs") == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "docrecs: cannot index an empty corpus store\n")

    def test_bot_share_of_deliveries_tracks_fraction(self, tmp_path, capsys):
        store, partners, spec = self.setup_inputs(tmp_path, bot_fraction=0.5, request_count=400)
        logs = tmp_path / "logs"
        assert (
            run(
                [
                    "simulate",
                    "--store",
                    str(store),
                    "--partners",
                    str(partners),
                    "--spec",
                    str(spec),
                    "--logs",
                    str(logs),
                ]
            )
            == 0
        )
        lines = (logs / "deliveries.jsonl").read_text().splitlines()
        bot_lines = sum(1 for line in lines if "SyntheticBot" in line)
        assert 0.4 <= bot_lines / len(lines) <= 0.6


class TestServeCommand:
    def test_serve_subprocess_answers_health_and_requests(self, tmp_path):
        corpus = write_corpus(tmp_path, n_docs=10)
        partners = write_partners(tmp_path)
        store = tmp_path / "store"
        assert run(["ingest", "--corpus", str(corpus), "--store", str(store)]) == 0

        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "docrecs",
                "serve",
                "--store",
                str(store),
                "--partners",
                str(partners),
                "--listen",
                f"127.0.0.1:{port}",
                "--logs",
                str(tmp_path / "logs"),
                "--seed",
                "3",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            base = f"http://127.0.0.1:{port}"
            deadline = time.monotonic() + 15
            body = None
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(f"{base}/v1/health", timeout=1) as resp:
                        body = resp.read()
                    break
                except OSError:
                    time.sleep(0.1)
            assert body == b"ok", "server did not come up"
            doc_id = json.loads((tmp_path / "docs.jsonl").read_text().splitlines()[0])["id"]
            with urllib.request.urlopen(
                f"{base}/v1/documents/{doc_id}/related_documents/?count=2", timeout=5
            ) as resp:
                payload = resp.read()
            assert payload.count(b"<related_document ") == 2
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()

    def ingested(self, tmp_path):
        corpus = write_corpus(tmp_path, n_docs=10)
        store = tmp_path / "store"
        assert run(["ingest", "--corpus", str(corpus), "--store", str(store)]) == 0
        return store, write_partners(tmp_path)

    def test_listen_on_port_zero_prints_the_bound_port(self, tmp_path):
        store, partners = self.ingested(tmp_path)
        with serving(store, partners, tmp_path / "logs") as (_, host_port, banner):
            assert host_port != banner, banner
            host, _, port = host_port.rpartition(":")
            assert host == "127.0.0.1" and int(port) > 0
            with urllib.request.urlopen(f"http://{host_port}/v1/health", timeout=5) as resp:
                assert resp.read() == b"ok"

    def test_list_recommendation_id_in_history_is_skipped(self, tmp_path):
        store, partners = self.ingested(tmp_path)
        logs = tmp_path / "logs"
        bad = dict(GOOD_DELIVERY, recommendation_id=["rec-2"])
        write_logs(logs, [GOOD_DELIVERY, bad], [GOOD_CLICK])
        with serving(store, partners, logs) as (proc, host_port, banner):
            assert host_port != banner, proc.communicate(timeout=10)[1]
            request = urllib.request.Request(
                f"http://{host_port}/v1/recommendations/rec-1/clicks", method="POST"
            )
            with urllib.request.urlopen(request, timeout=5) as resp:
                assert resp.status == 204  # the well-formed line still counts

    def test_torn_store_line_is_skipped_and_reported(self, tmp_path):
        store, partners = self.ingested(tmp_path)
        with (store / "documents.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"id": "c", "tit')
        with serving(store, partners, tmp_path / "logs") as (proc, host_port, banner):
            assert host_port != banner, banner
            proc.terminate()
            _, err = proc.communicate(timeout=10)
        assert f"docrecs: {store}: ignored a torn final line (16 bytes)" in err


@pytest.mark.parametrize("command", ["ingest", "serve", "simulate"])
def test_repeated_store_id_is_a_one_line_data_error(tmp_path, capsys, command):
    corpus = write_corpus(tmp_path, n_docs=3)
    store = tmp_path / "store"
    assert run(["ingest", "--corpus", str(corpus), "--store", str(store)]) == 0
    path = store / "documents.jsonl"
    first = path.read_text(encoding="utf-8").splitlines(keepends=True)[0]
    with path.open("a", encoding="utf-8") as fh:
        fh.write(first)
    capsys.readouterr()
    partners, logs = write_partners(tmp_path), tmp_path / "logs"
    if command == "serve":  # in a child process, so that a server that does start is stopped
        with serving(store, partners, logs) as (proc, _, banner):
            assert banner == ""
            code, (out, err) = proc.wait(timeout=30), proc.communicate()
    else:
        args = {
            "ingest": ["--corpus", str(corpus)],
            "simulate": ["--partners", str(partners), "--spec", str(write_sim_spec(tmp_path)),
                         "--logs", str(logs)],
        }[command]
        code = run([command, "--store", str(store), *args])
        out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.endswith("line 4: duplicate id\n")


def test_ingest_and_report_do_not_load_the_http_layer():
    http_layer = ("docrecs.service", "docrecs.simulate", "socketserver")
    code = f"import sys, docrecs, docrecs.cli; print([m for m in {http_layer!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
