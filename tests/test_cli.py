"""CLI subcommands, exit codes, config precedence, and simulation runs."""

from __future__ import annotations

import contextlib
import csv
import json
import random
import subprocess
import sys
import time
import urllib.request

import pytest

from docrecs.cli import run

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
