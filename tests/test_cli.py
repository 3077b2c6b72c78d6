import errno
import json
import zlib

import pytest

from monet import service, sigstore
from monet.behavior_graph import graph_from_json, graph_to_json
from monet.cli import main
from monet.corpus import generate_family, malicious_graph
from monet.pipeline import runtime_graph, static_graph
from monet.app_model import parse_package
from monet.trace import build_sss, parse_trace

from conftest import write_version_one_store

PKG_SRC = """\
package com.t.app
component activity com.t.Main
component service com.t.Work

method com.t.Main onCreate {
  b0: v1 = this; v2 = class com.t.Work; i = intent(v1, v2); start_service(i) ->
}
"""

TRACE_SRC = """\
{"app": "com.t.app"}
{"seq": 1, "kind": "binder", "caller": "com.t.Work", "target": {"type": "system", "value": "PhoneSubInfo"}, "code": 4, "content": "getDeviceId"}
{"seq": 2, "kind": "syscall", "call": "socket", "detail": "C2.example.NET:9090"}
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "app.mir").write_text(PKG_SRC)
    (tmp_path / "run.trace").write_text(TRACE_SRC)
    return tmp_path


def test_sbg_output_is_byte_identical_to_library(workdir, capsys):
    out = workdir / "sbg.json"
    assert main(["sbg", str(workdir / "app.mir"), "-o", str(out)]) == 0
    assert out.read_text() == graph_to_json(static_graph(parse_package(PKG_SRC)))


def test_rbg_pipeline_matches_library(workdir):
    out = workdir / "rbg.json"
    rc = main(["rbg", "--pkg", str(workdir / "app.mir"), "--trace", str(workdir / "run.trace"),
               "-o", str(out)])
    assert rc == 0
    expect = runtime_graph(parse_package(PKG_SRC), parse_trace(TRACE_SRC))
    assert out.read_text() == graph_to_json(expect)


def test_sss_output_matches_library(workdir, capsys):
    assert main(["sss", str(workdir / "run.trace")]) == 0
    obj = json.loads(capsys.readouterr().out)
    sss = build_sss(parse_trace(TRACE_SRC))
    assert obj == {"endpoints": sorted(sss.endpoints), "executables": sorted(sss.executables)}


def test_sim_prints_four_decimals_and_exact_flag(workdir, capsys):
    rbg = workdir / "rbg.json"
    main(["rbg", "--pkg", str(workdir / "app.mir"), "--trace", str(workdir / "run.trace"),
          "-o", str(rbg)])
    assert main(["sim", str(rbg), str(rbg)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1.0000 exact=true"


def test_worked_example_prints_0_9167(tmp_path, capsys):
    from test_matcher import worked_example_pair

    g1, g2 = worked_example_pair()
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    p1.write_text(graph_to_json(g1))
    p2.write_text(graph_to_json(g2))
    assert main(["sim", str(p1), str(p2)]) == 0
    assert capsys.readouterr().out.startswith("0.9167 ")


def test_sim_prints_bound_when_search_is_cut_short(tmp_path, capsys, monkeypatch):
    from monet import matcher
    from test_matcher import worked_example_pair

    g1, g2 = worked_example_pair()
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    p1.write_text(graph_to_json(g1))
    p2.write_text(graph_to_json(g2))
    monkeypatch.setattr(matcher, "SEARCH_BUDGET", 0)
    assert main(["sim", str(p1), str(p2)]) == 0
    value, exact, bound = capsys.readouterr().out.split()
    assert exact == "exact=false"
    assert float(value) <= 0.9167 <= float(bound.removeprefix("bound="))


def test_decouple_writes_cluster_files(workdir, tmp_path):
    t = generate_family(42)
    rbg_file = tmp_path / "full.json"
    rbg_file.write_text(graph_to_json(runtime_graph(t.base_pkg, t.base_trace)))
    out_dir = tmp_path / "clusters"
    assert main(["decouple", str(rbg_file), "-o", str(out_dir)]) == 0
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 2
    clusters = [graph_from_json(f.read_text()) for f in files]
    assert clusters[0].app_count >= clusters[1].app_count


def test_sign_then_match_exit_codes(tmp_path, capsys):
    t = generate_family(43)
    mal = malicious_graph(t)
    graph_file = tmp_path / "mal.json"
    graph_file.write_text(graph_to_json(mal))
    store_dir = tmp_path / "store"
    assert main(["sign", "--family", "famZ", "--rbg", str(graph_file),
                 "--store", str(store_dir)]) == 0
    capsys.readouterr()

    rc = main(["match", "--store", str(store_dir), "--rbg", str(graph_file)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["decision"] == "malicious"
    assert out["family"] == "famZ"
    assert out["score"] == 1.0

    benign = generate_family(44)
    other = tmp_path / "other.json"
    other.write_text(graph_to_json(malicious_graph(benign)))
    rc = main(["match", "--store", str(store_dir), "--rbg", str(other)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["decision"] == "clean"


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_data_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mir"
    bad.write_text("nonsense\n")
    assert main(["sbg", str(bad)]) == 3
    assert main(["sbg", str(tmp_path / "missing.mir")]) == 3
    err = capsys.readouterr().err
    assert "monet:" in err


def test_malformed_store_manifest_is_a_data_error(tmp_path, capsys):
    graph_file = tmp_path / "mal.json"
    graph_file.write_text(graph_to_json(malicious_graph(generate_family(43))))
    store_dir = tmp_path / "store"
    assert main(["sign", "--family", "famZ", "--rbg", str(graph_file),
                 "--store", str(store_dir)]) == 0
    store_file = store_dir / "store.dat"
    manifest_line, *graph_lines = store_file.read_bytes().splitlines(keepends=True)
    manifest = json.loads(manifest_line[9:])
    del manifest["families"][0]["graph_count"]
    payload = json.dumps(manifest).encode() + b"\n"
    store_file.write_bytes(b"%08x %s" % (zlib.crc32(payload), payload) + b"".join(graph_lines))
    assert main(["match", "--store", str(store_dir), "--rbg", str(graph_file)]) == 3
    assert "monet:" in capsys.readouterr().err


def test_sign_into_version_one_store_is_a_data_error(tmp_path, capsys):
    graph = malicious_graph(generate_family(43))
    graph_file = tmp_path / "mal.json"
    graph_file.write_text(graph_to_json(graph))
    store_dir = tmp_path / "store"
    files = write_version_one_store(store_dir, graph)
    assert main(["sign", "--family", "famZ", "--rbg", str(graph_file),
                 "--store", str(store_dir)]) == 3
    assert "monet:" in capsys.readouterr().err
    on_disk = {p.relative_to(store_dir).as_posix(): p.read_bytes()
               for p in store_dir.rglob("*") if p.is_file()}
    assert on_disk == files


def test_failed_first_save_leaves_the_new_directory_empty(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "mal.json"
    graph_file.write_text(graph_to_json(malicious_graph(generate_family(43))))
    store_dir = tmp_path / "store"

    def no_space(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sigstore.os, "fsync", no_space)
    argv = ["sign", "--family", "famZ", "--rbg", str(graph_file), "--store", str(store_dir)]
    assert main(argv) == 3
    monkeypatch.undo()
    assert list(store_dir.iterdir()) == []
    assert main(argv) == 0
    capsys.readouterr()


MALFORMED_SSS = ['{"endpoints": 5}', '{"executables": "abc"}', '["a:1"]']


@pytest.mark.parametrize("sss_text", MALFORMED_SSS)
def test_match_rejects_malformed_sss_file(tmp_path, capsys, sss_text):
    graph_file = tmp_path / "mal.json"
    graph_file.write_text(graph_to_json(malicious_graph(generate_family(43))))
    store_dir = tmp_path / "store"
    assert main(["sign", "--family", "famZ", "--rbg", str(graph_file),
                 "--store", str(store_dir)]) == 0
    (tmp_path / "sss.json").write_text(sss_text)
    assert main(["match", "--store", str(store_dir), "--rbg", str(graph_file),
                 "--sss", str(tmp_path / "sss.json")]) == 3
    assert "monet:" in capsys.readouterr().err


@pytest.mark.parametrize("blacklist_text", MALFORMED_SSS)
def test_sign_rejects_malformed_blacklist_file(tmp_path, capsys, blacklist_text):
    graph_file = tmp_path / "mal.json"
    graph_file.write_text(graph_to_json(malicious_graph(generate_family(43))))
    (tmp_path / "bl.json").write_text(blacklist_text)
    store_dir = tmp_path / "store"
    assert main(["sign", "--family", "famZ", "--rbg", str(graph_file),
                 "--store", str(store_dir), "--blacklist", str(tmp_path / "bl.json")]) == 3
    assert not (store_dir / "store.dat").exists()
    assert "monet:" in capsys.readouterr().err


def test_serve_without_store_is_a_usage_error(capsys):
    assert main(["serve"]) == 2
    assert "--store" in capsys.readouterr().err


@pytest.mark.parametrize("listen", ["127.0.0.1:abc", "127.0.0.1:99999"])
def test_serve_rejects_a_bad_listen_address(tmp_path, capsys, monkeypatch, listen):
    monkeypatch.setattr(service, "make_server", lambda *args: pytest.fail("server started"))
    graph_file = tmp_path / "mal.json"
    graph_file.write_text(graph_to_json(malicious_graph(generate_family(43))))
    store_dir = str(tmp_path / "store")
    assert main(["sign", "--family", "famZ", "--rbg", str(graph_file), "--store", store_dir]) == 0
    capsys.readouterr()
    assert main(["serve", "--store", store_dir, "--listen", listen]) == 3
    err = capsys.readouterr().err
    assert err.startswith("monet: listen address") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["match", "serve", "eval"])
@pytest.mark.parametrize("option, value", [("--threshold", "0"), ("--threshold", "1.5"),
                                           ("--threshold", "nan"), ("--alpha", "-1")])
def test_out_of_range_threshold_or_alpha_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                          command, option, value):
    monkeypatch.setattr(service, "serve", lambda *args: pytest.fail("server started"))
    missing = str(tmp_path / "missing")
    argv = {"match": ["match", "--store", missing, "--rbg", missing],
            "serve": ["serve", "--store", missing],
            "eval": ["eval", "--families", "1", "--variants", "1", "--benign", "1"]}[command]
    assert main([*argv, option, value]) == 2
    assert option.lstrip("-") in capsys.readouterr().err


def test_debug_dataflow_dump(workdir, tmp_path):
    dump = tmp_path / "df.json"
    assert main(["sbg", str(workdir / "app.mir"), "-o", str(tmp_path / "g.json"),
                 "--debug-dataflow", str(dump)]) == 0
    obj = json.loads(dump.read_text())
    entry = obj["com.t.Main.onCreate"]
    assert entry["cfg"]["entry"] == "b0"
    assert "in" in entry["defsets"] and "out" in entry["defsets"]
    assert any(ids for ids in entry["defsets"]["out"].values())


def test_eval_subcommand_emits_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["eval", "--families", "2", "--variants", "4", "--benign", "4",
               "--seed", "5", "-o", str(out)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "rbg_only" in table
    report = json.loads(out.read_text())
    assert report["modes"]["rbg_only"]["tp"] + report["modes"]["rbg_only"]["fn"] == 8
