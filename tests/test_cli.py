import json
import time
from pathlib import Path

import pytest

import families
from leavitt_ibn import (
    cohn_cover,
    hereditary_collapse,
    parse_gtf,
    serialize_graph,
    source_free_equivalent,
)
from leavitt_ibn import cli
from leavitt_ibn.cli import EX_INTERNAL, EX_OK, EX_PARSE, EX_PRECONDITION, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "batch_report.json"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── decide ───────────────────────────────────────────────────────────


def test_decide_text(capsys):
    code, out, _ = run(capsys, "decide", fx("ex26.gtf"))
    assert code == EX_OK
    assert out == (
        "has_ibn: false\n"
        "rank_M: 2\n"
        "rank_aug: 2\n"
        "witness: m=2 n=1 d=1\n"
        "  m_vec: v1=1 v2=1\n"
        "  sigma: (empty)\n"
        "  sigma_prime: v1 v2\n"
        "  gamma: 2v1 + 2v2 + 2v3\n"
    )


def test_decide_json(capsys):
    code, out, _ = run(capsys, "decide", fx("ex26.gtf"), "--json")
    assert code == EX_OK
    assert json.loads(out) == {
        "has_ibn": False,
        "rank_M": 2,
        "rank_aug": 2,
        "witness": {
            "m": 2,
            "n": 1,
            "d": 1,
            "m_vec": {"v1": 1, "v2": 1},
            "k": {"v1": 0, "v2": 0},
            "k_prime": {"v1": 1, "v2": 1},
            "sigma": [],
            "sigma_prime": ["v1", "v2"],
            "gamma": {"v1": 2, "v2": 2, "v3": 2},
        },
    }


def test_decide_json_positive(capsys):
    code, out, _ = run(capsys, "decide", fx("f29.gtf"), "--json")
    assert code == EX_OK
    assert json.loads(out) == {
        "has_ibn": True,
        "rank_M": 2,
        "rank_aug": 3,
        "witness": None,
    }


def test_decide_is_order_invariant(capsys, tmp_path):
    base = json.loads(run(capsys, "decide", fx("ex26.gtf"), "--json")[1])
    text = Path(fx("ex26.gtf")).read_text()
    lines = [l for l in text.splitlines() if l.startswith(("vertex", "edge"))]
    permuted = "\n".join(reversed(lines)) + "\n"
    p = tmp_path / "permuted.gtf"
    p.write_text(permuted)
    got = json.loads(run(capsys, "decide", str(p), "--json")[1])
    for key in ("has_ibn", "rank_M", "rank_aug"):
        assert got[key] == base[key]


# ── witness ──────────────────────────────────────────────────────────


def test_witness_json(capsys):
    code, out, _ = run(capsys, "witness", fx("rose5.gtf"), "--json")
    assert code == EX_OK
    w = json.loads(out)
    assert (w["m"], w["n"], w["d"]) == (5, 1, 4)
    assert w["m_vec"] == {"v": 1}


def test_witness_fails_on_ibn_graph(capsys):
    code, out, err = run(capsys, "witness", fx("f29.gtf"))
    assert code == EX_PRECONDITION
    assert "NotApplicable" in err
    assert out == ""


# ── oracle ───────────────────────────────────────────────────────────


def test_oracle_json_found(capsys):
    code, out, _ = run(capsys, "oracle", fx("ex26.gtf"), "--json")
    assert code == EX_OK
    assert json.loads(out) == {
        "found": True,
        "m": 2,
        "n": 1,
        "sigma": [],
        "sigma_prime": ["v1", "v2"],
        "common": {"v1": 2, "v2": 2, "v3": 2},
    }


def test_oracle_not_found(capsys):
    code, out, _ = run(capsys, "oracle", fx("rose1.gtf"), "--json")
    assert code == EX_OK
    assert json.loads(out) == {"found": False}


def test_oracle_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("IBN_ORACLE_BUDGET", "1")
    _, out, _ = run(capsys, "oracle", fx("ex26.gtf"), "--json")
    assert json.loads(out) == {"found": False}
    # an explicit flag beats the environment
    _, out, _ = run(capsys, "oracle", fx("ex26.gtf"), "--json", "--budget", "100000")
    assert json.loads(out)["found"] is True


# ── transform ────────────────────────────────────────────────────────


def test_transform_eliminate(capsys):
    code, out, _ = run(capsys, "transform", fx("e29.gtf"), "--op", "eliminate:v0")
    assert code == EX_OK
    assert out == serialize_graph(families.f29())


def test_transform_cohn_cover_round_trips(capsys):
    code, out, _ = run(capsys, "transform", fx("ex26.gtf"), "--op", "cohn-cover")
    assert code == EX_OK
    original = parse_gtf(Path(fx("ex26.gtf")).read_text())
    assert parse_gtf(out) == cohn_cover(original)


def test_transform_source_free_form_report(capsys):
    code, out, _ = run(capsys, "transform", fx("a3.gtf"), "--op", "source-free-form")
    assert code == EX_OK
    assert out == "# eliminated: v1 v2\n# isolated_seen: true\nvertex v3\n"
    assert parse_gtf(out).vertices == ("v3",)  # comments stay parseable


def test_transform_source_free_equivalent(capsys):
    code, out, _ = run(
        capsys, "transform", fx("e29.gtf"), "--op", "source-free-equivalent"
    )
    assert code == EX_OK
    assert out == serialize_graph(source_free_equivalent(families.e29()))


def test_transform_source_free_equivalent_not_applicable(capsys):
    code, _, err = run(
        capsys, "transform", fx("a3.gtf"), "--op", "source-free-equivalent"
    )
    assert code == EX_PRECONDITION
    assert "NotApplicable" in err


def test_transform_collapse(capsys):
    code, out, _ = run(capsys, "transform", fx("ex36.gtf"), "--op", "collapse:v0+v")
    assert code == EX_OK
    assert out == serialize_graph(hereditary_collapse(families.ex36(), ["v0", "v"]))


def test_transform_collapse_not_hereditary(capsys):
    code, _, err = run(capsys, "transform", fx("ex26.gtf"), "--op", "collapse:v1")
    assert code == EX_PRECONDITION
    assert "NotHereditary" in err


def test_transform_collapse_refused_before_building_paths(capsys, tmp_path):
    # 30 diamonds give about 4**30 path edge ids; the cap refuses them up front
    p = tmp_path / "diamonds.gtf"
    p.write_text(serialize_graph(families.diamonds_into_loop(30)), encoding="utf-8")
    for op in ("collapse:w", "source-free-equivalent"):
        started = time.perf_counter()
        code, out, err = run(capsys, "transform", str(p), "--op", op)
        assert time.perf_counter() - started < 0.5, op
        assert code == EX_PRECONDITION, op
        assert out == ""
        assert "CollapseTooLarge" in err


def test_transform_attachments(capsys):
    for op in ("attach-head:v0,2", "attach-star:v0,1", "subdivide:e0,3"):
        code, out, _ = run(capsys, "transform", fx("ex33.gtf"), "--op", op)
        assert code == EX_OK
        assert parse_gtf(out).has_vertex("v0")


def test_transform_out_file(capsys, tmp_path):
    target = tmp_path / "out.gtf"
    code, out, _ = run(
        capsys, "transform", fx("ex26.gtf"), "--op", "cohn-cover", "--out", str(target)
    )
    assert code == EX_OK
    assert out == ""
    original = parse_gtf(Path(fx("ex26.gtf")).read_text())
    assert parse_gtf(target.read_text()) == cohn_cover(original)


def test_transform_bad_ops(capsys):
    for op in ("frobnicate", "attach-head:v0", "attach-head:v0,x", "collapse:", "eliminate:a,b"):
        code, _, err = run(capsys, "transform", fx("ex26.gtf"), "--op", op)
        assert code == EX_PARSE, op
        assert "error" in err


def test_transform_precondition_errors(capsys):
    code, _, err = run(capsys, "transform", fx("ex26.gtf"), "--op", "eliminate:zzz")
    assert code == EX_PRECONDITION
    assert "UnknownVertex" in err
    code, _, err = run(capsys, "transform", fx("ex26.gtf"), "--op", "attach-head:v1,0")
    assert code == EX_PRECONDITION
    assert "BadCount" in err


# ── classify ─────────────────────────────────────────────────────────


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", fx("a3.gtf"), "--json")
    assert code == EX_OK
    assert json.loads(out) == {
        "rule": "isolated-vertex",
        "evidence": {"isolated_vertex": "v3", "elimination_stage": 2},
    }


def test_classify_text_inconclusive(capsys):
    code, out, _ = run(capsys, "classify", fx("ex26.gtf"))
    assert code == EX_OK
    assert out == "rule: none (sufficient conditions are inconclusive)\n"


def test_classify_text_source_cycle(capsys):
    code, out, _ = run(capsys, "classify", fx("ex33.gtf"))
    assert code == EX_OK
    assert out == "rule: source-cycle\n  source_cycle: ['e0']\n"


def test_classify_json_on_long_cycle(capsys, tmp_path):
    h = 3000
    p = tmp_path / "cycle.gtf"
    p.write_text(serialize_graph(families.a_cycle(h)), encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(p), "--json")
    assert code == EX_OK
    assert json.loads(out) == {
        "rule": "source-cycle",
        "evidence": {"source_cycle": [f"e{i}" for i in range(h)]},
    }


def test_parser_is_built_once(capsys, monkeypatch):
    built = []

    class CountingParser(cli._Parser):
        def add_subparsers(self, **kwargs):  # only the top-level parser calls this
            built.append(self)
            return super().add_subparsers(**kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, "decide")[0] == EX_PARSE
        assert run(capsys, "explode", "x.gtf")[0] == EX_PARSE
        code, out, _ = run(capsys, "classify", fx("a3.gtf"), "--json")
        assert code == EX_OK
        assert json.loads(out)["rule"] == "isolated-vertex"
        code, out, _ = run(capsys, "decide", fx("f29.gtf"))
        assert code == EX_OK
        assert out.startswith("has_ibn: true\n")
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


# ── failure modes ────────────────────────────────────────────────────


def test_missing_file(capsys):
    code, _, err = run(capsys, "decide", "no_such_file.gtf")
    assert code == EX_PARSE
    assert "cannot read" in err


def test_malformed_file(capsys, tmp_path):
    p = tmp_path / "bad.gtf"
    p.write_text("vertex a\nnonsense b\n")
    code, _, err = run(capsys, "decide", str(p))
    assert code == EX_PARSE
    assert "line 2" in err


def test_dangling_endpoint_file(capsys, tmp_path):
    p = tmp_path / "dangling.gtf"
    p.write_text("vertex a\nedge e a b\n")
    code, _, err = run(capsys, "decide", str(p))
    assert code == EX_PARSE


def test_no_arguments(capsys):
    assert run(capsys, *[])[0] == EX_PARSE


def test_unknown_subcommand(capsys):
    assert run(capsys, "explode", "x.gtf")[0] == EX_PARSE


def test_empty_graph_is_precondition_error(capsys, tmp_path):
    p = tmp_path / "empty.gtf"
    p.write_text("# nothing\n")
    code, _, err = run(capsys, "decide", str(p))
    assert code == EX_PRECONDITION
    assert "EmptyGraph" in err


def test_json_outputs_are_valid_json_on_all_fixtures(capsys):
    non_ibn = {"ex26.gtf", "e29.gtf", "rose2.gtf", "rose5.gtf"}
    for path in sorted(FIXTURES.glob("*.gtf")):
        for cmd in ("decide", "classify", "oracle"):
            code, out, _ = run(capsys, cmd, str(path), "--json")
            assert code == EX_OK, (cmd, path.name)
            json.loads(out)
        if path.name in non_ibn:
            code, out, _ = run(capsys, "witness", str(path), "--json")
            assert code == EX_OK
            json.loads(out)


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(_g):
        raise RuntimeError("boom")

    monkeypatch.setattr("leavitt_ibn.cli.decide_ibn", broken)
    code, out, err = run(capsys, "decide", fx("ex26.gtf"))
    assert code == EX_INTERNAL
    assert err == "internal error: RuntimeError: boom\n"
    assert out == ""


# ── batch ────────────────────────────────────────────────────────────


def test_batch_matches_golden_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "batch", str(FIXTURES), "--report", str(report), "--no-timings"
    )
    assert code == EX_OK
    assert out == f"wrote 10 records to {report}\n"
    assert report.read_bytes() == GOLDEN.read_bytes()


def test_batch_with_timings(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "batch", str(FIXTURES), "--report", str(report))
    assert code == EX_OK
    records = json.loads(report.read_text())
    assert len(records) == 10
    assert all("elapsed_ms" in r for r in records)


def test_batch_requires_directory(capsys):
    code, _, err = run(capsys, "batch", fx("ex26.gtf"), "--report", "r.json")
    assert code == EX_PARSE


def test_batch_fails_fast_on_bad_file(capsys, tmp_path):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "good.gtf").write_text("vertex v\n")
    (d / "bad.gtf").write_text("vertex !!\n")
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "batch", str(d), "--report", str(report))
    assert code == EX_PARSE
    assert not report.exists()

