from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import add_one_to_a_multiplicity
from coresat import cli, oracle, spectra
from coresat import metrics as metrics_mod
from coresat.cli import GENERATE_EDGE_LIMIT, SWEEP_EDGE_LIMIT, main
from coresat.params import GeneralizedParams

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"

BUTTERFLY_EDGELIST = "# n=5 m=6\n0 1\n0 2\n0 3\n0 4\n1 2\n3 4\n"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / name, encoding="ascii") as handle:
        return json.load(handle)


def _object_schemas(node):
    """Every sub-schema of ``node`` that lists required keys."""
    if isinstance(node, dict):
        if "required" in node:
            yield node
        for child in node.values():
            yield from _object_schemas(child)
    elif isinstance(node, list):
        for child in node:
            yield from _object_schemas(child)


@pytest.mark.parametrize("name", sorted(path.name for path in SCHEMA_DIR.glob("*.json")))
def test_schemas_are_valid_and_require_only_known_keys(name):
    schema = load_schema(name)
    jsonschema.Draft202012Validator.check_schema(schema)
    objects = list(_object_schemas(schema))
    assert objects
    for node in objects:
        assert set(node["required"]) <= set(node["properties"]), node["required"]


def run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_stdout(capsys):
    code, out, err = run(
        ["generate", "--core", "1", "--satellites", "2:2"], capsys
    )
    assert code == 0
    assert out == BUTTERFLY_EDGELIST
    assert err == "n=5 m=6\n"


def test_generate_to_file(tmp_path, capsys):
    target = tmp_path / "butterfly.el"
    code, out, err = run(
        ["generate", "--core", "1", "--satellites", "2:2", "-o", str(target)],
        capsys,
    )
    assert code == 0
    assert target.read_text(encoding="ascii") == BUTTERFLY_EDGELIST
    assert out == "n=5 m=6\n"
    assert err == ""


def test_generate_formats(capsys):
    code, out, _ = run(
        ["generate", "--core", "1", "--satellites", "2:2", "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert out.startswith("graph {\n")
    code, out, _ = run(
        ["generate", "--core", "1", "--satellites", "2:2", "--format", "mtx"],
        capsys,
    )
    assert code == 0
    assert out.startswith("%%MatrixMarket matrix coordinate pattern symmetric\n")


def test_generate_is_deterministic(capsys):
    argv = ["generate", "--core", "3", "--satellites", "2:2,4:1", "--format", "mtx"]
    first = run(argv, capsys)
    second = run(argv, capsys)
    assert first == second


def test_generate_node_limit(capsys):
    code, _, err = run(
        ["generate", "--core", "1", "--satellites", "1000001:1"], capsys
    )
    assert code == 2
    assert "error:" in err


def test_edge_limit_is_read_before_building(capsys):
    # n=100001 is within the node limit, m=5,000,050,000 is not;
    # building that graph would exhaust memory long before any output
    argv = ["--core", "100000", "--satellites", "1:1"]
    for command in ("generate", "metrics"):
        code, out, err = run([command, *argv], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: m=5000050000 exceeds the limit {GENERATE_EDGE_LIMIT}\n"
    # n=1501 is small, m=1,125,750 is over the limit
    code, out, err = run(["metrics", "--core", "1500", "--satellites", "1:1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: m=1125750 exceeds the limit {GENERATE_EDGE_LIMIT}\n"
    # the sweep checks its largest row before computing the first
    code, out, err = run(["sweep", "--cores", "3,1500", "--sizes", "1", "--pmax", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: m=1125750 exceeds the limit {GENERATE_EDGE_LIMIT}\n"


def test_sweep_total_is_read_before_building(capsys, monkeypatch):
    def refuse(params):
        raise AssertionError(f"built a graph for {params}")

    # every row is small (n <= 100001, m <= 150000), but the 50000 rows
    # sum to m=3,750,075,000
    monkeypatch.setattr(cli, "generalized_core_satellite", refuse)
    code, out, err = run(["sweep", "--cores", "1", "--sizes", "2", "--pmax", "50000"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: the sweep's rows sum to m=3750075000, over the limit {SWEEP_EDGE_LIMIT}\n"
    # the default sweep's 300 rows sum to m=1,884,400, well within it
    assert cli._sweep_edges((3, 5, 10), (3, 5, 7), 100) == 1884400


@pytest.mark.parametrize(
    "cores, sizes, pmax",
    [((3, 5, 10), (3, 5, 7), 100), ((1,), (2,), 1), ((2, 7, 2), (1, 1, 4), 13), ((4,), (6, 2), 2)],
)
def test_sweep_total_equals_the_sum_over_its_rows(cores, sizes, pmax):
    rows = [GeneralizedParams(c, [(s, p) for s in sizes]) for c in cores for p in range(1, pmax + 1)]
    assert cli._sweep_edges(cores, sizes, pmax) == sum(params.m for params in rows)


@pytest.mark.parametrize("method", ["numeric", "both"])
def test_spectrum_size_limits_are_read_before_building(method, capsys, monkeypatch):
    def refuse(params):
        raise AssertionError(f"built a graph for {params}")

    monkeypatch.setattr(cli, "generalized_core_satellite", refuse)
    for satellites, error in (
        ("1:20000", f"m=6044850 exceeds the limit {GENERATE_EDGE_LIMIT}"),
        ("1:1000000", "n=1000300 exceeds the limit 1000000"),
    ):
        argv = ["spectrum", "--core", "300", "--satellites", satellites]
        code, out, err = run([*argv, "--method", method], capsys)
        assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("method", ["analytic", "numeric", "both"])
def test_spectrum_dense_limit_counts_classes(method, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("graph or matrix built")

    # 2000 satellite sizes and the core: 2001 cells.  The closed forms
    # build no graph and stop at the guard of oracle.symmetric_quotient,
    # before its matrix; the numeric routes stop at the node limit, before
    # any graph
    monkeypatch.setattr(cli, "generalized_core_satellite", refused)
    monkeypatch.setattr(np, "zeros", refused)
    monkeypatch.setattr(spectra, "eigenvalues_symmetric", refused)
    satellites = ",".join(f"{size}:1" for size in range(1, 2001))
    argv = ["spectrum", "--core", "1", "--satellites", satellites, "--method", method]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    if method == "analytic":
        assert err == "error: a quotient of 2001 cells exceeds the dense limit 2000\n"
    else:
        assert err == "error: n=2001001 exceeds the limit 1000000\n"


@pytest.mark.parametrize("method", ["analytic", "both"])
def test_spectrum_solves_the_quotient_once(method, capsys, monkeypatch):
    solves = []
    real = spectra.eigenvalues_symmetric

    def counted(matrix):
        solves.append(matrix)
        return real(matrix)

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", counted)
    argv = ["spectrum", "--core", "2", "--satellites", "1:1,2:3", "--method", method]
    code, _, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert len(solves) == 1


@pytest.mark.parametrize("route", ["adjacency", "laplacian"])
def test_spectrum_wrong_multiplicity_exits_1(route, capsys, monkeypatch):
    # one multiplicity too many: the sizes differ, so no deviation is taken
    add_one_to_a_multiplicity(monkeypatch, f"{route}_spectrum_gcs")
    code, out, err = run(["spectrum", "--core", "2", "--satellites", "2:3"], capsys)
    assert (code, out) == (1, "")
    assert err == f"spectrum: 9 {route} eigenvalues for n=8\n"


def test_metrics_admits_a_graph_of_many_satellite_pairs(capsys):
    # 50000 satellite pairs: n=100001 nodes in 50001 runs, but two
    # classes, so two bitset rows
    code, out, err = run(["metrics", "--core", "1", "--satellites", "2:50000"], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["n"], payload["m"], payload["direct"]["triangles"]) == (100001, 150000, 50000)
    assert payload["agreement"] is True


def test_metrics_on_a_large_star(capsys):
    # n=40001 nodes, but the hub's row is the only wide one
    code, out, err = run(["metrics", "--core", "1", "--satellites", "1:40000"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["m"]) == (40001, 40000)
    direct = payload["direct"]
    assert (direct["triangles"], direct["p2"], direct["avg_clustering"]) == (
        0,
        40000 * 39999 // 2,
        0.0,
    )
    assert direct["assortativity"] == -1.0
    assert payload["agreement"] is True


def test_metrics_butterfly_json(capsys):
    code, out, err = run(["metrics", "--core", "1", "--satellites", "2:2"], capsys)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("metrics.schema.json"))
    assert payload["core"] == 1
    assert payload["satellites"] == [{"size": 2, "count": 2}]
    assert (payload["n"], payload["m"]) == (5, 6)
    direct = payload["direct"]
    assert direct["triangles"] == 2
    assert (direct["p1"], direct["p2"], direct["p3"], direct["s13"]) == (6, 10, 8, 4)
    assert direct["avg_clustering"] == pytest.approx(13 / 15, abs=1e-12)
    assert direct["transitivity"] == 0.6
    assert direct["assortativity"] == -0.5
    assert direct["assortativity_estrada"] == -0.5
    assert payload["analytic"] == direct
    assert payload["agreement"] is True
    assert "tolerance" not in payload


def test_metrics_complete_graph_null_assortativity(capsys):
    code, out, _ = run(["metrics", "--core", "2", "--satellites", "3:1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("metrics.schema.json"))
    assert payload["direct"]["assortativity"] is None
    assert payload["analytic"]["assortativity"] is None
    assert payload["agreement"] is True


def test_metrics_multiclass_compares_an_analytic_block(capsys):
    for spec in ("1:1,2:1", "3:2,5:1"):
        code, out, _ = run(["metrics", "--core", "4", "--satellites", spec], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("metrics.schema.json"))
        assert payload["analytic"] == payload["direct"]
        assert payload["agreement"] is True
    assert payload["direct"]["triangles"] == 146


def test_metrics_disagreement_exits_1(capsys, monkeypatch):
    """A closed form one triangle or one ulp off is reported, for any class list."""
    real = metrics_mod.analytic_metrics
    for field, change in (
        ("triangles", lambda x: x + 1),
        ("avg_clustering", lambda x: math.nextafter(x, 0.0)),
    ):

        def off(params, **kwargs):
            rep = real(params, **kwargs)
            return dataclasses.replace(rep, **{field: change(getattr(rep, field))})

        monkeypatch.setattr(metrics_mod, "analytic_metrics", off)
        code, out, err = run(["metrics", "--core", "4", "--satellites", "3:2,5:1"], capsys)
        assert code == 1
        assert json.loads(out)["agreement"] is False
        assert "disagree" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9", "x"])
def test_tol_must_be_finite_and_positive(value, capsys):
    for argv in (["spectrum", "--core", "4", "--satellites", "3:2"], ["verify"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tol" in err and "unrecognized" not in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_dense_limit_must_be_positive(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dense-limit", value])
    assert exc.value.code == 2
    assert "--dense-limit" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_max_n_must_be_positive(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-n", value])
    assert exc.value.code == 2
    assert "--max-n" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["generate", "--core", "2", "--satellites", "2:2"], ["--tol", "1e-9"]),
        (["generate", "--core", "2", "--satellites", "2:2"], ["--dense-limit", "10"]),
        (["metrics", "--core", "2", "--satellites", "2:2"], ["--dense-limit", "10"]),
        (["sweep", "--pmax", "1"], ["--tol", "1e-9"]),
        (["sweep", "--pmax", "1"], ["--dense-limit", "10"]),
        (["metrics", "--core", "2", "--satellites", "2:2"], ["--tol", "1e-9"]),
        (["spectrum", "--core", "2", "--satellites", "2:2"], ["--dense-limit", "10"]),
    ],
)
def test_subcommands_refuse_flags_they_do_not_read(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_metrics_output_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["metrics", "--core", "4", "--satellites", "3:5", "-o", str(a)], capsys)
    run(["metrics", "--core", "4", "--satellites", "3:5", "-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_mixed_example(capsys):
    code, out, err = run(
        ["spectrum", "--core", "2", "--satellites", "1:1,2:1"], capsys
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("spectrum.schema.json"))
    assert payload["method"] == "both"
    assert payload["bounds"] == {"lower": 3, "upper": 4}
    assert payload["degenerate"] is False
    adjacency = payload["adjacency"]
    assert len(adjacency["analytic"]) == 4
    assert adjacency["analytic"][0][1] == 1
    assert [-1.0, 2] in adjacency["analytic"]
    assert len(adjacency["numeric"]) == 5
    assert adjacency["max_abs_deviation"] <= 1e-9
    laplacian = payload["laplacian"]
    assert laplacian["analytic"] == [[5.0, 2], [4.0, 1], [2.0, 1], [0.0, 1]]
    assert laplacian["max_abs_deviation"] <= 1e-9
    assert payload["spectral_radius"] == pytest.approx(3.323404276, abs=1e-8)
    assert payload["sync_index"] == 0.4
    assert payload["algebraic_connectivity"] == 2.0


def test_spectrum_degenerate_single_satellite(capsys):
    code, out, _ = run(["spectrum", "--core", "2", "--satellites", "3:1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("spectrum.schema.json"))
    assert payload["degenerate"] is True
    assert payload["bounds"] is None
    assert payload["adjacency"]["analytic"] == [[4.0, 1], [-1.0, 4]]
    assert payload["spectral_radius"] == 4.0


def test_spectrum_single_satellite_indices_read_its_laplacian(capsys):
    # K_5: the only positive Laplacian eigenvalue is 5, so the algebraic
    # connectivity is 5 and the sync index 1, not c = 2 and c/n = 0.4
    code, out, _ = run(["spectrum", "--core", "2", "--satellites", "3:1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["laplacian"]["analytic"] == [[5.0, 4], [0.0, 1]]
    assert payload["laplacian"]["numeric"] == [5.0, 5.0, 5.0, 5.0, 0.0]
    assert payload["algebraic_connectivity"] == 5.0
    assert payload["sync_index"] == 1.0


def test_spectrum_analytic_only(capsys):
    code, out, _ = run(
        ["spectrum", "--core", "3", "--satellites", "2:4", "--method", "analytic"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("spectrum.schema.json"))
    assert payload["adjacency"]["numeric"] is None
    assert payload["adjacency"]["max_abs_deviation"] is None
    assert payload["laplacian"]["numeric"] is None


def test_spectrum_past_float_range_exits_2(capsys):
    big = 10**154
    for core, satellites in (
        (big, f"3:{big}"),
        (10**308, "1:2"),
        (2 * 10**308, "1:1"),
        (1, f"1:{17 * 10**307},2:{8 * 10**307}"),
    ):
        argv = ["spectrum", "--core", str(core), "--satellites", satellites]
        code, out, err = run([*argv, "--method", "analytic"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: parameters exceed the float range of the spectra\n"
    # just inside the range the same request still answers
    code, out, _ = run(
        ["spectrum", "--core", str(10**307), "--satellites", "1:2", "--method", "analytic"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["spectral_radius"] == 1e307


def test_spectrum_impossible_tolerance_fails(capsys):
    code, _, err = run(
        ["spectrum", "--core", "2", "--satellites", "1:1,2:1", "--tol", "1e-18"],
        capsys,
    )
    assert code == 1
    assert "disagree" in err


def test_sweep_small(capsys):
    code, out, err = run(
        ["sweep", "--cores", "2", "--sizes", "3", "--pmax", "2"], capsys
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "c,p,n,m,avg_clustering,transitivity,assortativity"
    # p=1 collapses to a complete graph: assortativity is undefined and
    # the field is left empty
    assert lines[1] == "2,1,5,10,1,1,"
    fields = lines[2].split(",")
    assert fields[:4] == ["2", "2", "8", "19"]
    assert float(fields[4]) == pytest.approx(25 / 28, abs=1e-11)
    assert float(fields[5]) == pytest.approx(10 / 13, abs=1e-11)
    assert float(fields[6]) < 0


def test_sweep_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["sweep", "--cores", "3,5", "--sizes", "2,3", "--pmax", "3"]
    run(argv + ["-o", str(a)], capsys)
    run(argv + ["-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text(encoding="ascii").splitlines()
    assert len(rows) == 1 + 2 * 3


def test_verify_passes_by_default(capsys):
    code, out, _ = run(["verify", "--max-n", "10"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].split()[-1] == "pass"
    assert all("FAIL" not in line for line in lines)
    names = [line.split()[0] for line in lines[:-1]]
    assert "adjacency-spectra" in names
    assert "divergence" in names


def test_verify_catches_injected_fault(capsys):
    code, out, _ = run(
        ["verify", "--max-n", "8", "--fault-triangle-sign"], capsys
    )
    assert code == 1
    assert "clustering-closed-forms" in out
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert any(line.startswith("clustering-closed-forms") for line in failing)


def test_verify_says_when_a_check_skipped_every_case(capsys):
    code, out, _ = run(["verify", "--max-n", "1", "--dense-limit", "1"], capsys)
    assert code == 0
    skipped = {
        line.split()[0]: line.split("  ")[-1]
        for line in out.splitlines()
        if "skipped" in line
    }
    assert skipped == {
        "subgraph-enumeration": "0 graphs enumerated (all 125 cases skipped)",
        "adjacency-spectra": "max deviation 0.0e+00 (all 125 cases skipped)",
        "generalized-spectra": "max deviation 0.0e+00 (all 21 cases skipped)",
        "laplacian-spectra": "max deviation 0.0e+00 (all 146 cases skipped)",
    }
    # the benchmark reads each figure back as a float
    assert [float(x) for x in re.findall(r"max deviation (\S+)", out)] == [0.0] * 3


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run(["metrics", "--core", "0", "--satellites", "2:2"], capsys)
    assert code == 2
    assert "error:" in err
    code, _, err = run(["metrics", "--core", "1", "--satellites", "0:2"], capsys)
    assert code == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--core", "1", "--satellites", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    for value in ("0", "-3"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pmax", value])
        assert exc.value.code == 2
        assert "--pmax" in capsys.readouterr().err


def _run_module(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m coresat.cli`` in a child process, with the package on its path."""
    src = str(SCHEMA_DIR.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "coresat.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
    )


def test_module_entry_point_runs_main(capsys):
    # only a process of its own runs the module's ``__main__`` line
    argv = ["sweep", "--pmax", "2"]
    child = _run_module(argv)
    code, out, err = run(argv, capsys)
    assert (child.returncode, code) == (0, 0)
    assert child.stdout == out.encode("ascii")
    assert child.stderr == err.encode("ascii") == b""
    usage = _run_module(["sweep", "--pmax", "0"])
    assert usage.returncode == 2
    assert usage.stdout == b""
    assert b"--pmax" in usage.stderr


# sha256 of `metrics` stdout, unchanged since its `tolerance` key was dropped
METRICS_SHA256 = {
    ("5", "5:9"): "39ef67820e8ba750dfee94bce752b03176256eb2814d62624760b25c22b9d663",
    ("6", "2:12,4:10,6:8"): "68815f2ca3826286f3a28110ec34212d1d6fa173a52cb5ff65a1ff1ce6f1b82a",
    ("8", "2:20,4:30,6:25"): "ac8fa72aa2e838c1ceb81ce6196c141846327eb2fb12ea35454897a0be053dd6",
    ("20", "6:130"): "0cac6f0446a8b81f280761b28245b8ae3cca06bedd329ae085d1ec3f8969d490",
    ("10", "3:100,5:100,7:100"): "d0d22c1e2c797a229383fdff6ad331667ba006df2f33425cb1d0c3a7ed20a729",
    ("1", "2:2"): "04faf314d091ff85620312420749f52af8242b006086b6f374837227fa6ea7ac",
    ("1", "1:1"): "4f3d9b0c90486edf1a99cdbaa3efc08e34a61a67f14a20aa334eb458e64ce50c",
}


@pytest.mark.parametrize("core, satellites", sorted(METRICS_SHA256))
def test_metrics_bytes_unchanged(core, satellites, capsys):
    code, out, _ = run(["metrics", "--core", core, "--satellites", satellites], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == METRICS_SHA256[core, satellites]


# sha256 of `spectrum --method analytic` stdout, and of `--method both`
# stdout with its numeric lists and deviations masked: the numeric digits
# depend on the LAPACK build
SPECTRUM_SHA256 = {
    ("5", "5:9"): (
        "32adc2f652139bf609d93f93dd6aef9ec2b287b6c088582a293cfa3186086c79",
        "888970583131c9e743d57f382ee4749cddca52a4f61633ef03034bebe509855b",
    ),
    ("6", "2:12,4:10,6:8"): (
        "f86277523e71df59af1809d731e7df469a993ac4aa51c840e2104bf9780f4823",
        "fc35e58459ccbeea3c2800ffd9f83fc0fd9d1890a45e4c7c9750003e69c903f0",
    ),
    ("8", "2:20,4:30,6:25"): (
        "023c4183240f9c3588a9bdb1c4b4585ccd8197ced91982bece85fd99e1d19c70",
        "65c2ed7c1252fc48bb21031dc68253a7e1ce835d396d5a64a3823275a17e6b34",
    ),
    ("20", "6:130"): (
        "c2ddfe71efa49f8737bc41dbfc2fc17412dc3e21a28a65d5cb6f11caade94806",
        "adb494c7225148b2e830919161f032c5bc6c39c2e984089c1db2098a11323b1e",
    ),
    ("10", "3:100,5:100,7:100"): (
        "be39f5b19eb24874610fc82bcff602ca8efa840ebc1fb3aa45f7a75b87c904e9",
        "9fc2f3132da5b4fad9a48f0e345a32bd60580e45b62ef1a4ab035e6a518bd095",
    ),
    ("2", "1:3"): (
        "7520ccf8e4528010ac7eb9f98a79a39b248f9488bf101ab0c8c0451deffd89cd",
        "5d92d93b5d0878d12b35934e7bcfe8a4241431038ad65d9057f23a7653690219",
    ),
    # K_2: algebraic connectivity 2 and sync index 1, read from its Laplacian
    ("1", "1:1"): (
        "7501982e1747bca6dddf57fea660131435694d3c27ab49034a05cf12f4b7e26c",
        "eeda681522e16c35c6a0f653cf0ae9250d4cca930eecadcb941ad5769d413b96",
    ),
}


@pytest.mark.parametrize("core, satellites", sorted(SPECTRUM_SHA256))
def test_spectrum_bytes_unchanged(core, satellites, capsys):
    analytic_sha, both_sha = SPECTRUM_SHA256[core, satellites]
    argv = ["spectrum", "--core", core, "--satellites", satellites, "--method"]
    code, out, _ = run([*argv, "analytic"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == analytic_sha
    code, out, _ = run([*argv, "both"], capsys)
    assert code == 0
    masked, lists = re.subn(r'"numeric": \[[^\]]*\]', '"numeric": *', out)
    masked, deviations = re.subn(r'"max_abs_deviation": [^,\n]+', '"max_abs_deviation": *', masked)
    assert (lists, deviations) == (2, 2)
    assert hashlib.sha256(masked.encode("ascii")).hexdigest() == both_sha


@pytest.mark.parametrize("method", ["numeric", "both"])
def test_spectrum_builds_no_dense_matrix(method, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("dense matrix built")

    for name in ("adjacency_matrix", "laplacian_matrix"):
        monkeypatch.setattr(oracle, name, refused)
    argv = ["spectrum", "--core", "10", "--satellites", "3:100,5:100,7:100"]
    code, out, err = run([*argv, "--method", method], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    for block in (payload["adjacency"], payload["laplacian"]):
        assert len(block["numeric"]) == 1510
        if method == "both":
            assert block["max_abs_deviation"] <= 1e-12


# sha256 of `verify` stdout with the dense eigensolver's deviations masked:
# those last digits depend on the LAPACK build.  One entry for each set of
# flags the benchmark's verify workload runs, tolerances aside.  Taken on
# 146 parameter sets, with the fixed near-integer case
VERIFY_SHA256 = {
    (): "afc03b3b936c727b116a4d9969d38be9a1e94bb885aba32664d672f749b6793a",
    ("--fault-triangle-sign",): "7f3fdd1ed112617020c6f3d9bea2d04aeda676f388e1fe2637380a8a97f44a9f",
    ("--max-n", "8", "--dense-limit", "8"): "1171f675d7a6b6ba30da01cbe4a2ff4fad36c1df7b0f20948e0d500546f12a42",
    ("--max-n", "10"): "0cb1897d4b525620d1792e2080fce7c793570b6988228185740478b05db86536",
    ("--dense-limit", "25"): "afc03b3b936c727b116a4d9969d38be9a1e94bb885aba32664d672f749b6793a",
    ("--dense-limit", "35"): "afc03b3b936c727b116a4d9969d38be9a1e94bb885aba32664d672f749b6793a",
}


@pytest.mark.parametrize("flags", list(VERIFY_SHA256))
def test_verify_bytes_unchanged(flags, capsys):
    code, out, _ = run(["verify", *flags], capsys)
    assert code == ("--fault-triangle-sign" in flags)
    masked, count = re.subn(r"max deviation \S+", "max deviation *", out)
    assert count == 3
    assert hashlib.sha256(masked.encode("ascii")).hexdigest() == VERIFY_SHA256[flags]


# sha256 of `generate` stdout on the five graphs of the benchmark's inspect
# workload, taken from the writers that formatted one edge at a time
GENERATE_SHA256 = {
    ("5", "5:9", "edgelist"): "0daf9d2012d96f11107dc6aca70b18770448f9db1bd38a8a964ac40dc47adc67",
    ("5", "5:9", "mtx"): "fd82d9bc26da834c3819a8664cb5a7eba6414670976d3203f0ff8c76af2d09f7",
    ("5", "5:9", "dot"): "a88489e78c6e799af3d6cdad9765f6c201ad116d041ee4865677cc634227e66b",
    ("6", "2:12,4:10,6:8", "edgelist"): "c5b9868b90523cf4cdd35ae3bbcaf4f70200af3dbe554c8169d133547cf086da",
    ("6", "2:12,4:10,6:8", "mtx"): "3c11f23cd1b7f9f78dbb51947701200c8063997c812543c09927454bf32a3cf8",
    ("6", "2:12,4:10,6:8", "dot"): "195843b2de1168a91a4536cb490ef01b5f96a602f1b48ca4b5eeca344f5f2d8e",
    ("8", "2:20,4:30,6:25", "edgelist"): "da0ed664097016c58649f31c65928e762a3f610dfdea440e05efaace59d06ff5",
    ("8", "2:20,4:30,6:25", "mtx"): "5be6ff35115673c9cf0b650be333292bc62cc288c48c9df4edf5aad5f082d572",
    ("8", "2:20,4:30,6:25", "dot"): "720c55eb74b5916c6d3ee9220d294b19b64774b54fc439fcb3d79e757cddaa57",
    ("20", "6:130", "edgelist"): "5a8554e49e07b01371c7a4e52021fa668680e98a1222d4a2c2c55cdc5e2e3a6e",
    ("20", "6:130", "mtx"): "e6c25b47c5dcb10703378b475aa0f92ccf0c8caf674f5b4842fbb969b7fd6b95",
    ("20", "6:130", "dot"): "652ea0974c913a8d58d07ae3099ceb2b354ddc24b9597e4810f89f17d905c29e",
    ("10", "3:100,5:100,7:100", "edgelist"): "1fb0c5fc7585284a30d68f20474f665d9f3b3a5b47a2989795edc3b50ac17da6",
    ("10", "3:100,5:100,7:100", "mtx"): "d261ea56ac9d6719df38196c5b4f39b3f960b4b4aa434225eb098de030f43a0e",
    ("10", "3:100,5:100,7:100", "dot"): "a50d4fbf83d9bad559bd011332caa53754d0a8750a9d88ab274187fe00b6bada",
}


@pytest.mark.parametrize("core, satellites, fmt", sorted(GENERATE_SHA256))
def test_generate_bytes_unchanged(core, satellites, fmt, capsys):
    argv = ["generate", "--core", core, "--satellites", satellites, "--format", fmt]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GENERATE_SHA256[core, satellites, fmt]


def _outcome(argv: list[str], capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# each call could leave state in a shared parser for the next: a usage
# error, non-default values of flags that later calls leave at their
# defaults, one subcommand after another, and the same defaults read twice
REUSE_SEQUENCE = [
    ["generate", "--core", "2", "--satellites", "3:2", "--format", "dot"],
    ["metrics", "--core", "1", "--satellites", "2"],
    ["verify", "--dense-limit", "25"],
    ["verify"],
    ["generate", "--core", "1", "--satellites", "2:2"],
    ["spectrum", "--core", "2", "--satellites", "1:3"],
    ["sweep", "--cores", "2", "--sizes", "1", "--pmax", "2"],
    ["sweep", "--pmax", "2"],
    ["spectrum", "--core", "2", "--satellites", "1:3", "--method", "analytic", "--tol", "0.5"],
    ["spectrum", "--core", "2", "--satellites", "1:3"],
    ["sweep", "--pmax", "2"],
]


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys):
    cli._build_parser.cache_clear()
    shared = [_outcome(argv, capsys) for argv in REUSE_SEQUENCE]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    fresh = []
    for argv in REUSE_SEQUENCE:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert shared == fresh
