from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import jsonschema
import pytest

from coresat import cli
from coresat import metrics as metrics_mod
from coresat.cli import GENERATE_EDGE_LIMIT, main
from coresat.metrics import DIRECT_BITSET_LIMIT

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"

BUTTERFLY_EDGELIST = "# n=5 m=6\n0 1\n0 2\n0 3\n0 4\n1 2\n3 4\n"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / name, encoding="ascii") as handle:
        return json.load(handle)


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


@pytest.mark.parametrize("method", ["numeric", "both"])
def test_spectrum_dense_limit_is_read_before_building(method, capsys, monkeypatch):
    def refuse(params):
        raise AssertionError(f"built a graph for {params}")

    monkeypatch.setattr(cli, "generalized_core_satellite", refuse)
    argv = ["spectrum", "--core", "300", "--satellites", "1:20000", "--dense-limit", "50"]
    code, out, err = run([*argv, "--method", method], capsys)
    assert (code, out, err) == (2, "", "error: n=20300 exceeds dense limit 50\n")


def test_metrics_and_sweep_bitset_limit(capsys):
    # 25000 satellite pairs: n=50001 and m=75000 are within the limits, but
    # each satellite row reaches its own index, about n**2 / 2 bits in all
    message = (
        "error: bitset rows of 1250125001 bits exceed the direct metrics "
        f"limit {DIRECT_BITSET_LIMIT}\n"
    )
    code, out, err = run(["metrics", "--core", "1", "--satellites", "2:25000"], capsys)
    assert (code, out, err) == (2, "", message)
    code, out, err = run(["sweep", "--cores", "1", "--sizes", "2", "--pmax", "25000"], capsys)
    assert (code, out, err) == (2, "", message)


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
    assert payload["tolerance"] == 1e-9


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
    """A closed form one triangle off is reported, for any class list."""
    real = metrics_mod.analytic_metrics

    def one_off(params, **kwargs):
        return dataclasses.replace(real(params, **kwargs), triangles=real(params).triangles + 1)

    monkeypatch.setattr(metrics_mod, "analytic_metrics", one_off)
    code, out, err = run(["metrics", "--core", "4", "--satellites", "3:2,5:1"], capsys)
    assert code == 1
    assert json.loads(out)["agreement"] is False
    assert "disagree" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9", "x"])
def test_tol_must_be_finite_and_positive(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--core", "4", "--satellites", "3:2", "--tol", value])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_dense_limit_must_be_positive(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--core", "2", "--satellites", "1:1,2:1", "--dense-limit", value])
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
        "generalized-spectra": "max deviation 0.0e+00 (all 20 cases skipped)",
        "laplacian-spectra": "max deviation 0.0e+00 (all 145 cases skipped)",
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


# sha256 of `metrics` stdout, unchanged since the generalized closed forms
METRICS_SHA256 = {
    ("5", "5:9"): "3efd64da6ac3dc6ae71bd21baab1eb0f165db6d0353ab30aa8182ed53104902d",
    ("6", "2:12,4:10,6:8"): "525b689f314de5a83ba5e1d5246d56cd75ee2bf1f6ff35086a422a44335c5f72",
    ("8", "2:20,4:30,6:25"): "1d67809306437d57e19c0c3169b1e9b1fe27f1b88f7ca943aa5f514bb2222bc9",
    ("20", "6:130"): "f07afe0bbc87352f09e95b394ebb4087a56133e2fbd892ec43229a5d8dc83a12",
    ("10", "3:100,5:100,7:100"): "a1914a317ceaed956f15929c795bdf8fff363cf27173955a3854db7784217fa3",
    ("1", "2:2"): "4614d4898a70ea645eb0e80b96d65f999ed3e83f8d39e761de9e568fda83092b",
    ("1", "1:1"): "54cb203c811623f604e998e6bb9fc3158fd7a7e052cb8cf93a8d9bc09ae731dd",
}


@pytest.mark.parametrize("core, satellites", sorted(METRICS_SHA256))
def test_metrics_bytes_unchanged(core, satellites, capsys):
    code, out, _ = run(["metrics", "--core", core, "--satellites", satellites], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == METRICS_SHA256[core, satellites]


# sha256 of `verify` stdout with the dense eigensolver's deviations masked:
# those last digits depend on the LAPACK build
VERIFY_SHA256 = {
    (): "aaeae740854c105926bbc7bf450d3f1ce566062fabcecdecc13adf2a89f72fc9",
    ("--fault-triangle-sign",): "7bf5ef00adb498e42ec8f2003b61a91af4fc69759ec2b5434f22f1e9e2d632fb",
}


@pytest.mark.parametrize("flags", sorted(VERIFY_SHA256))
def test_verify_bytes_unchanged(flags, capsys):
    code, out, _ = run(["verify", *flags], capsys)
    assert code == (1 if flags else 0)
    masked, count = re.subn(r"max deviation \S+", "max deviation *", out)
    assert count == 3
    assert hashlib.sha256(masked.encode("ascii")).hexdigest() == VERIFY_SHA256[flags]
