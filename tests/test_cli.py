"""CLI subcommands called in-process through main(argv)."""

import argparse
import json

import numpy as np
import pytest

from crystalembed import cli, downstream
from crystalembed.cli import build_parser, main
from crystalembed.downstream import DownstreamConfig, validate_report
from crystalembed.embeddings import load_table, save_table_csv
from crystalembed.errors import NumericsError
from crystalembed.periodic_graph import build_periodic_graph
from crystalembed.structures import (CrystalStructure, save_jsonl,
                                     serialize_jsonl)
from crystalembed.synthetic import (make_labeled_structures,
                                    make_pretraining_structures)
from crystalembed.training import PretrainConfig, load_state

from helpers import (cubic_structure, multiplicity_histogram_by_triangle,
                     rocksalt_structure, supercell)
from test_downstream import small_table, with_a_test_only_element

CUBIC_NA_CIF = """\
data_na_test
_cell_length_a 4.0
_cell_length_b 4.0
_cell_length_c 4.0
_cell_angle_alpha 90.0
_cell_angle_beta 90.0
_cell_angle_gamma 90.0
loop_
_atom_site_label
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Na 0.0 0.0 0.0
"""

FAST_PRETRAIN = ["--dim", "8", "--num-layers", "1", "--rbf-count", "4",
                 "--epochs", "2", "--batch-size", "4"]
FAST_DOWNSTREAM = ["--dim", "8", "--num-layers", "1", "--rbf-count", "4",
                   "--epochs", "3", "--batch-size", "8"]


@pytest.fixture()
def pre_jsonl(tmp_path):
    path = tmp_path / "pre.jsonl"
    save_jsonl(path, make_pretraining_structures(24, seed=1))
    return path


@pytest.fixture()
def lab_jsonl(tmp_path):
    path = tmp_path / "lab.jsonl"
    save_jsonl(path, make_labeled_structures(40, seed=5))
    return path


def run_pretrain(tmp_path, pre_jsonl, extra=()):
    out = tmp_path / "run"
    code = main(["pretrain", "--data", str(pre_jsonl), "--out", str(out),
                 *FAST_PRETRAIN, *extra])
    assert code == 0
    return out


def run_extract(tmp_path, pre_jsonl, fmt="csv"):
    run = run_pretrain(tmp_path, pre_jsonl)
    out = tmp_path / "emb"
    code = main(["extract", "--checkpoint", str(run / "final.ckpt"),
                 "--data", str(pre_jsonl), "--out", str(out),
                 "--format", fmt])
    assert code == 0
    return out / f"embeddings.{fmt}"


# -- ingest --------------------------------------------------------------

def test_ingest_cif_and_jsonl_inputs(tmp_path, pre_jsonl, capsys):
    cif = tmp_path / "na.cif"
    cif.write_text(CUBIC_NA_CIF)
    out = tmp_path / "ing"
    code = main(["ingest", str(cif), str(pre_jsonl), "--cutoff", "5.0",
                 "--out", str(out)])
    assert code == 0
    assert "ingested 25 structures (0 failed)" in capsys.readouterr().out
    stats = json.loads((out / "stats.json").read_text())
    assert stats["num_structures"] == 25
    assert stats["site_count_histogram"] == {"1": 1, "2": 24}
    assert stats["edge_counts"]["min"] >= 1
    assert (out / "dataset.jsonl").read_text().count("\n") == 25
    assert (out / "ingest_config.json").exists()


def test_ingest_corrupt_file_exits_1_and_lists_it(tmp_path, capsys):
    good = tmp_path / "na.cif"
    good.write_text(CUBIC_NA_CIF)
    bad = tmp_path / "broken.cif"
    bad.write_text("data_x\nnot a cif\n")
    out = tmp_path / "ing"
    code = main(["ingest", str(good), str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "broken.cif" in err
    # valid inputs are still ingested
    stats = json.loads((out / "stats.json").read_text())
    assert stats["num_structures"] == 1
    assert stats["num_failed"] == 1


def test_ingest_rejects_unknown_extension(tmp_path, capsys):
    weird = tmp_path / "data.txt"
    weird.write_text("whatever")
    code = main(["ingest", str(weird), "--out", str(tmp_path / "ing")])
    assert code == 1
    assert "data.txt" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["latin1.cif", "latin1.jsonl"])
def test_ingest_counts_a_non_utf8_input_as_failed(tmp_path, capsys, name):
    if name.endswith(".cif"):
        text = CUBIC_NA_CIF.replace("data_na_test", "data_na_t\u00e9st")
    else:  # serialize_jsonl escapes the accent; unescape it
        text = serialize_jsonl(CrystalStructure(
            4.0 * np.eye(3), np.zeros((1, 3)), np.array([11]),
            id="caf\u00e9")).replace("\\u00e9", "\u00e9") + "\n"
    bad = tmp_path / name
    bad.write_bytes(text.encode("latin-1"))
    good = tmp_path / "na.cif"
    good.write_text(CUBIC_NA_CIF)
    out = tmp_path / "ing"
    assert main(["ingest", str(bad), str(good), "--out", str(out)]) == 1
    assert f"ingest failed: {bad}: " in capsys.readouterr().err
    stats = json.loads((out / "stats.json").read_text())
    assert stats["num_structures"] == 1
    assert stats["num_failed"] == 1


@pytest.mark.parametrize("name, content, reason", [
    ("bad.jsonl", b'{"lattice": [4, 0, 0, 0, 4, 0, 0, 0, 4], "frac_coords": '
     b'[[0, 0, 0]], "atomic_numbers": [true]}\n',
     ":1: field 'atomic_numbers' must hold JSON integers, got True"),
    ("latin1.cif", CUBIC_NA_CIF.replace("na_test", "na_t\u00e9st").encode("latin-1"),
     ": 'utf-8' codec can't decode byte 0xe9 in position "),
    ("empty.cif", b"data_empty\n", ": missing required CIF tag _cell_length_a"),
    ("data.txt", b"whatever", ": unsupported input extension '.txt'"),
], ids=["jsonl-record", "cif-not-utf8", "cif-unparsable", "extension"])
def test_ingest_failure_line_names_the_file_once(tmp_path, capsys, name,
                                                 content, reason):
    bad = tmp_path / name
    bad.write_bytes(content)
    assert main(["ingest", str(bad), "--out", str(tmp_path / "ing")]) == 1
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith(f"ingest failed: {bad}{reason}"), line
    assert line.count(name) == 1, line


def test_ingest_cubic_toy_multiplicity_histogram(tmp_path):
    # One-site cubic cell, a=4, cutoff 5: six face neighbors, all self-pairs,
    # so the single unordered pair lands in class 3.
    cif = tmp_path / "na.cif"
    cif.write_text(CUBIC_NA_CIF)
    out = tmp_path / "ing"
    assert main(["ingest", str(cif), "--cutoff", "5.0",
                 "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["multiplicity_histogram"] == {
        "0": 0, "1": 0, "2": 0, "3": 1, "4": 0, "5": 0}


@pytest.mark.parametrize("structure, cutoff", [
    (rocksalt_structure(a=1.0), 1.05),
    (rocksalt_structure(a=1.0), 2.5),
    (cubic_structure(a=1.0), 2.5),
    *[(supercell(make_pretraining_structures(1, seed=3)[0], k), 5.0)
      for k in (2, 3, 4)],
    *[(supercell(rocksalt_structure(a=1.0), k), 1.5) for k in (2, 3, 4)],
], ids=["rocksalt", "rocksalt-far", "one-site", "synthetic-k2", "synthetic-k3",
        "synthetic-k4", "rocksalt-k2", "rocksalt-k3", "rocksalt-k4"])
def test_ingest_histogram_equals_the_upper_triangle_count(structure, cutoff):
    g = build_periodic_graph(structure, cutoff)
    got = cli._multiplicity_histogram(g)
    assert np.array_equal(got, multiplicity_histogram_by_triangle(g))
    assert got.sum() == g.num_nodes * (g.num_nodes + 1) // 2
    if g.num_nodes == 1:  # its one pair, a self pair, has 5+ connections
        assert got.tolist() == [0, 0, 0, 0, 0, 1]


def test_ingest_of_inputs_without_structures_exits_2_saying_so(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "ing"
    assert main(["ingest", str(empty), "--out", str(out)]) == 2
    assert "error: no structures in the given inputs" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_bad_cutoff_exits_2(tmp_path, capsys):
    cif = tmp_path / "na.cif"
    cif.write_text(CUBIC_NA_CIF)
    code = main(["ingest", str(cif), "--cutoff", "-1.0",
                 "--out", str(tmp_path / "ing")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, reason", [
    ("label", "x", "label must be a real number, got 'x'"),
    ("label", "", "label must be a real number, got ''"),
    ("label", [1], "label must be a real number, got [1]"),
    ("label", "3.5", "label must be a real number, got '3.5'"),
    ("label", True, "label must be a real number, got True"),
    ("label", 10**400, "label must be finite"),
    ("atomic_numbers", [10**30], "malformed array field"),
    ("atomic_numbers", [11.7], "field 'atomic_numbers' must hold JSON integers"),
    ("atomic_numbers", [True], "field 'atomic_numbers' must hold JSON integers"),
    ("frac_coords", [[True, 0, 0]], "field 'frac_coords' must hold JSON numbers"),
    ("lattice", ["4", 0, 0, 0, 4, 0, 0, 0, 4],
     "field 'lattice' must hold JSON numbers"),
    ("id", None, "field 'id' must hold a JSON string, got None"),
    ("id", [1, 2], "field 'id' must hold a JSON string, got [1, 2]"),
    ("id", 7, "field 'id' must hold a JSON string, got 7"),
], ids=["label-x", "label-empty", "label-list", "label-numeric-string",
        "label-bool", "label-past-float64", "z-beyond-int64", "z-float", "z-bool", "coord-bool",
        "lattice-string", "id-null", "id-list", "id-number"])
def test_ingest_counts_a_malformed_jsonl_field_as_failed(tmp_path, capsys,
                                                         field, value, reason):
    record = json.loads(serialize_jsonl(CrystalStructure(
        4.0 * np.eye(3), np.zeros((1, 3)), np.array([11]), label=1.0)))
    record[field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    good = tmp_path / "na.cif"
    good.write_text(CUBIC_NA_CIF)
    out = tmp_path / "ing"
    assert main(["ingest", str(bad), str(good), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"ingest failed: {bad}:1: " in err and reason in err
    stats = json.loads((out / "stats.json").read_text())
    assert stats["num_structures"] == 1
    assert stats["num_failed"] == 1


@pytest.mark.parametrize("lattice", [
    [[4.0, 0.0, 0.0], [1e308, 3.0, 0.0], [0.0, 0.0, 4.0]],
    [[4.0, 0.0, 0.0], [1e30, 3.0, 0.0], [0.0, 0.0, 4.0]],
    1e-3 * np.eye(3),
], ids=["row-1e308", "row-1e30", "tiny-cell"])
def test_ingest_unsearchable_lattice_exits_2_naming_it(tmp_path, capsys,
                                                       lattice):
    path = tmp_path / "odd.jsonl"
    path.write_text(serialize_jsonl(CrystalStructure(
        np.array(lattice), np.zeros((1, 3)), np.array([11]), id="odd")) + "\n")
    out = tmp_path / "ing"
    assert main(["ingest", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [err[0]] and err[0].startswith(
        "error: structure 'odd': cutoff 5.0 ")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_ingest_counts_an_overflowing_lattice_as_failed(tmp_path, capsys):
    bad = tmp_path / "big.jsonl"
    bad.write_text(json.dumps({
        "id": "big", "lattice": [1e308, 3, 0, 0, 4, 0, 0, 0, 4],
        "frac_coords": [[0, 0, 0]], "atomic_numbers": [6]}) + "\n")
    good = tmp_path / "na.cif"
    good.write_text(CUBIC_NA_CIF)
    out = tmp_path / "ing"
    assert main(["ingest", str(bad), str(good), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"ingest failed: {bad}:1: " in err
    assert "lattice determinant must be finite and > 0, got inf" in err
    assert "1e+308" not in (out / "dataset.jsonl").read_text()
    stats = json.loads((out / "stats.json").read_text())
    assert stats["num_structures"] == 1
    assert stats["num_failed"] == 1


# -- pretrain ------------------------------------------------------------

def test_pretrain_writes_log_checkpoints_and_config(tmp_path, pre_jsonl):
    out = run_pretrain(tmp_path, pre_jsonl)
    for name in ("log.jsonl", "best.ckpt", "final.ckpt",
                 "pretrain_config.json"):
        assert (out / name).exists()
    log_lines = (out / "log.jsonl").read_text().splitlines()
    assert len(log_lines) == 2
    effective = json.loads((out / "pretrain_config.json").read_text())
    assert effective["command"] == "pretrain"
    assert effective["config"]["dim"] == 8
    assert effective["config"]["epochs"] == 2


def test_pretrain_flags_override_config_file(tmp_path, pre_jsonl):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dim": 8, "num_layers": 1, "rbf_count": 4, "epochs": 5,
        "batch_size": 4}))
    out = tmp_path / "run"
    code = main(["pretrain", "--data", str(pre_jsonl), "--out", str(out),
                 "--config", str(cfg_path), "--epochs", "1"])
    assert code == 0
    effective = json.loads((out / "pretrain_config.json").read_text())
    assert effective["config"]["epochs"] == 1
    assert effective["config"]["dim"] == 8


def test_effective_config_is_reusable_as_config(tmp_path, pre_jsonl):
    first = run_pretrain(tmp_path, pre_jsonl)
    second = tmp_path / "run2"
    code = main(["pretrain", "--data", str(pre_jsonl), "--out", str(second),
                 "--config", str(first / "pretrain_config.json")])
    assert code == 0
    a = json.loads((first / "pretrain_config.json").read_text())["config"]
    b = json.loads((second / "pretrain_config.json").read_text())["config"]
    assert a == b


def test_pretrain_rejects_unknown_config_key(tmp_path, pre_jsonl, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dim": 8, "momentum": 0.9}))
    code = main(["pretrain", "--data", str(pre_jsonl),
                 "--out", str(tmp_path / "run"), "--config", str(cfg_path)])
    assert code == 2
    assert "momentum" in capsys.readouterr().err


def test_unknown_flag_rejected(tmp_path, pre_jsonl):
    with pytest.raises(SystemExit):
        main(["pretrain", "--data", str(pre_jsonl),
              "--out", str(tmp_path / "run"), "--bogus", "1"])


def test_numerics_error_maps_to_exit_3(tmp_path, pre_jsonl, monkeypatch,
                                       capsys):
    import crystalembed.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericsError("non-finite loss")

    monkeypatch.setattr(cli_mod, "pretrain", boom)
    code = main(["pretrain", "--data", str(pre_jsonl),
                 "--out", str(tmp_path / "run"), *FAST_PRETRAIN])
    assert code == 3
    assert "non-finite loss" in capsys.readouterr().err


# -- extract and project --------------------------------------------------

def test_extract_csv_rows_are_unit_norm(tmp_path, pre_jsonl):
    csv_path = run_extract(tmp_path, pre_jsonl, "csv")
    table = load_table(csv_path)
    present = table.vectors[table.present]
    assert present.shape[0] == 20
    assert np.allclose(np.linalg.norm(present, axis=1), 1.0, atol=1e-9)


def test_extract_json_round_trips(tmp_path, pre_jsonl):
    json_path = run_extract(tmp_path, pre_jsonl, "json")
    table = load_table(json_path)
    assert table.dim == 8
    assert (json_path.parent / "extract_config.json").exists()


def test_extract_bad_checkpoint_exits_2(tmp_path, pre_jsonl, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_text("not a checkpoint")
    code = main(["extract", "--checkpoint", str(bad), "--data",
                 str(pre_jsonl), "--out", str(tmp_path / "emb")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_project_writes_category_csv(tmp_path):
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=(3, 8, 11, 26, 79)), table_path)
    out = tmp_path / "proj"
    assert main(["project", "--table", str(table_path),
                 "--out", str(out)]) == 0
    lines = (out / "projection.csv").read_text().splitlines()
    assert lines[0] == "Z,symbol,category,x,y"
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["3", "8", "11", "26", "79"]
    assert [r[1] for r in rows] == ["Li", "O", "Na", "Fe", "Au"]
    assert all(r[2] for r in rows)
    for r in rows:
        float(r[3]), float(r[4])


def test_project_needs_three_present_elements(tmp_path, capsys):
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=(3, 8)), table_path)
    code = main(["project", "--table", str(table_path),
                 "--out", str(tmp_path / "proj")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("elements, message", [
    ([], "embedding JSON lists no element"),
    ([{"z": 1, "symbol": "H", "count": 1, "vector": [1.0]}],
     "element 0: vector has 1 values, expected dim 1000000000000"),
], ids=["no-element", "short-vector"])
def test_project_json_table_with_huge_dim_exits_2(tmp_path, capsys, elements,
                                                  message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dim": 10**12, "elements": elements}))
    code = main(["project", "--table", str(path),
                 "--out", str(tmp_path / "proj")])
    assert code == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_project_header_only_csv_table_exits_2(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("Z,symbol,count,e0,e1\n")
    out = tmp_path / "proj"
    assert main(["project", "--table", str(path), "--out", str(out)]) == 2
    assert f"error: {path}: embedding CSV lists no element" in capsys.readouterr().err
    assert not out.exists()


# -- downstream and sweep --------------------------------------------------

def test_downstream_baseline_writes_report(tmp_path, lab_jsonl, capsys):
    out = tmp_path / "ds"
    code = main(["downstream", "--data", str(lab_jsonl), "--out", str(out),
                 "--mode", "baseline", *FAST_DOWNSTREAM])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "baseline"
    assert len(report["maes"]) == 1
    assert "test MAE" in capsys.readouterr().out
    assert (out / "downstream_config.json").exists()


def test_downstream_pretrained_without_table_exits_2(tmp_path, lab_jsonl,
                                                     capsys):
    code = main(["downstream", "--data", str(lab_jsonl),
                 "--out", str(tmp_path / "ds"), "--mode", "pretrained",
                 *FAST_DOWNSTREAM])
    assert code == 2
    assert "pretrained mode requires an embedding table" in capsys.readouterr().err


def test_downstream_baseline_with_a_table_exits_2_before_any_output(
        tmp_path, lab_jsonl, capsys):
    # baseline mode never reads a table, so a --table there is a mistake
    out = tmp_path / "ds"
    code = main(["downstream", "--data", str(lab_jsonl), "--out", str(out),
                 "--mode", "baseline", "--table", str(tmp_path / "none.csv"),
                 *FAST_DOWNSTREAM])
    assert code == 2
    err = capsys.readouterr().err
    assert "baseline mode" in err and "--table" in err
    assert not (out / "report.json").exists()
    assert not (out / "downstream_config.json").exists()


def test_downstream_bad_fraction_exits_2(tmp_path, lab_jsonl, capsys):
    code = main(["downstream", "--data", str(lab_jsonl),
                 "--out", str(tmp_path / "ds"), "--label-fraction", "0.0",
                 *FAST_DOWNSTREAM])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["downstream", "sweep"])
def test_table_missing_a_data_element_exits_2(tmp_path, lab_jsonl, capsys,
                                              command):
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=(3, 8, 11)), table_path)
    out = tmp_path / "out"
    argv = [command, "--data", str(lab_jsonl), "--table", str(table_path),
            "--out", str(out), *FAST_DOWNSTREAM]
    if command == "downstream":
        argv += ["--mode", "pretrained"]
    assert main(argv) == 2
    assert "error: elements absent from embedding table: " in (
        capsys.readouterr().err)
    assert not (out / f"{command}_config.json").exists()


def test_downstream_checks_a_test_only_element_before_training(
        tmp_path, capsys, monkeypatch):
    steps = []
    monkeypatch.setattr(downstream, "adam_step",
                        lambda state, params: steps.append(params))
    data = tmp_path / "lab.jsonl"
    save_jsonl(data, with_a_test_only_element(
        make_labeled_structures(40, seed=5), DownstreamConfig().seed))
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=[z for z in range(1, 119)
                                               if z != 92]), table_path)
    out = tmp_path / "ds"
    code = main(["downstream", "--data", str(data), "--table",
                 str(table_path), "--out", str(out), "--mode", "pretrained",
                 *FAST_DOWNSTREAM])
    assert code == 2
    assert "U (Z=92)" in capsys.readouterr().err
    assert steps == []
    assert not (out / "report.json").exists()
    assert not (out / "downstream_config.json").exists()


def test_sweep_run_counting_and_outputs(tmp_path, lab_jsonl, capsys):
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=range(1, 119)), table_path)
    out = tmp_path / "sw"
    code = main(["sweep", "--data", str(lab_jsonl), "--table",
                 str(table_path), "--out", str(out), "--fractions", "1.0,0.5",
                 "--runs", "2", *FAST_DOWNSTREAM])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    # two modes x two fractions x two runs
    assert sum(len(r["maes"]) for r in report["records"]) == 8
    table_text = (out / "table.txt").read_text()
    assert "Improv.%" in table_text
    assert "Improv.%" in capsys.readouterr().out
    assert (out / "sweep_config.json").exists()


def test_sweep_with_a_nan_fraction_exits_2_before_any_run(tmp_path, lab_jsonl,
                                                          capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(downstream, "train_supervised",
                        lambda *args, **kwargs: runs.append(args))
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=range(1, 119)), table_path)
    out = tmp_path / "sw"
    code = main(["sweep", "--data", str(lab_jsonl), "--table", str(table_path),
                 "--out", str(out), "--fractions", "1,nan", "--runs", "1",
                 *FAST_DOWNSTREAM])
    assert code == 2
    assert runs == []
    assert "error:" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("present, dim", [((3,), "8"), (range(1, 119), "16")],
                         ids=["missing-elements", "dim-mismatch"])
def test_sweep_checks_its_table_before_any_run(tmp_path, lab_jsonl, capsys,
                                               monkeypatch, present, dim):
    runs = []
    monkeypatch.setattr(downstream, "train_supervised",
                        lambda *args, **kwargs: runs.append(args))
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=present), table_path)
    out = tmp_path / "sw"
    code = main(["sweep", "--data", str(lab_jsonl), "--table", str(table_path),
                 "--out", str(out), "--runs", "1", *FAST_DOWNSTREAM,
                 "--dim", dim])
    assert code == 2
    assert runs == []
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()

# -- config schema ----------------------------------------------------------

# (option string, dest) of every flag, as the hand-written parser had them
PARSER_FLAGS = {
    "pretrain": [
        ("-h", "help"), ("--help", "help"), ("--data", "data"),
        ("--out", "out"), ("--config", "config"), ("--resume", "resume"),
        ("--dim", "dim"), ("--num-layers", "num_layers"),
        ("--rbf-count", "rbf_count"), ("--cutoff", "cutoff"),
        ("--alpha", "alpha"), ("--beta", "beta"), ("--gamma", "gamma"),
        ("--lr", "lr"), ("--batch-size", "batch_size"),
        ("--epochs", "epochs"), ("--mask-ratio", "mask_ratio"),
        ("--drop-ratio", "drop_ratio"), ("--temperature", "temperature"),
        ("--class-weights", "class_weights"),
        ("--node-loss-scope", "node_loss_scope"), ("--seed", "seed"),
    ],
    "downstream": [
        ("-h", "help"), ("--help", "help"), ("--data", "data"),
        ("--out", "out"), ("--config", "config"), ("--table", "table"),
        ("--mode", "mode"), ("--dim", "dim"), ("--num-layers", "num_layers"),
        ("--rbf-count", "rbf_count"), ("--cutoff", "cutoff"),
        ("--label-fraction", "label_fraction"), ("--epochs", "epochs"),
        ("--lr", "lr"), ("--batch-size", "batch_size"),
        ("--adapter-noise", "adapter_noise"), ("--seed", "seed"),
    ],
    "sweep": [
        ("-h", "help"), ("--help", "help"), ("--data", "data"),
        ("--table", "table"), ("--out", "out"), ("--config", "config"),
        ("--fractions", "fractions"), ("--runs", "runs"),
        ("--base-seed", "base_seed"), ("--dim", "dim"),
        ("--num-layers", "num_layers"), ("--rbf-count", "rbf_count"),
        ("--cutoff", "cutoff"), ("--epochs", "epochs"), ("--lr", "lr"),
        ("--batch-size", "batch_size"), ("--adapter-noise", "adapter_noise"),
    ],
}


@pytest.mark.parametrize("command", sorted(PARSER_FLAGS))
def test_parser_flags_match_recorded_schema(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {(opt, action.dest) for action in sub.choices[command]._actions
           for opt in action.option_strings}
    assert got == set(PARSER_FLAGS[command])


@pytest.mark.parametrize("command, data, flag, allowed", [
    ("pretrain", "pre_jsonl", "--node-loss-scope", ("all", "masked")),
    ("downstream", "lab_jsonl", "--mode", ("baseline", "pretrained")),
])
def test_bad_choice_exits_2_naming_allowed_values(tmp_path, request, capsys,
                                                  command, data, flag,
                                                  allowed):
    code = main([command, "--data", str(request.getfixturevalue(data)),
                 "--out", str(tmp_path / "run"), flag, "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert all(f"'{value}'" in err for value in allowed)


def test_class_weights_flag_lands_in_effective_config(tmp_path, pre_jsonl):
    out = run_pretrain(tmp_path, pre_jsonl,
                       ["--class-weights", "0.2,1,1,1,1,1"])
    weights = [0.2, 1.0, 1.0, 1.0, 1.0, 1.0]
    effective = json.loads((out / "pretrain_config.json").read_text())
    assert effective["config"]["class_weights"] == weights
    assert list(load_state(out / "final.ckpt")[2].class_weights) == weights


@pytest.mark.parametrize("command, data, config, key", [
    ("pretrain", "pre_jsonl", {"dim": "8"}, "dim"),
    ("pretrain", "pre_jsonl", {"epochs": True}, "epochs"),
    ("pretrain", "pre_jsonl", {"class_weights": [1, "2", 1, 1, 1, 1]},
     "class_weights"),
    ("downstream", "lab_jsonl", {"label_fraction": "0.5"}, "label_fraction"),
    ("downstream", "lab_jsonl", {"seed": 1.5}, "seed"),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, request, capsys,
                                            command, data, config, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main([command, "--data", str(request.getfixturevalue(data)),
                 "--out", str(tmp_path / "run"), "--config", str(cfg_path)])
    assert code == 2
    assert repr(key) in capsys.readouterr().err


def test_config_takes_int_for_float_and_list_for_tuple(tmp_path, pre_jsonl,
                                                       lab_jsonl):
    cfg_path = tmp_path / "pre.json"
    cfg_path.write_text(json.dumps({"cutoff": 5, "alpha": 10,
                                    "class_weights": [1, 2, 2, 2, 2, 3]}))
    out = run_pretrain(tmp_path, pre_jsonl, ["--config", str(cfg_path)])
    effective = json.loads((out / "pretrain_config.json").read_text())
    assert effective["config"]["class_weights"] == [1.0, 2.0, 2.0, 2.0, 2.0, 3.0]

    cfg_path = tmp_path / "ds.json"
    cfg_path.write_text(json.dumps({"label_fraction": 1, "lr": 1}))
    assert main(["downstream", "--data", str(lab_jsonl),
                 "--out", str(tmp_path / "ds"), "--config", str(cfg_path),
                 *FAST_DOWNSTREAM]) == 0


def test_extract_checkpoint_without_arrays_exits_2(tmp_path, pre_jsonl,
                                                   capsys):
    ckpt = run_pretrain(tmp_path, pre_jsonl) / "final.ckpt"
    line, body = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    del header["arrays"]
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + body)
    code = main(["extract", "--checkpoint", str(ckpt), "--data",
                 str(pre_jsonl), "--out", str(tmp_path / "emb")])
    assert code == 2
    assert "lacks 'arrays'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(final checkpoint, data) of one short pretraining run; read only."""
    root = tmp_path_factory.mktemp("trained")
    data = root / "pre.jsonl"
    save_jsonl(data, make_pretraining_structures(24, seed=1))
    assert main(["pretrain", "--data", str(data), "--out", str(root / "run"),
                 *FAST_PRETRAIN]) == 0
    return root / "run" / "final.ckpt", data


ENTRY = "needs a string 'name' and a 'shape' of sizes >= 0"


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["arrays"][0].pop("shape"), ENTRY),
    (lambda h: h["arrays"][0].pop("name"), ENTRY),
    (lambda h: h["arrays"][0].update(shape=[-1]), ENTRY),
    (lambda h: h["arrays"][0].update(shape=[2.0]), ENTRY),
    (lambda h: h["arrays"].__setitem__(0, "w"), ENTRY),
    (lambda h: h.update(epoch="x"), "'epoch' must be int, got 'x'"),
    (lambda h: h.update(epoch=True), "'epoch' must be int, got True"),
    (lambda h: h.update(arrays={}), "'arrays' must be list, got {}"),
    (lambda h: h.update(history=5), "'history' must be list, got 5"),
    (lambda h: h.update(config=[]), "'config' must be dict, got []"),
    (lambda h: h.update(adam=None), "'adam' must be dict, got None"),
], ids=["no-shape", "no-name", "negative-size", "float-size", "entry-not-object",
        "epoch-str", "epoch-bool", "arrays-object", "history-int", "config-list",
        "adam-null"])
def test_extract_malformed_checkpoint_header_exits_2(tmp_path, trained, capsys,
                                                     edit, message):
    ckpt, data = trained
    line, body = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
    code = main(["extract", "--checkpoint", str(bad), "--data", str(data),
                 "--out", str(tmp_path / "emb")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_extract_checkpoint_with_an_unread_array_exits_2_before_any_output(
        tmp_path, trained, capsys):
    ckpt, data = trained
    line, body = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["arrays"].append({"name": "stray", "shape": [2]})
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + body + bytes(16))
    out = tmp_path / "emb"
    code = main(["extract", "--checkpoint", str(bad), "--data", str(data),
                 "--out", str(out)])
    assert code == 2
    assert "checkpoint holds array stray," in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("history", [[5], [{"epoch": 1}]],
                         ids=["entry-int", "entry-without-losses"])
def test_resume_malformed_history_exits_2(tmp_path, trained, capsys, history):
    ckpt, data = trained
    line, body = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["history"] = history
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
    code = main(["pretrain", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--resume", str(bad), *FAST_PRETRAIN])
    assert code == 2
    assert "checkpoint history entry 0" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("flag, name", [
    ("--data", "data.jsonl"), ("--table", "table.csv"),
    ("--table", "table.json"), ("--checkpoint", "model.ckpt"),
    ("--config", "config.json"), ("--resume", "model.ckpt")])
def test_unreadable_input_path_exits_2(tmp_path, pre_jsonl, capsys, flag,
                                       name, kind):
    bad = tmp_path / name
    if kind == "directory":
        bad.mkdir()
    elif kind == "not-utf8":
        bad.write_bytes(b"\x80\x81 latin-1 \xe9\n")
    argv = {
        "--data": ["pretrain", "--data", str(bad), *FAST_PRETRAIN],
        "--table": ["project", "--table", str(bad)],
        "--checkpoint": ["extract", "--checkpoint", str(bad),
                         "--data", str(pre_jsonl)],
        "--config": ["pretrain", "--data", str(pre_jsonl),
                     "--config", str(bad), *FAST_PRETRAIN],
        "--resume": ["pretrain", "--data", str(pre_jsonl),
                     "--resume", str(bad), *FAST_PRETRAIN],
    }[flag]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {bad}: " in capsys.readouterr().err


def test_sweep_without_fractions_exits_2(tmp_path, lab_jsonl, capsys):
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=range(1, 119)), table_path)
    out = tmp_path / "sw"
    code = main(["sweep", "--data", str(lab_jsonl), "--table",
                 str(table_path), "--out", str(out), "--fractions", "",
                 *FAST_DOWNSTREAM])
    assert code == 2
    assert "error: fractions" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["ingest", "pretrain", "extract",
                                     "downstream", "sweep", "project"])
def test_failed_command_leaves_no_effective_config(tmp_path, pre_jsonl,
                                                   lab_jsonl, command):
    out = tmp_path / "out"
    if command == "ingest":
        cif = tmp_path / "na.cif"
        cif.write_text(CUBIC_NA_CIF)
        argv = ["ingest", str(cif), "--cutoff", "-1"]
    elif command == "pretrain":
        argv = ["pretrain", "--data", str(pre_jsonl), "--resume",
                str(tmp_path / "missing.ckpt"), *FAST_PRETRAIN]
    elif command == "extract":
        bad = tmp_path / "bad.ckpt"
        bad.write_text("not a checkpoint")
        argv = ["extract", "--checkpoint", str(bad), "--data", str(pre_jsonl)]
    elif command == "downstream":
        argv = ["downstream", "--data", str(lab_jsonl), "--label-fraction",
                "0", *FAST_DOWNSTREAM]
    elif command == "sweep":
        table_path = tmp_path / "table.csv"
        save_table_csv(small_table(dim=8, present=range(1, 119)), table_path)
        argv = ["sweep", "--data", str(lab_jsonl), "--table", str(table_path),
                "--fractions", "", *FAST_DOWNSTREAM]
    else:
        table_path = tmp_path / "table.csv"
        save_table_csv(small_table(dim=8, present=(3, 8)), table_path)
        argv = ["project", "--table", str(table_path)]
    assert main([*argv, "--out", str(out)]) == 2
    assert not (out / f"{command}_config.json").exists()


def test_one_parser_tree_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=(3, 8, 11)), table_path)
    argv = ["project", "--table", str(table_path), "--out", str(tmp_path / "p")]
    assert main(argv) == 0
    first = len(built)
    assert main(argv) == 0
    assert len(built) == first


def _contract_run(command, tmp_path, pre_jsonl, lab_jsonl, trained):
    """(argv without --out, every non-config input main should record, the
    config flags given) of one quick successful run of command."""
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=range(1, 119)), table_path)
    table = str(table_path)
    if command == "ingest":
        cif = tmp_path / "na.cif"
        cif.write_text(CUBIC_NA_CIF)
        return (["ingest", str(cif), "--cutoff", "4.5"],
                {"inputs": [str(cif)], "cutoff": 4.5}, None)
    if command == "pretrain":
        return (["pretrain", "--data", str(pre_jsonl), *FAST_PRETRAIN],
                {"data": str(pre_jsonl), "resume": None},
                {"dim": 8, "num_layers": 1, "rbf_count": 4, "epochs": 2,
                 "batch_size": 4})
    if command == "extract":
        ckpt, data = trained
        return (["extract", "--checkpoint", str(ckpt), "--data", str(data),
                 "--format", "json"],
                {"checkpoint": str(ckpt), "data": str(data), "format": "json"},
                None)
    if command == "downstream":
        return (["downstream", "--data", str(lab_jsonl), "--table", table,
                 "--mode", "pretrained", "--seed", "3", *FAST_DOWNSTREAM],
                {"data": str(lab_jsonl), "table": table},
                {"mode": "pretrained", "seed": 3, "dim": 8, "num_layers": 1,
                 "rbf_count": 4, "epochs": 3, "batch_size": 8})
    if command == "sweep":
        return (["sweep", "--data", str(lab_jsonl), "--table", table,
                 "--fractions", "1.0", "--runs", "1", "--base-seed", "2",
                 *FAST_DOWNSTREAM],
                {"data": str(lab_jsonl), "table": table, "fractions": [1.0],
                 "runs": 1, "base_seed": 2},
                {"dim": 8, "num_layers": 1, "rbf_count": 4, "epochs": 3,
                 "batch_size": 8})
    return ["project", "--table", table], {"table": table}, None


CONFIG_CLASSES = {"pretrain": PretrainConfig, "downstream": DownstreamConfig,
                  "sweep": DownstreamConfig}


@pytest.mark.parametrize("command", ["ingest", "pretrain", "extract",
                                     "downstream", "sweep", "project"])
def test_effective_config_records_every_parsed_input(tmp_path, pre_jsonl,
                                                     lab_jsonl, trained,
                                                     command):
    argv, inputs, flags = _contract_run(command, tmp_path, pre_jsonl,
                                        lab_jsonl, trained)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    path = out / f"{command}_config.json"
    effective = json.loads(path.read_text())
    want = {"command": command, **inputs}
    if command in CONFIG_CLASSES:
        want["config"] = CONFIG_CLASSES[command].from_dict(flags).to_dict()
    assert effective == json.loads(json.dumps(want))  # tuples as lists
    if command in CONFIG_CLASSES:
        # the file fed back as --config, without the flags, gives the config
        again = tmp_path / "again"
        data = ["--data", inputs["data"]]
        if "table" in inputs:
            data += ["--table", inputs["table"]]
        assert main([command, *data, "--config", str(path),
                     "--out", str(again)]) == 0
        replay = json.loads((again / f"{command}_config.json").read_text())
        assert replay["config"] == effective["config"]


def test_failed_resume_leaves_no_run_directory(tmp_path, pre_jsonl, capsys):
    out = tmp_path / "run"
    code = main(["pretrain", "--data", str(pre_jsonl), "--resume",
                 str(tmp_path / "missing.ckpt"), "--out", str(out),
                 *FAST_PRETRAIN])
    assert code == 2
    assert "missing.ckpt" in capsys.readouterr().err
    assert not out.exists()


def test_resume_to_fewer_epochs_than_run_exits_2(tmp_path, trained, capsys):
    ckpt, data = trained  # a 2-epoch run
    out = tmp_path / "run"
    code = main(["pretrain", "--data", str(data), "--out", str(out),
                 "--resume", str(ckpt), *FAST_PRETRAIN, "--epochs", "1"])
    assert code == 2
    assert "resume asks for 1 epochs, but the checkpoint has run 2" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda h: h.update(epoch=1),
    lambda h: h["history"].reverse(),
    lambda h: h["history"].append(dict(h["history"][-1])),
], ids=["stamped-early", "out-of-order", "repeated"])
def test_resume_history_not_one_to_epoch_exits_2(tmp_path, trained, capsys, edit):
    ckpt, data = trained
    line, body = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
    code = main(["pretrain", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--resume", str(bad), *FAST_PRETRAIN, "--epochs", "3"])
    assert code == 2
    assert f"{bad}: checkpoint history epochs must run 1..{header['epoch']}" in (
        capsys.readouterr().err)


def test_extract_non_finite_checkpoint_array_exits_2(tmp_path, trained, capsys):
    ckpt, data = trained
    line, body = ckpt.read_bytes().split(b"\n", 1)
    name = json.loads(line)["arrays"][0]["name"]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(line + b"\n" + np.array([np.nan], "<f8").tobytes() + body[8:])
    code = main(["extract", "--checkpoint", str(bad), "--data", str(data),
                 "--out", str(tmp_path / "emb")])
    assert code == 2
    assert f"error: {bad}: array {name} holds non-finite values" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command, flags, field", [
    ("pretrain", ["--lr", "nan"], "lr"),
    ("pretrain", ["--alpha", "nan"], "alpha"),
    ("pretrain", ["--temperature", "inf"], "temperature"),
    ("pretrain", ["--cutoff", "inf"], "cutoff"),
    ("pretrain", ["--class-weights", "0.1,1,1,inf,1,1"], "class_weights"),
    ("pretrain", ["--config", "gamma-nan.json"], "gamma"),
    ("downstream", ["--lr", "nan"], "lr"),
    ("downstream", ["--adapter-noise", "inf"], "adapter_noise"),
    ("sweep", ["--lr=-inf"], "lr"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_non_finite_config_float_exits_2_before_any_output(
        tmp_path, pre_jsonl, lab_jsonl, capsys, command, flags, field):
    if flags[0] == "--config":
        flags = ["--config", str(tmp_path / flags[1])]
        (tmp_path / "gamma-nan.json").write_text('{"gamma": NaN}')
    table_path = tmp_path / "table.csv"
    save_table_csv(small_table(dim=8, present=range(1, 119)), table_path)
    argv = {"pretrain": ["--data", str(pre_jsonl), *FAST_PRETRAIN],
            "downstream": ["--data", str(lab_jsonl), *FAST_DOWNSTREAM],
            "sweep": ["--data", str(lab_jsonl), "--table", str(table_path),
                      *FAST_DOWNSTREAM]}[command]
    out = tmp_path / "out"
    assert main([command, *argv, *flags, "--out", str(out)]) == 2
    assert f"error: {field} must be finite" in capsys.readouterr().err
    assert not out.exists()


PAST_INT64 = "99999999999999999999"


@pytest.mark.parametrize("message, shown, command, flags", [
    ("Unable to allocate 859. TiB for an array with shape (118, 1000000000000)",
     "Unable to allocate 859. TiB", "pretrain", []),
    ("", "out of memory", "pretrain", []),
    # sizes NumPy cannot describe: refused before anything is allocated
    (None, "bad encoder dimensions", "pretrain", ["--dim", PAST_INT64]),
    (None, "bad encoder dimensions", "pretrain", ["--config", {"dim": 2**62}]),
    (None, "bad encoder dimensions", "downstream", ["--dim", PAST_INT64]),
], ids=["numpy-message", "bare", "dim-past-int64", "config-dim-2**62",
        "downstream-dim-past-int64"])
def test_allocation_failure_exits_2_without_effective_config(
        tmp_path, pre_jsonl, lab_jsonl, capsys, monkeypatch, message, shown,
        command, flags):
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    if message is not None:
        monkeypatch.setattr(cli, "pretrain", allocate)
    if flags[:1] == ["--config"]:
        (tmp_path / "cfg.json").write_text(json.dumps(flags[1]))
        flags = ["--config", str(tmp_path / "cfg.json")]
    data, fast = {"pretrain": (pre_jsonl, FAST_PRETRAIN),
                  "downstream": (lab_jsonl, FAST_DOWNSTREAM)}[command]
    out = tmp_path / "out"
    # fast[:2] is "--dim 8", which would override a --config dim
    assert main([command, "--data", str(data), "--out", str(out), *fast[2:],
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and shown in err and err.count("\n") == 1
    assert not (out / f"{command}_config.json").exists()


def test_uncaught_exception_exits_4_with_its_traceback(tmp_path, pre_jsonl,
                                                       capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "pretrain", broken)
    out = tmp_path / "out"
    argv = ["pretrain", "--data", str(pre_jsonl), "--out", str(out),
            *FAST_PRETRAIN]
    with pytest.raises(RuntimeError):  # main lets it through
        main(argv)
    capsys.readouterr()
    monkeypatch.setattr("sys.argv", ["crystalembed", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().endswith("RuntimeError: a bug")
    assert not (out / "pretrain_config.json").exists()


def test_entry_exits_with_the_code_main_returns(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["crystalembed", "pretrain", "--data",
                                     str(tmp_path / "absent.jsonl"), "--out",
                                     str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == 2
