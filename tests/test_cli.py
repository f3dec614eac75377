"""CLI subcommands called in-process through main(argv)."""

import argparse
import json

import numpy as np
import pytest

from crystalembed.cli import build_parser, main
from crystalembed.downstream import validate_report
from crystalembed.embeddings import load_table, save_table_csv
from crystalembed.errors import NumericsError
from crystalembed.structures import save_jsonl
from crystalembed.synthetic import (make_labeled_structures,
                                    make_pretraining_structures)
from crystalembed.training import load_state

from test_downstream import small_table

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


def test_ingest_bad_cutoff_exits_2(tmp_path, capsys):
    cif = tmp_path / "na.cif"
    cif.write_text(CUBIC_NA_CIF)
    code = main(["ingest", str(cif), "--cutoff", "-1.0",
                 "--out", str(tmp_path / "ing")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
    assert "--table" in capsys.readouterr().err


def test_downstream_bad_fraction_exits_2(tmp_path, lab_jsonl, capsys):
    code = main(["downstream", "--data", str(lab_jsonl),
                 "--out", str(tmp_path / "ds"), "--label-fraction", "0.0",
                 *FAST_DOWNSTREAM])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
