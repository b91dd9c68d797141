"""Command-line behavior: pipelines, exit codes, reproducible outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ensograph.cli import main
from ensograph.cube import anomalies, climatology, load_cube
from ensograph.grid import ONI_BOX, region_nodes
from ensograph.indices import oni
from ensograph.stgnn import init_params, save_checkpoint
from helpers import small_grid, tiny_config

TINY = {
    "model": {
        "layers": 2,
        "residual_channels": 4,
        "conv_channels": 4,
        "skip_channels": 4,
        "end_channels": 8,
        "kernel_size": 2,
        "dilations": [1, 1],
        "mixhop_depth": 2,
        "beta": 0.05,
        "graph": {"embed_dim": 4, "alpha": 3.0, "topk": 5},
    },
    "train": {"epochs": 2, "batch_size": 32},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A 120-month synthetic cube (1900..1909) plus a small-model config."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root / "cube"), "--months", "120", "--seed", "7"]) == 0
    (root / "config.json").write_text(json.dumps(TINY))
    return root


# ----------------------------------------------------------- parser basics

def test_no_arguments_is_usage_error():
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert "ensograph" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


# ------------------------------------------------------------------- synth

def test_synth_writes_cube_pair_and_latent(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "toy"), "--months", "60",
                 "--seed", "5", "--start", "1950-07"])
    assert code == 0
    out = capsys.readouterr().out
    assert "60 months from 1950-07" in out
    assert "130 cells" in out
    cube = load_cube(tmp_path / "toy.json")
    assert cube.values.shape == (60, 5, 26)
    assert cube.start == (1950, 7)
    latent = (tmp_path / "toy_latent.csv").read_text().splitlines()
    assert latent[0] == "year,month,latent"
    assert len(latent) == 61


def test_synth_is_reproducible(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "a"), "--months", "36", "--seed", "2"]) == 0
    assert main(["synth", "--out", str(tmp_path / "b"), "--months", "36", "--seed", "2"]) == 0
    assert (tmp_path / "a.f32").read_bytes() == (tmp_path / "b.f32").read_bytes()
    assert (tmp_path / "a_latent.csv").read_text() == (tmp_path / "b_latent.csv").read_text()


def test_synth_bad_start_month_is_usage_error(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"), "--start", "1950-13"]) == 1


# ---------------------------------------------------------------- validate

def test_validate_summarizes_cube(workdir, capsys):
    assert main(["validate", "--data", str(workdir / "cube.json")]) == 0
    out = capsys.readouterr().out
    assert "120 months x 5 lats x 26 lons" in out
    assert "1900-01..1909-12" in out
    assert "ok" in out


def test_validate_missing_file_exits_4(tmp_path):
    assert main(["validate", "--data", str(tmp_path / "nope.json")]) == 4


def test_validate_truncated_payload_exits_2(workdir, tmp_path, capsys):
    meta = tmp_path / "cut.json"
    meta.write_text((workdir / "cube.json").read_text())
    payload = (workdir / "cube.f32").read_bytes()
    (tmp_path / "cut.f32").write_bytes(payload[:-100])
    assert main(["validate", "--data", str(meta)]) == 2
    assert "payload size mismatch" in capsys.readouterr().err


# --------------------------------------------------------------------- oni

def test_oni_matches_library_composition(workdir, tmp_path):
    out = tmp_path / "oni.csv"
    code = main(["oni", "--data", str(workdir / "cube.json"), "--out", str(out),
                 "--base-period", "1900:1909"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "year,month,oni"

    cube = load_cube(workdir / "cube.json")
    series = oni(anomalies(cube, climatology(cube, (1900, 1909))), k=3)
    assert len(lines) == len(series) + 1
    got = np.array([float(line.split(",")[2]) for line in lines[1:]])
    np.testing.assert_allclose(got, series.values, atol=1e-6)
    y, m, _ = lines[1].split(",")
    assert (int(y), int(m)) == series.months()[0]


def test_oni_k_validation(workdir, tmp_path):
    args = ["oni", "--data", str(workdir / "cube.json"), "--out", str(tmp_path / "x.csv")]
    assert main(args + ["--k", "0"]) == 1
    assert main(args + ["--k", "2"]) == 1   # even windows have no center month


# ------------------------------------------------------------ train / eval

def test_train_eval_graph_export_pipeline(workdir, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    code = main(["train", "--data", str(workdir / "cube.json"), "--out", str(ckpt),
                 "--train-period", "1900:1907", "--leads", "1,3",
                 "--config", str(workdir / "config.json"), "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert ("96 months, 93 samples at window 3 (lead-1 pairing); "
            "90 multi-horizon windows at horizon 4") in out
    assert "final train loss" in out

    manifest = json.loads((tmp_path / "model.ckpt.manifest.json").read_text())
    assert manifest["train_period"] == [1900, 1907]
    assert manifest["base_period"] == [1900, 1907]
    assert manifest["leads"] == [1, 3]
    assert manifest["n_samples"] == 90
    assert set(manifest["data_files"]) == {"cube.json", "cube.f32"}
    assert manifest["model_config"]["n_nodes"] == 130
    assert manifest["model_config"]["horizon"] == 4

    table = tmp_path / "table.csv"
    preds = tmp_path / "preds.csv"
    code = main(["eval", "--data", str(workdir / "cube.json"), "--checkpoint", str(ckpt),
                 "--test-period", "1908:1909", "--leads", "1,3",
                 "--out", str(table), "--export-predictions", str(preds)])
    out = capsys.readouterr().out
    assert code == 0
    assert "test period 1908-01..1909-12" in out
    assert "model_r" in out
    rows = table.read_text().splitlines()
    assert rows[0] == "lead,model_r,model_rmse,persistence_r,persistence_rmse,n_samples"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "3"]
    assert all(r.endswith(",18") for r in rows[1:])  # 24 test months, window 3, horizon 4
    assert preds.read_text().splitlines()[0] == "lead,year,month,predicted,observed"

    # a test period the cube does not cover is a data error, not a crash
    assert main(["eval", "--data", str(workdir / "cube.json"), "--checkpoint", str(ckpt),
                 "--test-period", "1950:1960", "--leads", "1"]) == 2
    capsys.readouterr()

    edges = tmp_path / "edges.csv"
    code = main(["graph-export", "--checkpoint", str(ckpt), "--out", str(edges)])
    out = capsys.readouterr().out
    assert code == 0
    lines = edges.read_text().splitlines()
    assert lines[0] == "src_lat,src_lon,dst_lat,dst_lon,weight"
    n_edges = len(lines) - 1
    assert f"wrote {n_edges} edges" in out
    assert 0 < n_edges <= 130 * 5
    weights = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(0.0 < w < 1.0 for w in weights)
    assert weights == sorted(weights, reverse=True)


def test_train_and_eval_outputs_are_byte_identical(workdir, tmp_path, capsys):
    outs = []
    for name in ("one", "two"):
        ckpt = tmp_path / f"{name}.ckpt"
        args = ["train", "--data", str(workdir / "cube.json"), "--out", str(ckpt),
                "--train-period", "1900:1907", "--leads", "1",
                "--config", str(workdir / "config.json"), "--seed", "4"]
        assert main(args) == 0
        table = tmp_path / f"{name}.csv"
        assert main(["eval", "--data", str(workdir / "cube.json"),
                     "--checkpoint", str(ckpt), "--test-period", "1908:1909",
                     "--leads", "1", "--out", str(table)]) == 0
        outs.append((ckpt.read_bytes(),
                     (tmp_path / f"{name}.ckpt.manifest.json").read_bytes(),
                     table.read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_train_and_eval_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the determinism gate's run (default model, 3 epochs), in fresh processes,
    # since OpenBLAS reads its thread count once at import
    assert main(["synth", "--out", str(tmp_path / "cube"), "--months", "120", "--seed", "3"]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"train": {"epochs": 3}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        ckpt, table = tmp_path / f"t{threads}.ckpt", tmp_path / f"t{threads}.csv"
        for args in (["train", "--data", str(tmp_path / "cube.json"), "--out", str(ckpt),
                      "--train-period", "1900:1907", "--leads", "1,3", "--seed", "5",
                      "--config", str(cfg)],
                     ["eval", "--data", str(tmp_path / "cube.json"), "--checkpoint", str(ckpt),
                      "--test-period", "1908:1909", "--leads", "1,3", "--out", str(table)]):
            subprocess.run([sys.executable, "-m", "ensograph", *args], env=env, check=True,
                           capture_output=True, timeout=600)
        outs.append((ckpt.read_bytes(), table.read_bytes()))
    assert outs[0][0] == outs[1][0], "checkpoint bytes differ between 1 and 2 BLAS threads"
    assert outs[0][1] == outs[1][1], "skill table bytes differ between 1 and 2 BLAS threads"


def test_train_rejects_bad_config(workdir, tmp_path):
    base = ["train", "--data", str(workdir / "cube.json"),
            "--out", str(tmp_path / "m.ckpt"), "--train-period", "1900:1907"]

    bad = tmp_path / "list.json"
    bad.write_text("[]")
    assert main(base + ["--config", str(bad)]) == 1

    zero_layers = tmp_path / "layers.json"
    zero_layers.write_text(json.dumps({"model": {"layers": 0}}))
    assert main(base + ["--config", str(zero_layers)]) == 1

    # receptive field larger than the input window
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"model": {"kernel_size": 2, "dilations": [4, 8]}}))
    assert main(base + ["--config", str(wide)]) == 1

    # MAE is the only objective
    mse = tmp_path / "mse.json"
    mse.write_text(json.dumps({"train": {"loss": "mse"}}))
    assert main(base + ["--config", str(mse)]) == 1


@pytest.mark.parametrize("overrides, field", [
    ({"model": {"layers": True, "dilations": [True]}, "train": {"epochs": True}}, "layers True is not an integer"),
    ({"model": {"beta": True}}, "beta"),
    ({"model": {"dilations": [1.7, 1]}}, "dilations"),
    ({"model": {"graph": [1]}}, "graph [1] is not an object"),
    ({"model": {"graph": {"topk": 2.5}}}, "topk"),
    ({"model": {"residual_channels": 8.0}}, "residual_channels"),
    ({"model": {"seed": 1.5}}, "seed"),
    ({"train": {"batch_size": 2.5}}, "batch_size"),
    ({"train": {"seed": 1.5}}, "seed"),
    ({"train": {"lr": "0.1"}}, "lr"),
], ids=["bools", "bool-beta", "float-dilation", "list-graph", "float-topk", "float-channels",
        "float-model-seed", "float-batch", "float-train-seed", "string-lr"])
def test_train_config_field_of_wrong_type_exits_1(workdir, tmp_path, capsys, overrides, field):
    ckpt, cfg = tmp_path / "m.ckpt", tmp_path / "config.json"
    cfg.write_text(json.dumps(overrides))
    assert main(["train", "--data", str(workdir / "cube.json"), "--out", str(ckpt),
                 "--train-period", "1900:1907", "--config", str(cfg)]) == 1
    assert field in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("overrides", [
    {"modle": {"layers": 1, "dilations": [1]}},
    {"model": [], "train": []},
    {"Train": {"epochs": 1}},
], ids=["misspelt", "lists", "capitalised"])
def test_train_config_with_unknown_section_exits_1(workdir, tmp_path, capsys, overrides):
    ckpt, cfg = tmp_path / "m.ckpt", tmp_path / "config.json"
    cfg.write_text(json.dumps(overrides))
    assert main(["train", "--data", str(workdir / "cube.json"), "--out", str(ckpt),
                 "--train-period", "1900:1907", "--config", str(cfg)]) == 1
    assert "--config" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_non_finite_lr_exits_1(workdir, tmp_path, capsys, lr):
    ckpt = tmp_path / "m.ckpt"
    code = main(["train", "--data", str(workdir / "cube.json"), "--out", str(ckpt),
                 "--train-period", "1900:1907", "--config", str(workdir / "config.json"), "--lr", lr])
    assert code == 1
    assert "lr must be positive and finite" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_argument_errors(workdir, tmp_path):
    base = ["train", "--data", str(workdir / "cube.json"), "--out", str(tmp_path / "m.ckpt")]
    assert main(base + ["--leads", "1,x"]) == 1
    assert main(base + ["--leads", "0"]) == 1
    assert main(base + ["--train-period", "1900"]) == 1


def test_eval_grid_mismatch_exits_2(workdir, tmp_path, capsys):
    grid = small_grid()
    config = tiny_config(n_nodes=12, horizon=4)
    ckpt = tmp_path / "other.ckpt"
    save_checkpoint(ckpt, init_params(config), config, 1.0, 0,
                    base_period=(1900, 1907), grid=grid,
                    nodes=region_nodes(grid, ONI_BOX))
    code = main(["eval", "--data", str(workdir / "cube.json"),
                 "--checkpoint", str(ckpt), "--test-period", "1908:1909"])
    assert code == 2
    assert "different grid" in capsys.readouterr().err


def _tampered_checkpoint(tmp_path, edit, grid=None):
    """An untrained checkpoint (on a 12-node grid unless `grid` is given) whose header `edit` changes."""
    grid = grid or small_grid()
    nodes = region_nodes(grid, ONI_BOX)
    config = tiny_config(n_nodes=len(nodes), horizon=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_params(config), config, 1.0, 0,
                    base_period=(1900, 1907), grid=grid, nodes=nodes)
    raw = path.read_bytes()
    cut = raw.find(b"\n")
    header = json.loads(raw[:cut])
    edit(header)
    path.write_bytes(json.dumps(header).encode() + raw[cut:])
    return path


def _eval_exit_code(workdir, ckpt):
    return main(["eval", "--data", str(workdir / "cube.json"), "--checkpoint", str(ckpt),
                 "--test-period", "1908:1909", "--leads", "1,3"])


def test_eval_checkpoint_without_input_scale_exits_2(workdir, tmp_path, capsys):
    ckpt = _tampered_checkpoint(tmp_path, lambda h: h.pop("input_scale"))
    assert _eval_exit_code(workdir, ckpt) == 2
    assert "input_scale" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["name", "shape"])
def test_eval_checkpoint_tensor_record_without_field_exits_2(workdir, tmp_path, capsys, field):
    ckpt = _tampered_checkpoint(tmp_path, lambda h: h["tensors"][3].pop(field))
    assert _eval_exit_code(workdir, ckpt) == 2
    assert field in capsys.readouterr().err


def test_eval_checkpoint_with_non_dict_grid_exits_2(workdir, tmp_path, capsys):
    ckpt = _tampered_checkpoint(tmp_path, lambda h: h.update(grid=[[-2.0, 0.0], [190.0]]))
    assert _eval_exit_code(workdir, ckpt) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_4(workdir, tmp_path):
    assert main(["eval", "--data", str(workdir / "cube.json"),
                 "--checkpoint", str(tmp_path / "none.ckpt")]) == 4


def _oni_checkpoint(workdir, tmp_path, edit):
    """A tampered checkpoint on the workdir cube's grid, so only its header can fail eval."""
    return _tampered_checkpoint(tmp_path, edit, load_cube(workdir / "cube.json").grid)


def test_eval_untouched_oni_checkpoint_exits_0(workdir, tmp_path, capsys):
    assert _eval_exit_code(workdir, _oni_checkpoint(workdir, tmp_path, lambda h: None)) == 0


@pytest.mark.parametrize("field, value", [
    ("base_period", [1900]),
    ("base_period", [1907, 1900]),
    ("base_period", ["a", 1907]),
    ("input_scale", 0.0),
    ("input_scale", -1.0),
])
def test_eval_checkpoint_with_bad_header_value_exits_2(workdir, tmp_path, capsys, field, value):
    ckpt = _oni_checkpoint(workdir, tmp_path, lambda h: h.update({field: value}))
    assert _eval_exit_code(workdir, ckpt) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda nodes: nodes.__setitem__(0, [0, 999]),   # past the grid
    lambda nodes: nodes.__setitem__(0, [-1, 0]),    # would wrap around
    lambda nodes: nodes.__setitem__(0, [0.7, 0.2]), # would truncate to [0, 0]
    lambda nodes: nodes.__setitem__(0, nodes[1]),   # a repeated node
    lambda nodes: nodes.pop(),                      # one node short
], ids=["past-grid", "negative", "fractional", "repeated", "short"])
def test_graph_export_checkpoint_with_bad_nodes_exits_2(workdir, tmp_path, capsys, edit):
    ckpt = _oni_checkpoint(workdir, tmp_path, lambda h: edit(h["nodes"]))
    assert main(["graph-export", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.csv")]) == 2
    assert "nodes" in capsys.readouterr().err
