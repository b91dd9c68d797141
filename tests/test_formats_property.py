"""Property tests of the file formats: a damaged cube or checkpoint exits 2
(validation) or 4 (I/O) through the CLI, never 1 or a traceback.

Each example drops a header field, gives a field a value of another JSON
kind, truncates the header, or truncates, pads, poisons, removes or replaces
the payload. Every header field is required. The checkpoint's nested model
`config` fields are each dropped or given another JSON kind or a number of
the wrong sort: NaN, an infinity, or a float where an integer belongs.
Examples are derandomized with a fixed count, so the suite stays
deterministic.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ensograph.cli import main
from ensograph.cube import load_cube, save_cube
from ensograph.grid import ONI_BOX, region_nodes
from ensograph.stgnn import init_params, save_checkpoint
from helpers import oni_grid, random_sst, tiny_config

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=80, deadline=None, database=None)

KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-3, 3) | st.floats(-1e3, 1e3, allow_nan=False),
    "string": st.text(max_size=3),
    "list": st.lists(st.integers(0, 3), max_size=3),
    "object": st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
}


def _kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}[type(value)]


def _other_kind(value):
    kinds = [k for k in KINDS if k != _kind(value)]
    return st.sampled_from(kinds).flatmap(lambda k: KINDS[k])


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _file_edits(size: int):
    """(name, argument) edits of a file of `size` bytes: cut, padded, removed, or a directory."""
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, size - 1)),
        st.tuples(st.just("pad"), st.binary(min_size=1, max_size=9)),
        st.tuples(st.just("remove"), st.none()),
        st.tuples(st.just("directory"), st.none()),
    )


def _poison_edits(cells: int):
    """A non-finite or implausible temperature written into one float32 cell."""
    bad = st.sampled_from([math.nan, math.inf, -math.inf, 99.0, -40.0])
    return st.tuples(st.just("poison"), st.tuples(st.integers(0, cells - 1), bad))


def _write_payload(path: Path, payload: bytes, edit):
    name, arg = edit
    if name == "truncate":
        path.write_bytes(payload[:arg])
    elif name == "pad":
        path.write_bytes(payload + arg)
    elif name == "poison":
        cells = np.frombuffer(payload, dtype="<f4").copy()
        cells[arg[0]] = arg[1]
        path.write_bytes(cells.tobytes())
    elif name == "directory":
        path.mkdir()
    elif name != "remove":
        path.write_bytes(payload)


# ------------------------------------------------------------------- cubes

CUBE = random_sst(np.random.default_rng(31), n_time=24, start=(1950, 4), missing_frac=0.1)


def _cube_files():
    with tempfile.TemporaryDirectory() as tmp:
        meta = save_cube(CUBE, Path(tmp) / "c.json")
        return meta.read_text(), meta.with_suffix(".f32").read_bytes()


CUBE_HEADER, CUBE_PAYLOAD = _cube_files()
CUBE_FIELDS = sorted(json.loads(CUBE_HEADER))


def _header_edits(fields, header):
    text = json.dumps(header)
    return st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(fields)),
        st.sampled_from(fields).flatmap(lambda f: _other_kind(header[f]).map(lambda v: ("retype", (f, v)))),
        st.tuples(st.just("cut"), st.integers(0, len(text) - 2)),  # any proper prefix of the object
    )


def _edited_header(header: dict, edit) -> str:
    name, arg = edit
    if name == "cut":
        return json.dumps(header)[:arg]
    header = dict(header)
    if name == "drop":
        del header[arg]
    else:
        header[arg[0]] = arg[1]
    return json.dumps(header)


def _validate(header_text, payload_edit):
    with tempfile.TemporaryDirectory() as tmp:
        meta = Path(tmp) / "c.json"
        meta.write_text(header_text)
        _write_payload(meta.with_suffix(".f32"), CUBE_PAYLOAD, payload_edit)
        return _exit_code(["validate", "--data", str(meta)])


def test_undamaged_cube_files_validate():
    assert _validate(CUBE_HEADER, ("keep", None)) == 0


@PROFILE
@given(_header_edits(CUBE_FIELDS, json.loads(CUBE_HEADER)))
@example(("retype", ("format_version", True)))  # true == 1 in Python
def test_damaged_cube_header_exits_2(edit):
    assert _validate(_edited_header(json.loads(CUBE_HEADER), edit), ("keep", None)) == 2


@PROFILE
@given(st.one_of(_file_edits(len(CUBE_PAYLOAD)), _poison_edits(CUBE.values.size)))
def test_damaged_cube_payload_exits_2_or_4(edit):
    # a directory's own stat size decides whether it fails the size check (2) or the read (4)
    expected = {"remove": {4}, "directory": {2, 4}}.get(edit[0], {2})
    assert _validate(CUBE_HEADER, edit) in expected, edit


# -------------------------------------------------------------- checkpoints

def _checkpoint_file():
    """The header and body of an untrained tiny checkpoint on the synthetic cube's grid."""
    grid = oni_grid()
    nodes = region_nodes(grid, ONI_BOX)
    config = tiny_config(n_nodes=len(nodes), horizon=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(path, init_params(config), config, 1.0, 0,
                        base_period=(1900, 1907), grid=grid, nodes=nodes)
        raw = path.read_bytes()
    cut = raw.find(b"\n")
    return json.loads(raw[:cut]), raw[cut + 1:]


CKPT_HEADER, CKPT_BODY = _checkpoint_file()
CKPT_FIELDS = sorted(CKPT_HEADER)


@pytest.fixture(scope="module")
def cube_path(tmp_path_factory):
    """A 120-month synthetic cube (1900..1909) on the checkpoint's grid."""
    root = tmp_path_factory.mktemp("formats")
    assert _exit_code(["synth", "--out", str(root / "cube"), "--months", "120", "--seed", "2"]) == 0
    assert load_cube(root / "cube.json").grid == oni_grid()
    return root / "cube.json"


def _checkpoint_exit_codes(cube, header_text, edit=("keep", None)):
    """Exit codes of `eval` and `graph-export` on the checkpoint; `edit` applies to the whole file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        _write_payload(path, header_text.encode() + b"\n" + CKPT_BODY, edit)
        return (_exit_code(["eval", "--data", str(cube), "--checkpoint", str(path),
                            "--test-period", "1908:1909", "--leads", "1,3"]),
                _exit_code(["graph-export", "--checkpoint", str(path), "--out", str(Path(tmp) / "e.csv")]))


def test_undamaged_checkpoint_evaluates_and_exports(cube_path):
    assert _checkpoint_exit_codes(cube_path, json.dumps(CKPT_HEADER)) == (0, 0)


@PROFILE
@given(edit=_header_edits(CKPT_FIELDS, CKPT_HEADER))
# values that int(), float() or a truth test used to accept
@example(edit=("retype", ("seed", "5")))
@example(edit=("retype", ("seed", True)))
@example(edit=("retype", ("input_scale", "2.5")))
@example(edit=("retype", ("input_scale", True)))
@example(edit=("retype", ("input_scale", 10 ** 400)))  # no float holds it
@example(edit=("retype", ("base_period", False)))
@example(edit=("retype", ("grid", 0)))
@example(edit=("retype", ("nodes", "")))
@example(edit=("retype", ("nodes", [])))
def test_damaged_checkpoint_header_exits_2(cube_path, edit):
    assert _checkpoint_exit_codes(cube_path, _edited_header(CKPT_HEADER, edit)) == (2, 2), edit


@PROFILE
@given(edit=_file_edits(len(json.dumps(CKPT_HEADER)) + 1 + len(CKPT_BODY)))
def test_damaged_checkpoint_file_exits_2_or_4(cube_path, edit):
    codes = _checkpoint_exit_codes(cube_path, json.dumps(CKPT_HEADER), edit)
    assert codes == ((4, 4) if edit[0] in ("remove", "directory") else (2, 2)), edit


# ------------------------------------------------ nested checkpoint config

CONFIG = CKPT_HEADER["config"]
CONFIG_PATHS = sorted([(f,) for f in CONFIG] + [("graph", f) for f in CONFIG["graph"]])
DROP = "<dropped>"  # the edit value that removes the field; generated strings are shorter


def _drop_each_config_field(test):
    """One example per config path that removes the field: a stored config that
    lacks a field must not load with the library's default for it."""
    for path in CONFIG_PATHS:
        test = example(edit=(path, DROP))(test)
    return test


def _config_value(config, path):
    return config[path[0]] if len(path) == 1 else config[path[0]][path[1]]


def _wrong_values(path):
    """Another JSON kind, a number of the wrong sort (non-finite, or not integral
    where the field is an integer), or for dilations a list of non-integers."""
    value = _config_value(CONFIG, path)
    if isinstance(value, list):
        return _other_kind(value) | st.lists(st.sampled_from([1.0, True, "1", None]), min_size=1, max_size=3)
    wrong = _other_kind(value)
    if isinstance(value, (int, float)):
        numbers = [math.nan, math.inf, -math.inf]
        if isinstance(value, int):
            numbers += [float(value), value + 0.5]
        wrong |= st.sampled_from(numbers)
    return wrong


@PROFILE
@given(edit=st.sampled_from(CONFIG_PATHS).flatmap(lambda path: st.tuples(st.just(path), _wrong_values(path))))
# values that a float-tolerant range() or tuple() used to accept, or that reached the model
@example(edit=(("n_nodes",), 130.0))
@example(edit=(("window",), 3.0))
@example(edit=(("graph", "embed_dim"), 3.0))
@example(edit=(("graph", "topk"), 3.0))
@example(edit=(("graph", "topk"), math.nan))
@example(edit=(("graph", "alpha"), math.nan))
@example(edit=(("graph", "alpha"), math.inf))
@example(edit=(("dilations",), "11"))
@_drop_each_config_field
def test_damaged_checkpoint_config_exits_2(cube_path, edit):
    path, value = edit
    config = json.loads(json.dumps(CONFIG))
    fields = config if len(path) == 1 else config[path[0]]
    if value is DROP:
        del fields[path[-1]]
    else:
        fields[path[-1]] = value
    header = json.dumps(dict(CKPT_HEADER, config=config))
    assert _checkpoint_exit_codes(cube_path, header) == (2, 2), edit
