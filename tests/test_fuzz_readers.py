"""Byte-mutation fuzzing of every file reader: whatever the bytes, a reader
returns or raises a DeepRefError, never another exception."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deepref.cli import _load_curve
from deepref.config import load_run_config
from deepref.errors import DeepRefError, FormatError
from deepref.fileio import write_csv
from deepref.flow import pair_dtype, read_dataset, write_dataset
from deepref.generator import (
    ModelConfig,
    _parse_weight_file,
    build_network,
    load_weights,
    save_weights,
)
from deepref.video_io import read_sequence, write_y4m

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# bytes that turn numbers negative, huge or non-numeric, and break UTF-8 or JSON
_TOKENS = [b"-", b"0", b"9", b" ", b"\n", b"\x00", b"\xff", b"-1", b"99999999999",
           b"1e999", b"[]", b"{}", b'""', b"null", b",", b"x"]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """`data` after 1-4 random byte replacements, insertions, deletions or a
    truncation."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        pos = draw(st.integers(0, max(len(out) - 1, 0)))
        chunk = draw(st.binary(min_size=1, max_size=3) | st.sampled_from(_TOKENS))
        if kind == "replace":
            out[pos : pos + len(chunk)] = chunk
        elif kind == "insert":
            out[pos:pos] = chunk
        elif kind == "delete":
            del out[pos : pos + len(chunk)]
        else:
            del out[pos:]
    return bytes(out)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
RUN_DOC = {
    "input_format": "y4m", "width": 64, "height": 64,
    "seed": 7, "q_set": [8, 16],
    "extraction": {"block_size": 16, "stride": 8},
    "model": {"head_channels": 8, "k": 0.5, "dtype": "float32"},
    "train": {"epochs": 5, "lr0": 1.0},
    "search": {"search_range": 4, "lambda_mv": 4.0},
}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """One small valid file per reader, as bytes, plus a scratch directory."""
    work = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(7)
    tiny = ModelConfig(head_channels=2, branch_reduce_channels=2, branch_out_channels=2,
                       trunk_channels=2, seed=1)
    save_weights(build_network(tiny), work / "w.drpg")
    pairs = np.array([((4 * i, 0), (0.5, -0.25), *rng.integers(0, 256, (2, 4, 4)))
                      for i in range(2)], pair_dtype(4))
    write_dataset(pairs, work / "d.drpd")
    write_y4m([rng.integers(0, 256, (4, 6), dtype=np.uint8) for _ in range(2)], work / "s.y4m")
    write_csv([("baseline", 8, 1000.5, 38.25), ("net", 8, 900.0, 38.0)], work / "rd.csv",
              header=["scheme", "q", "bits_per_frame", "psnr_db"])
    (work / "run.json").write_text(json.dumps(RUN_DOC))
    return work, {p.name: p.read_bytes() for p in work.iterdir()}


READERS = {
    "w.drpg": load_weights,
    "d.drpd": read_dataset,
    "s.y4m": read_sequence,
    "rd.csv": lambda path: _load_curve(path, None),  # the RD parser over read_csv
    "run.json": load_run_config,
}


@pytest.mark.parametrize("name", list(READERS))
def test_only_deepref_errors_escape(samples, name):
    work, originals = samples
    path = work / f"fuzz_{name}"
    READERS[name](work / name)  # the unmutated file reads

    @FUZZ
    @given(mutated(originals[name]))
    def check(data):
        path.write_bytes(data)
        try:
            READERS[name](path)
        except DeepRefError:
            pass

    check()


def test_dataset_of_zero_block_size_rejected(tmp_path):
    # three pairs of 0x0 blocks: the payload matches the count, so only the
    # header's block size is wrong; `deepref train` must not reach normalize_plane
    path = tmp_path / "zero.drpd"
    path.write_bytes(b"DRPD" + struct.pack("<IIQ", 1, 0, 3) + bytes(3 * 16))
    with pytest.raises(FormatError, match="block size is 0"):
        read_dataset(path)


@pytest.mark.parametrize("mv", [(math.nan, 0.0), (0.5, math.inf), (0.0, -math.inf)])
def test_dataset_of_non_finite_mv_rejected(tmp_path, mv):
    # one pair of 1x1 blocks whose stored mv is no finite number
    path = tmp_path / "nan_mv.drpd"
    path.write_bytes(b"DRPD" + struct.pack("<IIQ", 1, 1, 1) + struct.pack("<II", 0, 0)
                     + struct.pack("<ff", *mv) + bytes(2))
    with pytest.raises(FormatError, match="pair 0 has a non-finite mv"):
        read_dataset(path)


# the tensors load_weights reads the channel widths from
WIDTH_TENSORS = ["head1.weight", "head2.weight",
                 "block1.branch1.conv1.weight", "block1.branch1.conv2.weight"]
TENSOR_DIMS = st.lists(st.sampled_from([0, 1, 3, 2**31 - 1, 2**32 - 1]) | st.integers(0, 70),
                       max_size=4)


def weight_file(records) -> bytes:
    """A version-1 weight file of (name, dims, payload) records."""
    out = bytearray(b"DRPG" + struct.pack("<II", 1, len(records)))
    for name, dims, payload in records:
        out += struct.pack(f"<H{len(name)}sB{len(dims)}I", len(name), name.encode(),
                           len(dims), *dims) + payload
    return bytes(out)


@FUZZ
@given(st.data())
def test_weight_tensor_of_any_shape_raises_deepref_errors(samples, data):
    """Value-level mutation of a weight file: give one tensor 0-4 dims of any
    size, zero and huge ones included. A tensor of at most 64 values gets a
    payload that fills it; a larger one keeps its old payload, so the file
    ends early."""
    work, originals = samples
    tensors = _parse_weight_file(originals["w.drpg"])
    name = data.draw(st.sampled_from(WIDTH_TENSORS) | st.sampled_from(sorted(tensors)))
    dims = data.draw(TENSOR_DIMS)
    size = math.prod(dims)
    records = [(n, a.shape, a.astype("<f4").tobytes()) for n, a in tensors.items()]
    for i, (n, _, payload) in enumerate(records):
        if n == name:
            records[i] = (n, dims, bytes(4 * size) if size <= 64 else payload)
    path = work / "fuzz_dims.drpg"
    path.write_bytes(weight_file(records))
    try:
        load_weights(path)
    except DeepRefError:
        pass


@FUZZ
@given(st.data())
def test_config_values_of_any_json_type_raise_config_errors(tmp_path_factory, data):
    """Value-level mutation of the run config: set 1-3 top-level keys or
    section keys, known or not, to arbitrary JSON values."""
    doc = json.loads(json.dumps(RUN_DOC))
    for _ in range(data.draw(st.integers(1, 3))):
        target = doc
        key = data.draw(st.sampled_from(sorted(doc)) | st.text(max_size=3))
        if isinstance(doc.get(key), dict) and data.draw(st.booleans()):
            target = doc[key]
            key = data.draw(st.sampled_from(sorted(target) + ["seed", "dtype", "block_size"]))
        target[key] = data.draw(JSON_VALUES)
    path = tmp_path_factory.getbasetemp() / "fuzz_values.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = load_run_config(path)
    except DeepRefError:
        return
    assert_declared_kinds(cfg)


# what a loaded config value may be, by the field's declared type
_KINDS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and math.isfinite(v),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "list[int]": lambda v: isinstance(v, list) and v and all(_KINDS["int"](q) for q in v),
}


def assert_declared_kinds(cfg):
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            assert_declared_kinds(value)
            continue
        kind, _, optional = f.type.partition(" | ")
        assert (optional == "None" and value is None) or _KINDS[kind](value), (f.name, value)
