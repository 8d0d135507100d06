import json
import stat

import numpy as np
import pytest

from deepref import generator
from deepref.cli import FLAG_TABLE, _resolve, build_parser, main
from deepref.config import DEFAULT_Q_SET
from deepref.fileio import read_csv
from deepref.flow import read_dataset
from deepref.generator import (
    ModelConfig,
    build_network,
    generate_reference,
    load_weights,
    save_weights,
)
from deepref.synthetic import pan_zoom_sequence
from deepref.video_io import read_sequence, write_y4m

from conftest import store_fusion_factors

TINY_MODEL_FLAGS = [
    "--head-channels", "4", "--branch-reduce-channels", "3",
    "--branch-out-channels", "3", "--trunk-channels", "4",
]


@pytest.fixture(scope="module")
def clip(tmp_path_factory):
    path = tmp_path_factory.mktemp("seq") / "pan.y4m"
    frames = pan_zoom_sequence(64, 64, 10, velocity=(0.55, 0.35), zoom_rate=0.001, seed=3)
    write_y4m(frames, path)
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweeps_in_one_process_carry_no_flags_over(tmp_path, capsys):
    # the parser is built once per process; each call parses afresh
    clip = tmp_path / "c.y4m"
    write_y4m(pan_zoom_sequence(32, 32, 2, velocity=(0.5, 0.25), seed=4), clip)
    weights = tmp_path / "w.drpg"
    save_weights(build_network(ModelConfig(head_channels=2, branch_reduce_channels=2,
                                           branch_out_channels=2, trunk_channels=2)), weights)
    sweep = ["sweep", "--input", str(clip), "--weights", str(weights), "--block-size", "16",
             "--search-range", "2", "--output"]
    assert run([*sweep, str(tmp_path / "a.csv"), "--q-set", "8,16"], capsys)[0] == 0
    assert run([*sweep, str(tmp_path / "b.csv")], capsys)[0] == 0
    assert build_parser() is build_parser()
    for name, q_set in (("a.csv", [8, 16]), ("b.csv", list(DEFAULT_Q_SET))):
        _, rows = read_csv(tmp_path / name)
        assert [int(r[1]) for r in rows] == q_set * 2


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_follow_the_umask(clip, tmp_path, capsys, with_umask, umask, mode):
    with_umask(umask)
    dataset, weights, loss_csv = tmp_path / "d.drpd", tmp_path / "w.drpg", tmp_path / "loss.csv"
    assert run(["extract", "--input", str(clip), "--block-size", "16", "--output",
                str(dataset)], capsys)[0] == 0
    code, _, err = run(["train", "--dataset", str(dataset), "--weights-out", str(weights),
                        "--loss-csv", str(loss_csv), "--epochs", "1", "--batch-size", "32",
                        *TINY_MODEL_FLAGS], capsys)
    assert code == 0, err
    for path in (dataset, weights, loss_csv):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


class TestArgHandling:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run(["bdrate", "x.csv", "--bogus"], capsys)
        assert code == 2

    def test_missing_input_file_exits_1_with_diagnostic(self, capsys, tmp_path):
        code, _, err = run(
            ["extract", "--input", str(tmp_path / "nope.y4m"),
             "--output", str(tmp_path / "d.drpd")], capsys)
        assert code == 1
        assert "error:" in err and err.count("\n") == 1

    def test_non_integer_q_set_rejected(self, capsys, clip, tmp_path):
        code, _, err = run(
            ["sweep", "--input", str(clip), "--weights", str(tmp_path / "w.drpg"),
             "--q-set", "8,x", "--output", str(tmp_path / "rd.csv")], capsys)
        assert code == 1
        assert err.startswith("error:") and "--q-set" in err

    def test_negative_seed_rejected(self, capsys, tmp_path):
        code, _, err = run(
            ["train", "--dataset", str(tmp_path / "d.drpd"), "--weights-out",
             str(tmp_path / "w.drpg"), "--seed", "-1"], capsys)
        assert code == 1
        assert err.startswith("error:") and "seed" in err and err.count("\n") == 1

    def test_non_integer_sizes_rejected(self, capsys, clip, tmp_path):
        code, _, err = run(
            ["block-sweep", "--input", str(clip), "--sizes", "16,x",
             "--output", str(tmp_path / "t.csv")], capsys)
        assert code == 1
        assert err.startswith("error:") and "--sizes" in err


class TestSmokeChain:
    def test_full_pipeline(self, clip, tmp_path, capsys):
        dataset = tmp_path / "pairs.drpd"
        weights = tmp_path / "net.drpg"
        loss_csv = tmp_path / "loss.csv"
        rd_csv = tmp_path / "rd.csv"
        infer_dir = tmp_path / "gen"

        code, out, err = run(
            ["extract", "--input", str(clip), "--block-size", "16",
             "--output", str(dataset)], capsys)
        assert code == 0, err
        pairs = read_dataset(dataset)
        assert len(pairs) == 9 * 16  # 9 transitions x 16 tiles

        code, out, err = run(
            ["train", "--dataset", str(dataset), "--weights-out", str(weights),
             "--loss-csv", str(loss_csv), "--epochs", "2", "--batch-size", "32",
             "--lr", "1.0", "--seed", "0", *TINY_MODEL_FLAGS], capsys)
        assert code == 0, err
        assert weights.exists()
        header, rows = read_csv(loss_csv)
        assert header == ["epoch", "lr", "loss"] and len(rows) == 2
        net = load_weights(weights)  # parses and validates

        code, out, err = run(
            ["infer", "--input", str(clip), "--weights", str(weights),
             "--output-dir", str(infer_dir)], capsys)
        assert code == 0, err
        pgms = sorted(infer_dir.glob("gen_f*.pgm"))
        assert len(pgms) == 9
        first = generate_reference(net, read_sequence(clip)[0])
        assert pgms[0].read_bytes() == b"P5\n64 64\n255\n" + first.tobytes()
        header, rows = read_csv(infer_dir / "reference_quality.csv")
        assert header == ["frame_index", "psnr_db", "ssim"] and len(rows) == 9

        code, out, err = run(
            ["sweep", "--input", str(clip), "--weights", str(weights),
             "--q-set", "8,16,32,64", "--search-range", "4",
             "--block-size", "16", "--output", str(rd_csv)], capsys)
        assert code == 0, err
        header, rows = read_csv(rd_csv)
        assert header == ["scheme", "q", "bits_per_frame", "psnr_db"]
        assert len(rows) == 8  # 4 baseline + 4 net
        assert {r[0] for r in rows} == {"baseline", "net"}

        code, out, err = run(["bdrate", str(rd_csv)], capsys)
        assert code == 0, err
        assert "BD-rate" in out


class TestBdrateCommand:
    def rd_file(self, tmp_path, name, bits_scale=1.0, scheme=None):
        rows = []
        for q, bits, quality in [(8, 8000, 41.0), (16, 6000, 36.0),
                                 (32, 5000, 31.0), (64, 4500, 26.0)]:
            row = [q, bits * bits_scale, quality]
            if scheme:
                row.insert(0, scheme)
            rows.append(row)
        path = tmp_path / name
        header = ["q", "bits_per_frame", "psnr_db"]
        if scheme:
            header.insert(0, "scheme")
        from deepref.fileio import write_csv

        write_csv(rows, path, header=header)
        return path

    def test_identical_curves_give_zero(self, tmp_path, capsys):
        a = self.rd_file(tmp_path, "a.csv")
        b = self.rd_file(tmp_path, "b.csv")
        code, out, _ = run(["bdrate", str(a), str(b)], capsys)
        assert code == 0
        assert float(out.split(":")[1].strip().rstrip("%")) == 0.0

    def test_ten_percent_offset(self, tmp_path, capsys):
        a = self.rd_file(tmp_path, "a.csv")
        b = self.rd_file(tmp_path, "b.csv", bits_scale=1.10)
        code, out, _ = run(["bdrate", str(a), str(b)], capsys)
        assert code == 0
        assert float(out.split(":")[1].strip().rstrip("%")) == pytest.approx(10.0, abs=1e-4)

    @pytest.mark.parametrize("bits", ["inf", "nan"])
    def test_non_finite_bits_rejected(self, tmp_path, capsys, bits):
        # an error, not "BD-rate (test vs anchor): nan%" and exit 0
        anchor = self.rd_file(tmp_path, "a.csv")
        path = self.rd_file(tmp_path, "b.csv")
        path.write_text(path.read_text().replace("6000.0", bits))
        code, out, err = run(["bdrate", str(anchor), str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "non-finite" in err

    def test_missing_columns_rejected(self, tmp_path, capsys):
        from deepref.fileio import write_csv

        path = tmp_path / "bad.csv"
        write_csv([[1, 2]], path, header=["x", "y"])
        code, _, err = run(["bdrate", str(path)], capsys)
        assert code == 1 and "bits_per_frame" in err

    def test_non_numeric_cell_rejected(self, tmp_path, capsys):
        from deepref.fileio import write_csv

        path = tmp_path / "bad.csv"
        write_csv([[8, 8000, 41.0], [16, "lots", 36.0]], path,
                  header=["q", "bits_per_frame", "psnr_db"])
        code, _, err = run(["bdrate", str(path), str(path)], capsys)
        assert code == 1
        assert err.startswith("error:") and "lots" in err

    @pytest.mark.parametrize("extra", ["\n", "net,64\n", "net\n"])
    def test_blank_or_short_row_rejected(self, tmp_path, capsys, extra):
        path = self.rd_file(tmp_path, "rd.csv", scheme="baseline")
        path.write_text(path.read_text() + extra)
        code, _, err = run(["bdrate", str(path), "--anchor-scheme", "baseline",
                            "--test-scheme", "baseline"], capsys)
        assert code == 1
        assert err.startswith("error:") and "shorter than the header" in err

    def test_non_utf8_csv_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"q,bits_per_frame,psnr_db\n8,8000,\xff\xfe\n")
        code, _, err = run(["bdrate", str(path), str(path)], capsys)
        assert code == 1
        assert err.startswith("error:") and "UTF-8" in err


class TestEncodeCommand:
    def test_prints_bits_and_psnr_and_dumps_mv(self, clip, tmp_path, capsys):
        mv_dir = tmp_path / "mv"
        code, out, err = run(
            ["encode", "--input", str(clip), "--q", "16", "--search-range", "4",
             "--block-size", "16", "--mv-csv-dir", str(mv_dir)], capsys)
        assert code == 0, err
        assert "bits/frame" in out and "dB" in out
        mv_files = sorted(mv_dir.glob("mv_f*.csv"))
        assert len(mv_files) == 9
        header, rows = read_csv(mv_files[0])
        assert header == ["block_x", "block_y", "ref_idx", "mv_x_q4", "mv_y_q4", "sad"]
        assert len(rows) == 16

    def test_lambda_beyond_int_range_rejected(self, clip, capsys):
        # lambda * mv bits would overflow the float cost arrays
        code, _, err = run(
            ["encode", "--input", str(clip), "--q", "16", "--search-range", "4",
             "--block-size", "16", "--lambda-mv", "1e308"], capsys)
        assert code == 1
        assert err.startswith("error:") and "lambda_mv" in err and err.count("\n") == 1

    def test_search_range_beyond_frame_prints_as_frame_sized_range(self, tmp_path, capsys):
        # unclamped, this range would need ~600 GiB of phase planes
        small = tmp_path / "small.y4m"
        write_y4m(pan_zoom_sequence(32, 32, 3, velocity=(0.55, 0.35), seed=3), small)
        outs = []
        for search_range in ("100000", "32"):
            code, out, err = run(["encode", "--input", str(small), "--q", "8",
                                  "--search-range", search_range], capsys)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]


class TestMetricsCommand:
    def test_same_sequence_reports_inf(self, clip, tmp_path, capsys):
        out_csv = tmp_path / "m.csv"
        code, out, err = run(
            ["metrics", "--a", str(clip), "--b", str(clip), "--output", str(out_csv)],
            capsys)
        assert code == 0, err
        header, rows = read_csv(out_csv)
        assert header == ["frame_index", "psnr_db", "ssim"]
        assert len(rows) == 10
        assert all(r[1] == "inf" and float(r[2]) == 1.0 for r in rows)

    def test_frame_count_mismatch_rejected(self, clip, tmp_path, capsys):
        short = tmp_path / "short.y4m"
        write_y4m(read_sequence(clip)[:9], short)
        out_csv = tmp_path / "m.csv"
        code, _, err = run(
            ["metrics", "--a", str(clip), "--b", str(short), "--output", str(out_csv)],
            capsys)
        assert code == 1
        assert err == "error: frame counts differ: 10 vs 9\n"
        assert not out_csv.exists()


def test_infer_rejects_weight_without_channel_axis(clip, tmp_path, capsys):
    net = build_network(ModelConfig(head_channels=2, branch_reduce_channels=2,
                                    branch_out_channels=2, trunk_channels=2))
    net.layers["head1"].weights = np.zeros((), dtype=np.float32)
    weights = tmp_path / "w.drpg"
    save_weights(net, weights)
    code, _, err = run(["infer", "--input", str(clip), "--weights", str(weights),
                        "--output-dir", str(tmp_path / "gen")], capsys)
    assert code == 1
    assert err.startswith("error:") and "'head1.weight'" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [["infer"],
                                     ["dump-features", "--frame", "1", "--layer", "block3"]])
def test_overflowing_weights_end_in_error(clip, tmp_path, capsys, command):
    # head1 weights of 1e38 load (they are finite) but overflow the forward pass
    net = build_network(ModelConfig(head_channels=4, branch_reduce_channels=3,
                                    branch_out_channels=3, trunk_channels=4))
    net.layers["head1"].weights = np.full_like(net.layers["head1"].weights, 1e38)
    weights = tmp_path / "w.drpg"
    save_weights(net, weights)
    out_dir = tmp_path / "out"
    code, _, err = run([*command, "--input", str(clip), "--weights", str(weights),
                        "--output-dir", str(out_dir)], capsys)
    assert code == 1
    assert err.startswith("error:") and "NaN or Inf" in err and err.count("\n") == 1
    assert not any(out_dir.glob("*.pgm"))


def test_infer_refuses_unequal_fusion_factors(clip, tmp_path, capsys):
    net = build_network(ModelConfig(head_channels=2, branch_reduce_channels=2,
                                    branch_out_channels=2, trunk_channels=2))
    weights = tmp_path / "w.drpg"
    save_weights(net, weights)
    store_fusion_factors(weights, [0.0, 0.5, 1.0])
    code, _, err = run(["infer", "--input", str(clip), "--weights", str(weights),
                        "--output-dir", str(tmp_path / "gen")], capsys)
    assert code == 1
    assert err.startswith("error:") and "[0.0, 0.5, 1.0]" in err and err.count("\n") == 1


def test_diverging_training_names_its_batch_and_writes_no_weights(clip, tmp_path, capsys):
    dataset, weights = tmp_path / "d.drpd", tmp_path / "w.drpg"
    run(["extract", "--input", str(clip), "--block-size", "16",
         "--output", str(dataset)], capsys)
    code, _, err = run(["train", "--dataset", str(dataset), "--weights-out", str(weights),
                        "--epochs", "2", "--lr", "1e308", *TINY_MODEL_FLAGS], capsys)
    assert code == 1
    assert err.startswith("error:") and "at epoch 0, batch 0" in err
    assert not weights.exists()


def test_out_of_memory_ends_in_error(clip, tmp_path, capsys, monkeypatch):
    def out_of_memory(cfg):  # stands in for the allocation, which never happens
        raise MemoryError("Unable to allocate 144. GiB for an array")

    monkeypatch.setattr(generator, "build_network", out_of_memory)
    dataset, weights = tmp_path / "d.drpd", tmp_path / "w.drpg"
    run(["extract", "--input", str(clip), "--block-size", "16",
         "--output", str(dataset)], capsys)
    code, _, err = run(["train", "--dataset", str(dataset), "--weights-out", str(weights),
                        "--head-channels", "2147483647"], capsys)
    assert code == 1
    assert err == "error: Unable to allocate 144. GiB for an array\n"
    assert not weights.exists()


class TestDumpFeaturesCommand:
    def test_writes_one_pgm_per_channel(self, clip, tmp_path, capsys):
        weights = tmp_path / "w.drpg"
        dataset = tmp_path / "d.drpd"
        run(["extract", "--input", str(clip), "--block-size", "16",
             "--output", str(dataset)], capsys)
        run(["train", "--dataset", str(dataset), "--weights-out", str(weights),
             "--epochs", "1", "--lr", "1.0", *TINY_MODEL_FLAGS], capsys)
        out_dir = tmp_path / "features"
        code, out, err = run(
            ["dump-features", "--input", str(clip), "--weights", str(weights),
             "--frame", "1", "--layer", "block1", "--output-dir", str(out_dir)], capsys)
        assert code == 0, err
        assert len(list(out_dir.glob("block1_c*.pgm"))) == 4  # trunk channels

    def test_unknown_layer_rejected_by_parser(self, clip, tmp_path, capsys):
        code, _, err = run(
            ["dump-features", "--input", str(clip), "--weights", "w",
             "--layer", "bogus", "--output-dir", str(tmp_path)], capsys)
        assert code == 2


class TestConfigFile:
    def test_config_file_drives_extract_and_flags_override(self, clip, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"extraction": {"block_size": 16, "stride": 16}}))
        out_a = tmp_path / "a.drpd"
        out_b = tmp_path / "b.drpd"
        code, _, _ = run(["extract", "--config", str(cfg_path), "--input", str(clip),
                          "--output", str(out_a)], capsys)
        assert code == 0
        assert len(read_dataset(out_a)) == 9 * 16
        # flag override: coarser grid
        code, _, _ = run(["extract", "--config", str(cfg_path), "--input", str(clip),
                          "--block-size", "32", "--stride", "32",
                          "--output", str(out_b)], capsys)
        assert code == 0
        assert len(read_dataset(out_b)) == 9 * 4

    def test_flow_constant_key_is_unknown(self, clip, tmp_path, capsys):
        # MV_CLAMP is a flow constant, not a config field (test_config refuses
        # the other former extraction keys the same way)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"extraction": {"mv_clamp": 8.0}}))
        code, _, err = run(["extract", "--config", str(cfg_path), "--input", str(clip),
                            "--output", str(tmp_path / "d.drpd")], capsys)
        assert code == 1
        assert err == "error: extraction: unknown keys ['mv_clamp']\n"
        assert not (tmp_path / "d.drpd").exists()


class TestSeedReproducibility:
    def test_fixed_seed_training_is_byte_identical(self, clip, tmp_path, capsys):
        dataset = tmp_path / "d.drpd"
        run(["extract", "--input", str(clip), "--block-size", "16",
             "--output", str(dataset)], capsys)
        outs = []
        for name in ("a.drpg", "b.drpg"):
            weights = tmp_path / name
            code, _, err = run(
                ["train", "--dataset", str(dataset), "--weights-out", str(weights),
                 "--epochs", "2", "--lr", "1.0", "--seed", "11", *TINY_MODEL_FLAGS],
                capsys)
            assert code == 0, err
            outs.append(weights.read_bytes())
        assert outs[0] == outs[1]


class TestBlockSweepCommand:
    def test_rows_per_size(self, clip, tmp_path, capsys):
        out_csv = tmp_path / "table.csv"
        code, out, err = run(
            ["block-sweep", "--input", str(clip), "--sizes", "8,16",
             "--epochs", "1", "--lr", "1.0", "--batch-size", "16",
             *TINY_MODEL_FLAGS, "--output", str(out_csv)], capsys)
        assert code == 0, err
        header, rows = read_csv(out_csv)
        assert header == ["block_size", "sequence", "psnr_db"]
        assert [r[0] for r in rows] == ["8", "16"]
        assert all(r[1] == "pan" for r in rows)


# the argv each subcommand needs before any optional flag
REQUIRED = {
    "extract": ["--input", "c.y4m", "--output", "d.drpd"],
    "train": ["--dataset", "d.drpd", "--weights-out", "w.drpg"],
    "infer": ["--input", "c.y4m", "--weights", "w.drpg", "--output-dir", "out"],
    "dump-features": ["--input", "c.y4m", "--weights", "w.drpg", "--layer", "block1",
                      "--output-dir", "out"],
    "encode": ["--input", "c.y4m", "--q", "8"],
    "sweep": ["--input", "c.y4m", "--weights", "w.drpg", "--output", "rd.csv"],
    "metrics": ["--a", "a.y4m", "--b", "b.y4m", "--output", "m.csv"],
    "block-sweep": ["--input", "c.y4m", "--output", "t.csv"],
}
SEQUENCE = ["extract", "infer", "dump-features", "encode", "sweep", "block-sweep"]
RAW = SEQUENCE + ["metrics"]
TRAINING = ["train", "block-sweep"]

# (argv after the subcommand, RunConfig field, value it must get, subcommands
# that take the flag); written out by hand, independent of the flag table
FLAG_CASES = [
    (["--seed", "5"], "model.seed", 5, TRAINING),
    (["--seed", "5"], "train.shuffle_seed", 5, TRAINING),
    (["--format", "yuv"], "input_format", "yuv", RAW),
    (["--width", "24"], "width", 24, RAW),
    (["--height", "12"], "height", 12, RAW),
    (["--head-channels", "3"], "model.head_channels", 3, TRAINING),
    (["--branch-reduce-channels", "3"], "model.branch_reduce_channels", 3, TRAINING),
    (["--branch-out-channels", "3"], "model.branch_out_channels", 3, TRAINING),
    (["--trunk-channels", "3"], "model.trunk_channels", 3, TRAINING),
    (["--k", "0.25"], "model.k", 0.25, TRAINING),
    (["--dtype", "float64"], "model.dtype", "float64", TRAINING),
    (["--epochs", "3"], "train.epochs", 3, TRAINING),
    (["--batch-size", "4"], "train.batch_size", 4, TRAINING),
    (["--lr", "0.5"], "train.lr0", 0.5, TRAINING),
    (["--decay-interval", "7"], "train.decay_interval_epochs", 7, TRAINING),
    (["--decay-factor", "0.25"], "train.decay_factor", 0.25, TRAINING),
    (["--block-size", "8"], "extraction.block_size", 8, ["extract"]),
    (["--block-size", "8"], "search.block_size", 8, ["encode", "sweep"]),
    (["--stride", "4"], "extraction.stride", 4, ["extract"]),
    (["--search-range", "3"], "search.search_range", 3, ["encode", "sweep"]),
    (["--lambda-mv", "1.5"], "search.lambda_mv", 1.5, ["encode", "sweep"]),
    (["--q-set", "4,12"], "q_set", [4, 12], ["sweep"]),
]

ACCEPTED = {}  # flag -> (its argv, every subcommand that takes it)
for _flags, _, _, _commands in FLAG_CASES:
    ACCEPTED.setdefault(_flags[0], (_flags, set()))[1].update(_commands)
# the extraction settings that became flow constants: no subcommand takes them
for _flags in (["--lk-iterations", "3"], ["--lk-eps", "0.5"], ["--mv-clamp", "2.5"],
               ["--drop-degenerate"]):
    ACCEPTED[_flags[0]] = (_flags, set())


def field_of(cfg, dotted):
    for name in dotted.split("."):
        cfg = getattr(cfg, name)
    return cfg


def resolved(command, extra=()):
    return _resolve(build_parser().parse_args([command, *REQUIRED[command], *extra]))


class TestFlagTable:
    @pytest.mark.parametrize("flags, field, want, command", [
        pytest.param(flags, field, want, command, id=f"{command} {flags[0]} {field}")
        for flags, field, want, commands in FLAG_CASES for command in commands
    ])
    def test_flag_sets_its_field(self, flags, field, want, command):
        assert field_of(resolved(command), field) != want  # not already the default
        assert field_of(resolved(command, flags), field) == want

    @pytest.mark.parametrize("flags, command", [
        pytest.param(flags, command, id=f"{command} {flags[0]}")
        for flags, commands in ACCEPTED.values() for command in REQUIRED if command not in commands
    ])
    def test_flag_refused_where_it_sets_nothing(self, capsys, flags, command):
        code, _, err = run([command, *REQUIRED[command], *flags], capsys)
        assert code == 2 and "unrecognized arguments" in err

    def test_extract_refuses_seed(self, capsys):
        code, _, err = run(["extract", *REQUIRED["extract"], "--seed", "3"], capsys)
        assert code == 2 and "--seed" in err

    def test_input_sets_input_path(self):
        assert resolved("extract").input_path == "c.y4m"

    def test_flags_override_config_and_config_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 4, "extraction": {"block_size": 16, "stride": 8},
                                    "train": {"epochs": 6, "shuffle_seed": 2}}))
        cfg = resolved("extract", ["--config", str(path), "--block-size", "24"])
        assert (cfg.extraction.block_size, cfg.extraction.stride) == (24, 8)
        cfg = resolved("train", ["--config", str(path), "--seed", "9"])
        assert (cfg.model.seed, cfg.train.shuffle_seed, cfg.train.epochs) == (9, 9, 6)
        cfg = resolved("train", ["--config", str(path)])
        assert (cfg.model.seed, cfg.train.shuffle_seed) == (4, 2)

    def test_empty_q_set_rejected(self, capsys):
        code, _, err = run(["sweep", *REQUIRED["sweep"], "--q-set", ""], capsys)
        assert code == 1
        assert err.startswith("error:") and "--q-set" in err


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("net") / "tiny.drpg"
    save_weights(build_network(ModelConfig(head_channels=2, branch_reduce_channels=2,
                                           branch_out_channels=2, trunk_channels=2)), path)
    return path


BEYOND_INT = "99999999999999999999"


@pytest.mark.parametrize("argv, field", [
    (["encode", "--q", BEYOND_INT], "quantizer step"),
    (["sweep", "--weights", "{weights}", "--output", "{tmp}/rd.csv",
      "--q-set", f"8,16,32,{BEYOND_INT}"], "q_set entry"),
    (["encode", "--q", "8", "--block-size", BEYOND_INT], "block_size"),
    (["extract", "--output", "{tmp}/d.drpd", "--block-size", BEYOND_INT], "block_size"),
])
def test_integer_beyond_int_range_rejected(capsys, clip, tiny_weights, tmp_path, argv, field):
    argv = [a.format(weights=tiny_weights, tmp=tmp_path) for a in argv]
    code, _, err = run([argv[0], "--input", str(clip), *argv[1:]], capsys)
    assert code == 1
    assert err.startswith("error:") and field in err and BEYOND_INT in err


# one subcommand taking each flag group
GROUP_COMMAND = {"seed": "train", "input": "extract", "format": "extract", "model": "train",
                 "train": "train", "extract": "extract", "search": "encode", "q-set": "sweep"}


@pytest.mark.parametrize("command, flag, field, value", [
    pytest.param(GROUP_COMMAND[group], flag, targets.rpartition(".")[2], value,
                 id=f"{flag} {value}")
    for group, flags in FLAG_TABLE.items() for flag, targets, kwargs in flags
    for value in {float: ["nan", "inf"], int: [BEYOND_INT]}.get(kwargs.get("type"), [])
    if group != "seed"
])
def test_numeric_flag_refuses_non_finite_and_huge_values(capsys, command, flag, field, value):
    code, _, err = run([command, *REQUIRED[command], flag, value], capsys)
    assert code == 1
    assert err.startswith("error:") and field in err and err.count("\n") == 1
