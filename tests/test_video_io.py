import stat

import numpy as np
import pytest

from deepref.errors import ConfigError, FormatError
from deepref.fileio import read_csv, write_csv, write_plane_pgm
from deepref.video_io import read_sequence, write_y4m


def make_planes(n, h=16, w=16, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, (h, w)).astype(np.uint8) for _ in range(n)]


def raw_yuv_bytes(planes):
    h, w = planes[0].shape
    chroma = np.full((h // 2, w // 2), 128, dtype=np.uint8).tobytes()
    return b"".join(p.tobytes() + chroma + chroma for p in planes)


class TestRawYuv:
    def test_two_frame_16x16_file(self, tmp_path):
        planes = make_planes(2)
        path = tmp_path / "clip.yuv"
        path.write_bytes(raw_yuv_bytes(planes))
        assert path.stat().st_size == 2 * 384
        frames = read_sequence(path, width=16, height=16)
        assert len(frames) == 2 and all(f.shape == (16, 16) for f in frames)
        for a, b in zip(frames, planes):
            np.testing.assert_array_equal(a, b)
            assert a.size == 256

    def test_length_not_multiple_names_offset(self, tmp_path):
        path = tmp_path / "cut.yuv"
        path.write_bytes(raw_yuv_bytes(make_planes(2)) + b"\x00" * 5)
        with pytest.raises(FormatError, match="offset 768"):
            read_sequence(path, width=16, height=16)

    def test_missing_geometry_rejected(self, tmp_path):
        path = tmp_path / "clip.yuv"
        path.write_bytes(raw_yuv_bytes(make_planes(1)))
        with pytest.raises(ConfigError, match="width"):
            read_sequence(path)

    @pytest.mark.parametrize("width, height, shown", [
        (-2, -4, "-2x-4"), (-2, 16, "-2x16"), (16, -4, "16x-4"),
    ])
    def test_non_positive_dims_rejected(self, tmp_path, width, height, shown):
        path = tmp_path / "clip.yuv"
        path.write_bytes(raw_yuv_bytes(make_planes(2)))
        with pytest.raises(ConfigError, match=f">= 1, got {shown}"):
            read_sequence(path, width=width, height=height)

    def test_odd_dims_rejected(self, tmp_path):
        path = tmp_path / "clip.yuv"
        path.write_bytes(b"\x00" * 1000)
        with pytest.raises(FormatError, match="even"):
            read_sequence(path, width=15, height=16)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.yuv"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            read_sequence(path, width=16, height=16)


class TestY4m:
    def test_header_grammar(self, tmp_path):
        planes = make_planes(1)
        body = b"FRAME\n" + raw_yuv_bytes(planes)
        path = tmp_path / "clip.y4m"
        path.write_bytes(b"YUV4MPEG2 W16 H16 F25:1 Ip A1:1 C420\n" + body)
        frames = read_sequence(path)
        assert len(frames) == 1 and frames[0].shape == (16, 16)
        np.testing.assert_array_equal(frames[0], planes[0])

    def test_c420_variants_accepted(self, tmp_path):
        planes = make_planes(1)
        for tag in (b"C420", b"C420jpeg", b"C420mpeg2", b""):
            header = b"YUV4MPEG2 W16 H16 F25:1 " + tag
            path = tmp_path / "v.y4m"
            path.write_bytes(header.rstrip() + b"\n" + b"FRAME\n" + raw_yuv_bytes(planes))
            assert len(read_sequence(path)) == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.y4m"
        path.write_bytes(b"YUVWRONG W16 H16\nFRAME\n" + b"\x00" * 384)
        with pytest.raises(FormatError, match="magic"):
            read_sequence(path)

    @pytest.mark.parametrize("header", [b"W16 Habc", b"Wabc H16"])
    def test_non_integer_dims_rejected(self, tmp_path, header):
        path = tmp_path / "bad.y4m"
        path.write_bytes(b"YUV4MPEG2 " + header + b" C420\nFRAME\n" + b"\x00" * 384)
        with pytest.raises(FormatError, match="abc"):
            read_sequence(path)

    @pytest.mark.parametrize("header,match", [(b"W-16 H16", "W field '-16'"),
                                              (b"W16 H0", "H field '0'")])
    def test_non_positive_dims_rejected(self, tmp_path, header, match):
        path = tmp_path / "bad.y4m"
        path.write_bytes(b"YUV4MPEG2 " + header + b" C420\nFRAME\n" + b"\x00" * 384)
        with pytest.raises(FormatError, match=match):
            read_sequence(path)

    def test_non_420_rejected(self, tmp_path):
        path = tmp_path / "bad.y4m"
        path.write_bytes(b"YUV4MPEG2 W16 H16 C444\n")
        with pytest.raises(FormatError, match="colorspace"):
            read_sequence(path)

    def test_truncated_frame_rejected(self, tmp_path):
        path = tmp_path / "cut.y4m"
        path.write_bytes(b"YUV4MPEG2 W16 H16 C420\nFRAME\n" + b"\x00" * 100)
        with pytest.raises(FormatError, match="truncated"):
            read_sequence(path)

    def test_frame_header_with_params(self, tmp_path):
        planes = make_planes(2)
        chunk = raw_yuv_bytes(planes[:1])
        path = tmp_path / "clip.y4m"
        path.write_bytes(
            b"YUV4MPEG2 W16 H16 C420\nFRAME Xsome=param\n" + chunk + b"FRAME\n"
            + raw_yuv_bytes(planes[1:])
        )
        assert len(read_sequence(path)) == 2

    def test_write_read_round_trip(self, tmp_path):
        planes = make_planes(3, h=18, w=24, seed=4)
        path = tmp_path / "rt.y4m"
        write_y4m(planes, path)
        frames = read_sequence(path)
        assert len(frames) == 3
        for a, b in zip(frames, planes):
            np.testing.assert_array_equal(a, b)

    def test_format_override_beats_extension(self, tmp_path):
        planes = make_planes(1)
        path = tmp_path / "mislabeled.y4m"
        path.write_bytes(raw_yuv_bytes(planes))
        assert len(read_sequence(path, fmt="yuv", width=16, height=16)) == 1


def pgm_bytes(plane):
    h, w = plane.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + plane.tobytes()


class TestPgm:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        plane = rng.integers(0, 256, (13, 17)).astype(np.uint8)
        path = tmp_path / "p.pgm"
        write_plane_pgm(plane, path)
        assert path.read_bytes() == pgm_bytes(plane)

    def test_255_valued_plane(self, tmp_path):
        plane = np.full((8, 8), 255, dtype=np.uint8)
        path = tmp_path / "white.pgm"
        write_plane_pgm(plane, path)
        assert path.read_bytes() == pgm_bytes(plane)

    def test_header_matches_p5_format(self, tmp_path):
        plane = np.zeros((4, 6), dtype=np.uint8)
        path = tmp_path / "p.pgm"
        write_plane_pgm(plane, path)
        assert path.read_bytes().startswith(b"P5\n6 4\n255\n")


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [(0, 1.5, "x"), (1, float("inf"), "y")]
        path = tmp_path / "t.csv"
        write_csv(rows, path, header=["idx", "value", "tag"])
        header, body = read_csv(path)
        assert header == ["idx", "value", "tag"]
        assert body == [["0", "1.5", "x"], ["1", "inf", "y"]]

    def test_empty_rows_leave_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv([], path, header=["a", "b"])
        assert path.read_text() == "a,b\n"

    def test_no_stray_temp_files(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv([(1, 2)], path, header=["a", "b"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_mode_follows_the_umask(self, tmp_path, with_umask, umask, mode):
        # as `open` creates a file, not the temp file's owner-only 0o600
        with_umask(umask)
        path = tmp_path / "t.csv"
        write_csv([(1, 2)], path, header=["a", "b"])
        assert stat.S_IMODE(path.stat().st_mode) == mode


def test_sequence_is_a_list_of_luma_planes(tmp_path):
    planes = make_planes(3, 4, 4)
    write_y4m(planes, tmp_path / "s.y4m")
    frames = read_sequence(tmp_path / "s.y4m")
    assert isinstance(frames, list) and len(frames) == 3
    assert all(f.dtype == np.uint8 and f.shape == (4, 4) for f in frames)
