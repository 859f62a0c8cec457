import pytest

from adds.atomic import atomic_open


class TestAtomicOpen:
    @pytest.mark.parametrize("mode, data", [("w", "text\n"), ("wb", b"\x00bytes")])
    def test_replaces_whole_file(self, tmp_path, mode, data):
        path = tmp_path / "out"
        path.write_bytes(b"old contents that are longer")
        with atomic_open(path, mode) as fh:
            fh.write(data)
        assert path.read_bytes() == (data.encode() if mode == "w" else data)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_failure_part_way_keeps_old_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_open(path, "wb") as fh:
                fh.write(b"new, half")
                fh.flush()
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_failure_creates_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_open(tmp_path / "out") as fh:
                fh.write("new")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []
