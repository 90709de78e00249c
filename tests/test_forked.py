"""A forked child: framed messages to its parent, and its exit code when its
stream ends early."""

import os

import pytest

from fedchain import forked


def _send_then_raise(out):
    forked.write_frame(out, ("first", b"\x00" * 100_000))
    raise ValueError("no second frame")


def test_a_child_that_ends_its_stream_early_is_reaped_and_named(capfd):
    with forked.Child(_send_then_raise, "sender") as child:
        assert child.receive("the first frame") == ("first", b"\x00" * 100_000)
        with pytest.raises(RuntimeError, match="^sender exited with code 1 before sending "
                           "the second frame$"):
            child.receive("the second frame")
        assert child.pid is None
    assert "ValueError: no second frame" in capfd.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_stream_cut_inside_a_frame_is_an_eof(tmp_path):
    path = tmp_path / "frames"
    with open(path, "wb") as fh:
        forked.write_frame(fh, [1, 2, 3])
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with open(path, "rb") as fh, pytest.raises(EOFError):
            forked.read_frame(fh)
    path.write_bytes(data)
    with open(path, "rb") as fh:
        assert forked.read_frame(fh) == [1, 2, 3]
