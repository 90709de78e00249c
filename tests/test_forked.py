"""Forked children: framed messages both ways, and no pipe end of a sibling."""

import functools
import os

import pytest

from fedchain import forked


def _echo(jobs, out):
    while True:
        try:
            obj = forked.read_frame(jobs)
        except EOFError:
            return
        forked.write_frame(out, obj)


def _report_open(fds, jobs, out):
    still_open = []
    for fd in fds:
        try:
            os.fstat(fd)
            still_open.append(True)
        except OSError:
            still_open.append(False)
    forked.write_frame(out, still_open)


def test_a_child_holds_no_pipe_end_of_its_sibling():
    # Were the second child to hold the first one's job pipe, the first
    # could not see its job stream end, and reaping it would wait on the
    # second.
    with forked.Child(_echo, "echo") as first:
        first.send(("ping", b"\x00" * 100_000))
        assert first.receive("the echo") == ("ping", b"\x00" * 100_000)
        ends = (first._jobs.fileno(), first._out.fileno())
        with forked.Child(functools.partial(_report_open, ends), "reporter") as second:
            assert second.receive("the report") == [False, False]
            assert first.reap() == 0
    assert second.pid is None
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
