"""A forked helper process that talks to its parent through one pipe.

``Child(serve, name)`` forks a process that runs ``serve(out)``; ``out``
carries what the parent reads with ``Child.receive``.  Each message is one
pickled object in a length-framed frame, so a reader tells a whole message
from a stream cut short by a child that died.  Unpickle only what this
program's own processes wrote.

The process leaves through ``os._exit``: code 0 when ``serve`` returns and
1 when it raises, after printing the traceback.  It runs no exit handler
and flushes no buffer it inherited.

``os.fork`` is required, as on Linux.  NumPy's OpenBLAS stops its thread
pool around a fork, so a child may run matrix products.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
from collections.abc import Callable
from typing import BinaryIO

_LENGTH = struct.Struct("<Q")


def write_frame(fh: BinaryIO, obj) -> None:
    """Send one object: its pickle's length, then the pickle."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    fh.write(_LENGTH.pack(len(data)))
    fh.write(data)
    fh.flush()


def read_frame(fh: BinaryIO):
    """The next object; EOFError when the stream ends before a whole frame."""
    head = fh.read(_LENGTH.size)
    if len(head) != _LENGTH.size:
        raise EOFError("stream ended before a frame")
    (length,) = _LENGTH.unpack(head)
    data = fh.read(length)
    if len(data) != length:
        raise EOFError("stream ended inside a frame")
    return pickle.loads(data)


class Child:
    """A forked process running ``serve(out)``; see the module docstring.

    Use it as a context manager: leaving the block reaps the process, and
    kills it first when an exception is leaving.
    """

    def __init__(self, serve: Callable[[BinaryIO], None], name: str) -> None:
        self.name = name
        out_r, out_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(out_r)
            os.close(out_w)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(out_r)
                with os.fdopen(out_w, "wb") as out:
                    serve(out)
                code = 0
            except BaseException:
                sys.excepthook(*sys.exc_info())
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(out_w)
        self.pid: int | None = pid
        self._out = os.fdopen(out_r, "rb")

    def receive(self, what: str):
        """The child's next object, ``what`` the caller waits for.

        A child that ends its stream before a whole object is reaped, and
        RuntimeError names its exit code and ``what``.
        """
        try:
            return read_frame(self._out)
        except EOFError:
            code = self.reap()
            raise RuntimeError(f"{self.name} exited with code {code} before sending "
                               f"{what}") from None

    def reap(self, kill: bool = False) -> int | None:
        """Wait for the process and return its exit code; None once reaped.

        Closing the pipe first makes a child still writing to it fail
        rather than wait for a reader.
        """
        if self.pid is None:
            return None
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        self._out.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def __enter__(self) -> Child:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.reap(kill=exc_type is not None)
