"""strace output parser: an alternate trace ingestion path.

IOCov's architecture separates *capture* from *analysis*: anything that
yields (syscall, args, retval) records can feed the analyzer.  strace
is the most widely available capture tool, so this parser turns lines
like

.. code-block:: text

    openat(AT_FDCWD, "/mnt/test/f0", O_WRONLY|O_CREAT|O_TRUNC, 0644) = 3
    write(3, "abc"..., 4096) = 4096
    open("/mnt/test/missing", O_RDONLY) = -1 ENOENT (No such file or directory)

into :class:`~repro.trace.events.SyscallEvent` records.  Symbolic flag
expressions (``O_WRONLY|O_CREAT``) are evaluated against the constant
tables in :mod:`repro.vfs.constants`; positional arguments are mapped
to names using the per-syscall signatures below so that downstream
partitioners see the same argument names regardless of capture tool.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Iterator

from repro.trace.events import CappedMemo, SyscallEvent, split_lines
from repro.vfs import constants
from repro.vfs.errors import ERRNO_BY_NAME

#: Positional argument names per syscall (as strace prints them).
SYSCALL_SIGNATURES: dict[str, tuple[str, ...]] = {
    "open": ("pathname", "flags", "mode"),
    "openat": ("dfd", "pathname", "flags", "mode"),
    "openat2": ("dfd", "pathname", "how", "size"),
    "creat": ("pathname", "mode"),
    "close": ("fd",),
    "read": ("fd", "buf", "count"),
    "pread64": ("fd", "buf", "count", "pos"),
    "readv": ("fd", "vec", "vlen"),
    "preadv": ("fd", "vec", "vlen", "pos"),
    "write": ("fd", "buf", "count"),
    "pwrite64": ("fd", "buf", "count", "pos"),
    "writev": ("fd", "vec", "vlen"),
    "pwritev": ("fd", "vec", "vlen", "pos"),
    "lseek": ("fd", "offset", "whence"),
    "truncate": ("path", "length"),
    "ftruncate": ("fd", "length"),
    "mkdir": ("pathname", "mode"),
    "mkdirat": ("dfd", "pathname", "mode"),
    "chmod": ("pathname", "mode"),
    "fchmod": ("fd", "mode"),
    "fchmodat": ("dfd", "pathname", "mode", "flags"),
    "chdir": ("filename",),
    "fchdir": ("fd",),
    "setxattr": ("pathname", "name", "value", "size", "flags"),
    "lsetxattr": ("pathname", "name", "value", "size", "flags"),
    "fsetxattr": ("fd", "name", "value", "size", "flags"),
    "getxattr": ("pathname", "name", "value", "size"),
    "lgetxattr": ("pathname", "name", "value", "size"),
    "fgetxattr": ("fd", "name", "value", "size"),
    "link": ("oldpath", "newpath"),
    "access": ("pathname", "mode"),
    "statfs": ("pathname", "buf"),
    "unlink": ("pathname",),
    "rmdir": ("pathname",),
    "rename": ("oldpath", "newpath"),
    "symlink": ("target", "linkpath"),
    "stat": ("pathname", "statbuf"),
    "lstat": ("pathname", "statbuf"),
    "fstat": ("fd", "statbuf"),
    "dup": ("fildes",),
    "dup2": ("oldfd", "newfd"),
    "fsync": ("fd",),
    "fdatasync": ("fd",),
    "sync": (),
}

#: Symbol tables used to evaluate OR-expressions in strace output.
_SYMBOLS: dict[str, int] = {}
_SYMBOLS.update(constants.OPEN_FLAG_NAMES)
_SYMBOLS.update(constants.SEEK_WHENCE_NAMES)
_SYMBOLS.update(constants.MODE_BIT_NAMES)
_SYMBOLS.update(constants.XATTR_FLAG_NAMES)
_SYMBOLS["AT_FDCWD"] = constants.AT_FDCWD
_SYMBOLS["AT_SYMLINK_NOFOLLOW"] = constants.AT_SYMLINK_NOFOLLOW
_SYMBOLS["AT_EMPTY_PATH"] = constants.AT_EMPTY_PATH
_SYMBOLS["O_NDELAY"] = constants.O_NDELAY

#: line shape:  [pid P] [timestamp] name(args) = ret [ERRNO (message)]
_CALL_RE = re.compile(
    r"^(?:\[pid\s+(?P<pid>\d+)\]\s+)?"
    r"(?:(?P<ts>\d+\.\d+|\d+:\d+:\d+\.\d+)\s+)?"
    r"(?P<name>\w+)\((?P<args>.*)\)\s*=\s*"
    r"(?P<ret>-?\d+|\?)"
    r"(?:\s+(?P<errname>E[A-Z0-9]+)\s*(?:\([^)]*\))?)?\s*$"
)

#: The second half of an interrupted call: ``<... name resumed>``, after
#: the line's optional pid and timestamp.
_RESUMED_RE = re.compile(
    r"(?:\[pid\s+\d+\]\s+)?(?:(?:\d+\.\d+|\d+:\d+:\d+\.\d+)\s+)?<\.\.\. \w+ resumed>"
)

#: Argument keys whose values are dropped: buffer contents are not
#: coverage-relevant (LTTng records none either).
_DROP_KEYS = frozenset({"buf", "statbuf", "vec"})

#: Most argument tokens one parser memoizes (flag expressions,
#: AT_FDCWD, fds and modes repeat; the values are immutable).
_ARG_MEMO_CAP = 16384

#: Lines that legitimately produce no event (signal/exit annotations,
#: interrupted-call halves, calls with unknown return) — skipped but
#: not *malformed*.
_NOISE_PREFIXES = ("--- ", "+++ ")


class StraceParseError(ValueError):
    """A line could not be parsed in strict mode."""


def split_args(text: str, quotes: str = '"') -> list[str]:
    """Split an argument list at its top-level commas.

    A comma inside brackets, or inside a string opened by one of
    *quotes* (where a backslash escapes the next character), does not
    split.  Each argument comes out stripped, and a blank last one is
    dropped.
    """
    parts: list[str] = []
    depth = 0
    start = 0
    quote = ""
    escaped = False
    for index, char in enumerate(text):
        if quote:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == quote:
                quote = ""
        elif char in quotes:
            quote = char
        elif char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(text[start:index].strip())
            start = index + 1
    tail = text[start:].strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_arg(text: str) -> Any:
    """Parse one strace argument token into a Python value."""
    text = text.strip()
    if not text:
        return None
    if text.startswith('"'):
        # Strings may be truncated: "abc"... — strip the ellipsis.
        end = text.rfind('"')
        body = text[1:end]
        return body.encode("latin-1", "backslashreplace").decode("unicode_escape")
    if text == "NULL":
        return None
    if "|" in text or text in _SYMBOLS:
        value = 0
        known = True
        for token in text.split("|"):
            token = token.strip()
            if token in _SYMBOLS:
                value |= _SYMBOLS[token]
            else:
                try:
                    value |= int(token, 0)
                except ValueError:
                    known = False
                    break
        if known:
            return value
    # strace prints modes C-style: a leading zero means octal.
    if len(text) > 1 and text[0] == "0" and all(c in "01234567" for c in text[1:]):
        return int(text, 8)
    try:
        return int(text, 0)
    except ValueError:
        return text


class StraceParser:
    """Parses strace `-f -e trace=...` style output into events."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.skipped_lines = 0
        #: nonblank lines the grammar rejected that are not recognized
        #: noise (signals, interrupted calls) — a subset of skipped.
        self.malformed_lines = 0
        #: argument token -> :func:`_parse_arg` of it
        self._args = CappedMemo(_parse_arg, _ARG_MEMO_CAP)

    def parse_line(self, line: str) -> SyscallEvent | None:
        """Parse one completed-call line; returns None for noise lines."""
        line = line.strip()
        if (
            not line
            or line.endswith("<unfinished ...>")
            or ("resumed>" in line and _RESUMED_RE.match(line))
        ):
            self.skipped_lines += 1
            return None
        match = _CALL_RE.match(line)
        if match is None:
            if self.strict:
                raise StraceParseError(f"unparseable line: {line!r}")
            self.skipped_lines += 1
            if not line.startswith(_NOISE_PREFIXES) and not line.endswith("= ?"):
                self.malformed_lines += 1
            return None
        pid_text, name, arg_text, ret_text, errname = match.group(
            "pid", "name", "args", "ret", "errname"
        )
        if ret_text == "?":
            self.skipped_lines += 1
            return None
        signature = SYSCALL_SIGNATURES.get(name, ())
        values = self._args
        args: dict[str, Any] = {}
        for index, token in enumerate(split_args(arg_text)):
            if index < len(signature):
                key = signature[index]
                if key in _DROP_KEYS:
                    continue
            else:
                key = f"arg{index}"
            args[key] = values[token]
        retval = int(ret_text)
        err = 0
        if retval < 0:
            err = ERRNO_BY_NAME.get(errname, -retval) if errname else -retval
            retval = -err
        return SyscallEvent(name, args, retval, err, int(pid_text) if pid_text else 0)

    def parse(self, lines: Iterable[str]) -> Iterator[SyscallEvent]:
        for line in lines:
            event = self.parse_line(line)
            if event is not None:
                yield event

    def parse_text(self, text: str) -> list[SyscallEvent]:
        return list(self.parse(split_lines(text)))

    def iter_parse_file(self, path: str) -> Iterator[SyscallEvent]:
        """Stream events from disk without materializing the trace."""
        with open(path, encoding="utf-8", newline="\n") as handle:
            yield from self.parse(handle)

    def parse_file(self, path: str) -> list[SyscallEvent]:
        return list(self.iter_parse_file(path))
