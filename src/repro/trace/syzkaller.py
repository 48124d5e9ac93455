"""Syzkaller program-log parser (the paper's future-work ingestion path).

Syzkaller does not trace syscalls; it *logs the programs it executes*
in its declarative syntax::

    r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./file0\\x00', 0x42, 0x1ff)
    write(r0, &(0x7f0000000080)="616263", 0x3)
    close(r0)

The paper notes that evaluating fuzzers requires parsing these
descriptions rather than using LTTng.  This module implements that
parser: each program line becomes a :class:`SyscallEvent` whose
arguments are decoded (pointer-to-string arguments become the string,
resource identifiers like ``r0`` become small placeholder fds, hex
constants become ints).

Limitation, inherent to the source: syzkaller logs record *inputs
only* — there is no return value — so events carry ``retval=0`` and
are useful for **input coverage** but contribute nothing to output
coverage.  The analyzer handles this by simply seeing only successful
outputs from such traces.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Iterator

from repro.trace.events import CappedMemo, SyscallEvent, split_lines
from repro.trace.strace import SYSCALL_SIGNATURES, split_args
from repro.vfs import constants

#: line shape:  [rN = ]name[$variant](args)
_CALL_RE = re.compile(r"^(?:(?P<res>r\d+)\s*=\s*)?(?P<name>\w+)\$?\w*\((?P<args>.*)\)\s*$")

#: syzkaller renders AT_FDCWD as the 64-bit two's complement constant.
_AT_FDCWD_U64 = 0xFFFFFFFFFFFFFF9C

#: The longest start of a line that holds no ``#`` outside a quoted
#: string; a ``#`` right after it starts the line's comment.
_CODE_RE = re.compile(r"""(?:[^#'"]+|'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")*""")

_STRING_PTR_RE = re.compile(r"&\(0x[0-9a-f]+\)\s*=?\s*'(?P<s>[^']*)'")
_HEXDATA_PTR_RE = re.compile(r'&\(0x[0-9a-f]+\)\s*=?\s*"(?P<h>[0-9a-fA-F]*)"')

#: Argument keys whose values are dropped (buffer contents).
_DROP_KEYS = frozenset({"buf", "vec"})

#: Most argument tokens one parser memoizes (constants, pointers and
#: paths repeat across a log's programs; the values are immutable).
_ARG_MEMO_CAP = 16384

#: The arguments of a call, as maximal runs of quoted strings, bracket
#: groups holding no bracket or quote, and other text without a comma.
#: Where the runs joined with "," give back the whole text, each comma
#: between them is one the character loop splits at.
_TOKEN_RE = re.compile(
    r"(?:'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\""
    r"|\([^()\[\]{}'\"]*\)|\[[^()\[\]{}'\"]*\]|\{[^()\[\]{}'\"]*\}"
    r"|[^,'\"()\[\]{}])+"
)


def _split_args(text: str) -> list[str]:
    """Split a syzkaller argument list at top-level commas."""
    tokens = _TOKEN_RE.findall(text)
    if ",".join(tokens) != text:
        return split_args(text, "'\"")
    tokens = [token.strip() for token in tokens]
    if tokens and not tokens[-1]:
        tokens.pop()  # the character loop drops a blank last argument
    return tokens


def _decode_value(token: str) -> Any:
    """What an argument token that names no bound resource says."""
    token = token.strip()
    if not token:
        return None
    match = _STRING_PTR_RE.search(token)
    if match:
        return match["s"].replace("\\x00", "").replace("\x00", "")
    match = _HEXDATA_PTR_RE.search(token)
    if match:
        # A data buffer: only its length matters for coverage.
        return len(match["h"]) // 2
    if token.startswith("&("):
        return None  # opaque pointer (struct) — not coverage-tracked
    if token == "nil":
        return None
    try:
        value = int(token, 0)
    except ValueError:
        return token
    if value == _AT_FDCWD_U64:
        return constants.AT_FDCWD
    return value


class SyzkallerParser:
    """Parses syzkaller reproducer/log programs into input-only events."""

    def __init__(self) -> None:
        self.skipped_lines = 0
        #: lines the program grammar rejected (for syzkaller every
        #: skipped line is a grammar reject: comments and blanks
        #: return None without counting).
        self.malformed_lines = 0
        #: resource name (r0) -> placeholder fd value
        self._resources: dict[str, int] = {}
        #: argument token -> :func:`_decode_value` of it.  A resource
        #: name is looked up in :attr:`_resources` first, always: ``r1``
        #: means the string "r1" until a program binds it.
        self._values = CappedMemo(_decode_value, _ARG_MEMO_CAP)

    def parse_line(self, line: str) -> SyscallEvent | None:
        line = line.strip()
        if "#" in line:
            code = _CODE_RE.match(line).end()
            if line[code:code + 1] == "#":
                line = line[:code].rstrip()
        if not line:
            return None
        match = _CALL_RE.match(line)
        if match is None:
            self.skipped_lines += 1
            self.malformed_lines += 1
            return None
        res, name, arg_text = match.group("res", "name", "args")
        signature = SYSCALL_SIGNATURES.get(name, ())
        resources = self._resources
        values = self._values
        args: dict[str, Any] = {}
        for index, token in enumerate(_split_args(arg_text)):
            if index < len(signature):
                key = signature[index]
                if key in _DROP_KEYS:
                    continue
            else:
                key = f"arg{index}"
            fd = resources.get(token)
            args[key] = values[token] if fd is None else fd
        if res:
            # The program binds the result to a resource; hand out a
            # deterministic placeholder fd for later references.
            resources[res] = 3 + len(resources)
        return SyscallEvent(name, args, 0, 0)

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

