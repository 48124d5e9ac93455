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

from repro.trace.events import SyscallEvent, make_event, split_lines
from repro.trace.strace import SYSCALL_SIGNATURES
from repro.vfs import constants

#: (kept as a plain string so the batch parser can recompile it in
#: multiline chunk mode; group order: res, name, args)
_CALL_PATTERN = r"^(?:(?P<res>r\d+)\s*=\s*)?(?P<name>\w+)\$?\w*\((?P<args>.*)\)\s*$"
_CALL_RE = re.compile(_CALL_PATTERN)

#: syzkaller renders AT_FDCWD as the 64-bit two's complement constant.
_AT_FDCWD_U64 = 0xFFFFFFFFFFFFFF9C

_STRING_PTR_RE = re.compile(r"&\(0x[0-9a-f]+\)\s*=?\s*'(?P<s>[^']*)'")
_HEXDATA_PTR_RE = re.compile(r'&\(0x[0-9a-f]+\)\s*=?\s*"(?P<h>[0-9a-fA-F]*)"')


def _split_args(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    quote: str | None = None
    current: list[str] = []
    escaped = False
    for char in text:
        if quote:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == quote:
                quote = None
            continue
        if char in "'\"":
            quote = char
            current.append(char)
        elif char in "([{":
            depth += 1
            current.append(char)
        elif char in ")]}":
            depth -= 1
            current.append(char)
        elif char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


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

    def _decode_arg(self, token: str) -> Any:
        token = token.strip()
        if not token:
            return None
        if token in self._resources:
            return self._resources[token]
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

    def parse_line(self, line: str) -> SyscallEvent | None:
        line = line.split("#", 1)[0].strip()
        if not line:
            return None
        match = _CALL_RE.match(line)
        if match is None:
            self.skipped_lines += 1
            self.malformed_lines += 1
            return None
        name = match["name"]
        tokens = _split_args(match["args"])
        signature = SYSCALL_SIGNATURES.get(name)
        args: dict[str, Any] = {}
        for index, token in enumerate(tokens):
            key = (
                signature[index]
                if signature and index < len(signature)
                else f"arg{index}"
            )
            args[key] = self._decode_arg(token)
        args.pop("buf", None)
        args.pop("vec", None)
        if match["res"]:
            # The program binds the result to a resource; hand out a
            # deterministic placeholder fd for later references.
            fd = 3 + len(self._resources)
            self._resources[match["res"]] = fd
        return make_event(name, args, 0, 0)

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

