"""Path resolution: walking names to inodes with POSIX error semantics.

This is the part of the VFS where most of the "interesting" open(2)
errnos originate: ENOENT, ENOTDIR, ELOOP, ENAMETOOLONG, EACCES.  The
resolver walks one component at a time, following symlinks up to
SYMLOOP_MAX, and checks search (execute) permission on every directory
it traverses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vfs import constants
from repro.vfs.errors import (
    EACCES,
    EINVAL,
    ELOOP,
    ENAMETOOLONG,
    ENOENT,
    ENOTDIR,
    FsError,
)
from repro.vfs.inode import DirInode, FileInode, Inode, InodeTable, SymlinkInode


@dataclass(frozen=True)
class Credentials:
    """The identity a syscall runs under; drives permission checks."""

    uid: int = 0
    gid: int = 0

    @property
    def is_superuser(self) -> bool:
        return self.uid == 0


#: Permission request bits for :func:`check_permission`.
MAY_READ = 0o4
MAY_WRITE = 0o2
MAY_EXEC = 0o1


def check_permission(inode: Inode, creds: Credentials, want: int) -> None:
    """Check classic UNIX rwx permission on *inode* for *creds*.

    Superuser bypasses read/write checks but still needs at least one
    execute bit set somewhere for MAY_EXEC on regular files (matching
    Linux); for directories root always passes.

    Raises:
        FsError(EACCES): permission denied.
    """
    if creds.is_superuser:
        if want & MAY_EXEC and inode.is_regular():
            if not inode.mode & (constants.S_IXUSR | constants.S_IXGRP | constants.S_IXOTH):
                raise FsError(EACCES, "no execute bits for root")
        return
    if creds.uid == inode.uid:
        granted = (inode.mode >> 6) & 0o7
    elif creds.gid == inode.gid:
        granted = (inode.mode >> 3) & 0o7
    else:
        granted = inode.mode & 0o7
    if want & ~granted:
        raise FsError(EACCES, f"want {want:o}, granted {granted:o}")


@dataclass
class ResolveResult:
    """Outcome of a path resolution.

    Attributes:
        parent: the directory inode containing the final component, or
            ``None`` when the path was just ``/``.
        name: the final component name ("" for the root).
        inode: the resolved inode, or ``None`` if the final component
            does not exist (parent resolution still succeeded — this is
            the O_CREAT case).
    """

    parent: DirInode | None
    name: str
    inode: Inode | None


class PathResolver:
    """Walks paths against an :class:`InodeTable` rooted at *root_ino*."""

    def __init__(self, table: InodeTable, root_ino: int) -> None:
        self._table = table
        self.root_ino = root_ino

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def split(path: str) -> list[str]:
        """Split a path into components, dropping empty segments."""
        return [part for part in path.split("/") if part]

    def _validate(self, path: str, parts: list[str]) -> None:
        if not path:
            raise FsError(ENOENT, "empty path")
        if len(path) > constants.PATH_MAX:
            raise FsError(ENAMETOOLONG, f"path length {len(path)}")
        for part in parts:
            if len(part) > constants.NAME_MAX:
                raise FsError(ENAMETOOLONG, f"component length {len(part)}")
        if "\0" in path:
            raise FsError(EINVAL, "embedded NUL")

    # -- resolution ---------------------------------------------------------

    def resolve(
        self,
        path: str,
        cwd_ino: int,
        creds: Credentials,
        *,
        follow_final: bool = True,
        must_exist: bool = True,
        forbid_symlinks: bool = False,
        _depth: int = 0,
    ) -> ResolveResult:
        """Resolve *path* to an inode (or its would-be parent).

        Args:
            path: absolute or cwd-relative path.
            cwd_ino: inode number of the working directory for relative
                paths (or the dirfd directory for \\*at syscalls).
            creds: identity for traversal permission checks.
            follow_final: whether a symlink in the final component is
                followed (False for lstat/lsetxattr-style calls and
                O_NOFOLLOW).
            forbid_symlinks: reject *any* symlink encountered during
                resolution with ELOOP (openat2's RESOLVE_NO_SYMLINKS).
            must_exist: when False, a missing *final* component yields a
                result with ``inode=None`` instead of ENOENT (the
                O_CREAT / mkdir case).  Missing intermediate components
                always raise.  When True, a path with a trailing slash
                that ends at a regular file (after following a final
                symlink, if *follow_final*) raises ENOTDIR, as on Linux.

        Raises:
            FsError: ENOENT, ENOTDIR, ELOOP, ENAMETOOLONG, EACCES, EINVAL.
        """
        if _depth > constants.SYMLOOP_MAX:
            raise FsError(ELOOP, path)
        parts = self.split(path)
        self._validate(path, parts)

        if path.startswith("/"):
            current = self._table.get(self.root_ino)
        else:
            current = self._table.get(cwd_ino)

        if not parts:
            # Path was "/" (or all slashes): the root itself.
            assert isinstance(current, DirInode)
            return ResolveResult(parent=None, name="", inode=current)

        check_search = not creds.is_superuser  # root may search any directory
        symlink_budget = [constants.SYMLOOP_MAX - _depth]
        for index, name in enumerate(parts):
            is_final = index == len(parts) - 1
            if not isinstance(current, DirInode):
                raise FsError(ENOTDIR, "/".join(parts[:index]) or "/")
            if check_search:
                check_permission(current, creds, MAY_EXEC)

            if name == ".":
                child: Inode | None = current
            elif name == "..":
                child = self._table.get(current.parent_ino)
            else:
                child_ino = current.entries.get(name)
                child = None if child_ino is None else self._table.get(child_ino)

            if child is None:
                if is_final and not must_exist:
                    return ResolveResult(parent=current, name=name, inode=None)
                raise FsError(ENOENT, path)

            if isinstance(child, SymlinkInode) and forbid_symlinks:
                raise FsError(ELOOP, f"symlink {name!r} with RESOLVE_NO_SYMLINKS")

            if isinstance(child, SymlinkInode) and (not is_final or follow_final):
                child = self._follow_symlink(
                    child, current, creds, symlink_budget
                )
                # A final-component symlink whose target is missing:
                if child is None:
                    if is_final and not must_exist:
                        # POSIX: O_CREAT through a dangling symlink
                        # creates the *target*; model the common case by
                        # reporting the dangling target's parent.
                        raise FsError(ENOENT, path)
                    raise FsError(ENOENT, path)

            if is_final:
                if must_exist and isinstance(child, FileInode) and path.endswith("/"):
                    raise FsError(ENOTDIR, path)
                parent = current if isinstance(current, DirInode) else None
                return ResolveResult(parent=parent, name=name, inode=child)
            current = child

        raise AssertionError("unreachable: loop always returns on final component")

    def _follow_symlink(
        self,
        link: SymlinkInode,
        link_dir: DirInode,
        creds: Credentials,
        budget: list[int],
    ) -> Inode | None:
        """Resolve a symlink inode to its target, consuming loop budget."""
        budget[0] -= 1
        if budget[0] < 0:
            raise FsError(ELOOP, link.target)
        try:
            result = self.resolve(
                link.target,
                link_dir.ino,
                creds,
                follow_final=True,
                must_exist=True,
                _depth=constants.SYMLOOP_MAX - budget[0],
            )
        except FsError as exc:
            if exc.errno == ENOENT:
                return None
            raise
        return result.inode

    # -- convenience --------------------------------------------------------

    def lookup_inode(
        self,
        path: str,
        cwd_ino: int,
        creds: Credentials,
        *,
        follow_final: bool = True,
    ) -> Inode:
        """Resolve *path* and return the inode; ENOENT if missing."""
        result = self.resolve(path, cwd_ino, creds, follow_final=follow_final)
        assert result.inode is not None  # must_exist=True guarantees this
        return result.inode
