"""Zero-copy primitives: filesystem capability probing and file cloning.

The read path wants to move payload bytes without shuffling them through
Python — or, where the filesystem allows it, without moving them at all:

* **reflink** (``FICLONE``): the destination shares the source's extents
  copy-on-write.  O(1) regardless of size; btrfs/XFS/ZFS support it,
  ext4 refuses with ``EOPNOTSUPP``.
* **copy_file_range**: the kernel copies block-to-block without the
  bytes ever entering user space.  Available on any modern Linux; still
  a physical copy, just a much cheaper one.
* **mmap**: base-resident blobs can be served as a mapping instead of a
  heap copy (:meth:`repro.oms.blobs.BlobStore.open_view`).

Capabilities differ per filesystem, so they are probed **once per
filesystem** (two scratch files, one clone attempt each way) and cached
by the device id of the root — every staging sandbox on one filesystem
shares one probe.  Every consumer degrades gracefully: the public contract
is *byte-identical results on every rung of the ladder*, only the cost
changes.  The env switches ``REPRO_DISABLE_REFLINK`` and
``REPRO_DISABLE_MMAP`` force the degraded rungs — CI's fallback-matrix
job runs the staging and corruption suites under both to prove the
fallbacks are not just present but correct.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import pathlib
import shutil
from typing import Dict, Optional

#: ioctl request number of FICLONE on Linux (_IOW(0x94, 9, int))
_FICLONE = 0x40049409

#: clone methods, cheapest first — what clone_file() reports back
METHOD_REFLINK = "reflink"
METHOD_COPY_RANGE = "copy_range"
METHOD_COPY = "copy"

#: chunk size for kernel-range copies and chunked hashing (1 MiB)
_CHUNK = 1 << 20


@dataclasses.dataclass(frozen=True)
class FsCapabilities:
    """What the filesystem under one store root can do for us."""

    reflink: bool
    copy_range: bool
    mmap: bool

    def describe(self) -> str:
        flags = [
            name
            for name, on in (
                ("reflink", self.reflink),
                ("copy_range", self.copy_range),
                ("mmap", self.mmap),
            )
            if on
        ]
        return "+".join(flags) if flags else "copy-only"


#: probe results cached per filesystem (``st_dev`` of the probed root) —
#: the probe costs two scratch files and a few syscalls, a filesystem does
#: not change its mind, and the cache stays as small as the mount table
_probed: Dict[int, FsCapabilities] = {}


def _env_disabled(name: str) -> bool:
    value = os.environ.get(name, "")
    return value not in ("", "0", "false", "no")


def reflink_supported(src_fd: int, dst_fd: int) -> bool:
    """One FICLONE attempt; False on any refusal (EOPNOTSUPP, EXDEV, ...)."""
    try:
        import fcntl

        fcntl.ioctl(dst_fd, _FICLONE, src_fd)
        return True
    except OSError:
        return False
    except (ImportError, AttributeError):  # pragma: no cover - non-Linux
        return False


def probe_capabilities(root: pathlib.Path) -> FsCapabilities:
    """Probe (once) what the filesystem under *root* supports.

    Results are cached per filesystem (the root's device id), so a fresh
    directory on an already probed filesystem costs one ``stat``.  The
    env overrides ``REPRO_DISABLE_REFLINK`` / ``REPRO_DISABLE_MMAP`` are
    read on every call (not cached), so a test can flip them around a
    cached probe.
    """
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    key = os.stat(root).st_dev
    caps = _probed.get(key)
    if caps is None:
        caps = _probe(root)
        _probed[key] = caps
    reflink = caps.reflink and not _env_disabled("REPRO_DISABLE_REFLINK")
    mmap_ok = caps.mmap and not _env_disabled("REPRO_DISABLE_MMAP")
    if reflink == caps.reflink and mmap_ok == caps.mmap:
        return caps
    return FsCapabilities(
        reflink=reflink, copy_range=caps.copy_range, mmap=mmap_ok
    )


def _probe(root: pathlib.Path) -> FsCapabilities:
    src = root / ".caps_probe_src"
    dst = root / ".caps_probe_dst"
    reflink = False
    copy_range = False
    mmap_ok = False
    try:
        src.write_bytes(b"capability probe\n")
        src_fd = os.open(src, os.O_RDONLY)
        try:
            dst_fd = os.open(dst, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                reflink = reflink_supported(src_fd, dst_fd)
                if hasattr(os, "copy_file_range"):
                    try:
                        os.lseek(src_fd, 0, os.SEEK_SET)
                        copy_range = (
                            os.copy_file_range(src_fd, dst_fd, 16) > 0
                        )
                    except OSError:
                        copy_range = False
            finally:
                os.close(dst_fd)
            try:
                import mmap as _mmap

                os.lseek(src_fd, 0, os.SEEK_SET)
                mapping = _mmap.mmap(
                    src_fd, 0, prot=_mmap.PROT_READ
                )
                mapping.close()
                mmap_ok = True
            except (OSError, ValueError):
                mmap_ok = False
        finally:
            os.close(src_fd)
    finally:
        for scratch in (src, dst):
            try:
                scratch.unlink()
            except FileNotFoundError:
                pass
    return FsCapabilities(
        reflink=reflink, copy_range=copy_range, mmap=mmap_ok
    )


def clone_file(
    src: pathlib.Path,
    dst: pathlib.Path,
    caps: Optional[FsCapabilities] = None,
) -> str:
    """Clone *src* to *dst*; returns the method that succeeded.

    The ladder is reflink -> copy_file_range -> plain copy, starting at
    the highest rung *caps* allows (``None`` probes the source's
    directory).  Every rung yields byte-identical content; the
    destination always ends up on a private inode (any previous file at
    *dst* is unlinked first, so hard-link peers are never mutated).
    """
    if caps is None:
        caps = probe_capabilities(pathlib.Path(src).parent)
    try:
        dst.unlink()
    except FileNotFoundError:
        pass
    src_fd = os.open(src, os.O_RDONLY)
    try:
        dst_fd = os.open(dst, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            if caps.reflink and reflink_supported(src_fd, dst_fd):
                return METHOD_REFLINK
            if caps.copy_range and hasattr(os, "copy_file_range"):
                if _copy_range_all(src_fd, dst_fd):
                    return METHOD_COPY_RANGE
            _copy_userspace(src_fd, dst_fd)
            return METHOD_COPY
        finally:
            os.close(dst_fd)
    except BaseException:
        try:
            dst.unlink()
        except FileNotFoundError:
            pass
        raise
    finally:
        os.close(src_fd)


def _copy_range_all(src_fd: int, dst_fd: int) -> bool:
    """Drain *src_fd* into *dst_fd* in-kernel; False to fall back."""
    size = os.fstat(src_fd).st_size
    os.lseek(src_fd, 0, os.SEEK_SET)
    os.lseek(dst_fd, 0, os.SEEK_SET)
    os.ftruncate(dst_fd, 0)
    remaining = size
    try:
        while remaining > 0:
            moved = os.copy_file_range(src_fd, dst_fd, min(remaining, _CHUNK))
            if moved == 0:  # pragma: no cover - fs shrank underneath us
                return False
            remaining -= moved
    except OSError as exc:  # pragma: no cover - mid-copy refusal
        if exc.errno in (errno.EXDEV, errno.EOPNOTSUPP, errno.ENOSYS):
            return False
        raise
    return True


def _copy_userspace(src_fd: int, dst_fd: int) -> None:
    os.lseek(src_fd, 0, os.SEEK_SET)
    os.lseek(dst_fd, 0, os.SEEK_SET)
    os.ftruncate(dst_fd, 0)
    with os.fdopen(os.dup(src_fd), "rb", closefd=True) as src_file:
        with os.fdopen(os.dup(dst_fd), "wb", closefd=True) as dst_file:
            shutil.copyfileobj(src_file, dst_file, _CHUNK)
            dst_file.flush()


def digest_view(view) -> str:
    """Hex SHA-256 of a buffer (mmap/memoryview/bytes) in bounded chunks.

    Hashing a whole mapping in one ``update`` would pin the GIL-released
    C loop on one giant call and fault every page before the first byte
    of progress is observable; chunking keeps the working set bounded
    and lets concurrent readers interleave.
    """
    hasher = hashlib.sha256()
    mv = memoryview(view)
    try:
        for offset in range(0, len(mv), _CHUNK):
            hasher.update(mv[offset:offset + _CHUNK])
    finally:
        mv.release()
    return hasher.hexdigest()
