"""Binary serialisation of compressed blocks.

Blocks are self-contained, so serialising one is a matter of writing each
encoded column's state.  Rather than hand-writing a format per encoding
class, every encoded column is reduced to its instance state (a tree of
dicts, NumPy arrays, ints, strings, byte strings, lists and other encoded
columns) and written with a small tagged binary format.  Deserialisation
reconstructs the objects through a class registry, so only classes listed in
the registry can ever be instantiated — unlike ``pickle``, the format cannot
execute arbitrary code.

The format is little-endian throughout:

```
block   := MAGIC u32(version) schema u32(n_rows) statistics u32(n_cols) column*
column  := str(name) dependency? object
object  := tag payload       (tag is a single byte, see _Tag)
```

Version 2 added the per-block zone map (``statistics``, a plain dict or
``None``); version 1 blocks, which lack the field, are still readable.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO

import numpy as np

from ..errors import SerializationError
from .block import ColumnDependency, CompressedBlock
from .schema import Schema
from .statistics import BlockStatistics

__all__ = [
    "serialize_block",
    "serialize_block_with_layout",
    "deserialize_block",
    "deserialize_column",
    "register_column_class",
    "registered_column_classes",
    "BlockSerializer",
]

_MAGIC = b"CORRABLK"
_VERSION = 2


class _Tag:
    NONE = 0
    INT = 1
    FLOAT = 2
    BOOL = 3
    STR = 4
    BYTES = 5
    NDARRAY = 6
    LIST = 7
    DICT = 8
    TUPLE = 9
    OBJECT = 10  # a registered library object (encoded column, helper, ...)


#: Registry of classes allowed to appear inside a serialised block.
_COLUMN_CLASSES: dict[str, type] = {}


def register_column_class(cls: type) -> type:
    """Register a class so its instances can be (de)serialised inside blocks.

    Used as a decorator on encoded-column and helper classes.  Returns the
    class unchanged.
    """
    _COLUMN_CLASSES[cls.__name__] = cls
    return cls


def registered_column_classes() -> dict[str, type]:
    """A copy of the registry, mainly for tests and debugging."""
    return dict(_COLUMN_CLASSES)


def _register_builtin_classes() -> None:
    """Populate the registry with every encoded-column class in the library."""
    from ..bitpack import BitPackedArray
    from ..encodings import (
        DeltaEncodedColumn,
        DictEncodedIntColumn,
        DictEncodedStringColumn,
        ForBitPackedColumn,
        FrequencyEncodedColumn,
        FsstEncodedColumn,
        PlainEncodedColumn,
        PlainStringColumn,
        RleEncodedColumn,
        StringHeap,
        SymbolTable,
    )
    from ..core.diff_encoding import DiffEncodedColumn
    from ..core.hierarchical import HierarchicalEncodedColumn
    from ..core.multi_reference import (
        ArithmeticRule,
        MultiReferenceConfig,
        MultiReferenceEncodedColumn,
        ReferenceGroup,
    )
    from ..core.outliers import OutlierStore
    from ..dtypes import DataType

    for cls in (
        MultiReferenceConfig,
        ReferenceGroup,
        ArithmeticRule,
        BitPackedArray,
        PlainEncodedColumn,
        PlainStringColumn,
        ForBitPackedColumn,
        DictEncodedIntColumn,
        DictEncodedStringColumn,
        StringHeap,
        DeltaEncodedColumn,
        RleEncodedColumn,
        FrequencyEncodedColumn,
        FsstEncodedColumn,
        SymbolTable,
        DiffEncodedColumn,
        HierarchicalEncodedColumn,
        MultiReferenceEncodedColumn,
        OutlierStore,
        DataType,
    ):
        register_column_class(cls)


def _write_str(out: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    out.write(struct.pack("<I", len(data)))
    out.write(data)


def _read_str(buf: BinaryIO) -> str:
    (length,) = struct.unpack("<I", _read_exact(buf, 4))
    return _read_exact(buf, length).decode("utf-8")


def _read_exact(buf: BinaryIO, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise SerializationError("unexpected end of serialised block")
    return data


def _write_object(out: BinaryIO, value) -> None:
    if value is None:
        out.write(bytes([_Tag.NONE]))
    elif isinstance(value, bool):
        out.write(bytes([_Tag.BOOL]))
        out.write(struct.pack("<B", int(value)))
    elif isinstance(value, (int, np.integer)):
        out.write(bytes([_Tag.INT]))
        out.write(struct.pack("<q", int(value)))
    elif isinstance(value, (float, np.floating)):
        out.write(bytes([_Tag.FLOAT]))
        out.write(struct.pack("<d", float(value)))
    elif isinstance(value, str):
        out.write(bytes([_Tag.STR]))
        _write_str(out, value)
    elif isinstance(value, (bytes, bytearray)):
        out.write(bytes([_Tag.BYTES]))
        out.write(struct.pack("<Q", len(value)))
        out.write(bytes(value))
    elif isinstance(value, np.ndarray):
        out.write(bytes([_Tag.NDARRAY]))
        _write_str(out, value.dtype.str)
        out.write(struct.pack("<Q", value.size))
        out.write(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, list):
        out.write(bytes([_Tag.LIST]))
        out.write(struct.pack("<Q", len(value)))
        for item in value:
            _write_object(out, item)
    elif isinstance(value, tuple):
        out.write(bytes([_Tag.TUPLE]))
        out.write(struct.pack("<Q", len(value)))
        for item in value:
            _write_object(out, item)
    elif isinstance(value, dict):
        out.write(bytes([_Tag.DICT]))
        out.write(struct.pack("<Q", len(value)))
        for key, item in value.items():
            _write_object(out, key)
            _write_object(out, item)
    elif type(value).__name__ in _COLUMN_CLASSES or _is_registrable(value):
        out.write(bytes([_Tag.OBJECT]))
        _write_str(out, type(value).__name__)
        # ``_cached`` attributes are query-time memos (monotonicity flags,
        # group usage, ...) rebuilt lazily on first use — never part of the format.
        state = {k: v for k, v in vars(value).items() if not k.startswith("_cached")}
        _write_object(out, state)
    else:
        raise SerializationError(f"cannot serialise object of type {type(value).__name__}")


def _is_registrable(value) -> bool:
    """Lazily register library classes the first time they are encountered."""
    if not _COLUMN_CLASSES:
        _register_builtin_classes()
    return type(value).__name__ in _COLUMN_CLASSES


def _read_object(buf: BinaryIO):
    tag = _read_exact(buf, 1)[0]
    if tag == _Tag.NONE:
        return None
    if tag == _Tag.BOOL:
        return bool(struct.unpack("<B", _read_exact(buf, 1))[0])
    if tag == _Tag.INT:
        return struct.unpack("<q", _read_exact(buf, 8))[0]
    if tag == _Tag.FLOAT:
        return struct.unpack("<d", _read_exact(buf, 8))[0]
    if tag == _Tag.STR:
        return _read_str(buf)
    if tag == _Tag.BYTES:
        (length,) = struct.unpack("<Q", _read_exact(buf, 8))
        return _read_exact(buf, length)
    if tag == _Tag.NDARRAY:
        dtype = np.dtype(_read_str(buf))
        (size,) = struct.unpack("<Q", _read_exact(buf, 8))
        data = _read_exact(buf, size * dtype.itemsize)
        return np.frombuffer(data, dtype=dtype).copy()
    if tag == _Tag.LIST:
        (length,) = struct.unpack("<Q", _read_exact(buf, 8))
        return [_read_object(buf) for _ in range(length)]
    if tag == _Tag.TUPLE:
        (length,) = struct.unpack("<Q", _read_exact(buf, 8))
        return tuple(_read_object(buf) for _ in range(length))
    if tag == _Tag.DICT:
        (length,) = struct.unpack("<Q", _read_exact(buf, 8))
        return {_read_object(buf): _read_object(buf) for _ in range(length)}
    if tag == _Tag.OBJECT:
        if not _COLUMN_CLASSES:
            _register_builtin_classes()
        class_name = _read_str(buf)
        state = _read_object(buf)
        cls = _COLUMN_CLASSES.get(class_name)
        if cls is None:
            raise SerializationError(f"unknown serialised class {class_name!r}")
        instance = object.__new__(cls)
        try:
            instance.__dict__.update(state)
        except AttributeError:
            # Frozen dataclasses (e.g. DataType) have no writable __dict__ slots
            # via normal assignment; fall back to object.__setattr__.
            for key, value in state.items():
                object.__setattr__(instance, key, value)
        return instance
    raise SerializationError(f"unknown tag {tag} in serialised block")


def _serialize_block_into(out: io.BytesIO, block: CompressedBlock) -> dict[str, tuple[int, int]]:
    """Write the block wire format, returning each column's (offset, length).

    Offsets are relative to the start of the serialised block.  Each column's
    span covers exactly its ``name + dependency + encoded object`` bytes, so
    a span can be parsed on its own by :func:`deserialize_column` — this is
    what the table format's column-granular sub-segments (format v3) index.
    """
    out.write(_MAGIC)
    out.write(struct.pack("<I", _VERSION))
    _write_object(out, block.schema.to_dict())
    out.write(struct.pack("<I", block.n_rows))
    stats = block.statistics
    _write_object(out, stats.to_dict() if stats is not None else None)
    out.write(struct.pack("<I", len(block.columns)))
    spans: dict[str, tuple[int, int]] = {}
    for name, column in block.columns.items():
        start = out.tell()
        _write_str(out, name)
        dep = block.dependencies.get(name)
        _write_object(out, dep.to_dict() if dep is not None else None)
        _write_object(out, column)
        spans[name] = (start, out.tell() - start)
    return spans


def serialize_block(block: CompressedBlock) -> bytes:
    """Serialise a compressed block to a self-contained byte string."""
    if not _COLUMN_CLASSES:
        _register_builtin_classes()
    out = io.BytesIO()
    _serialize_block_into(out, block)
    return out.getvalue()


def serialize_block_with_layout(
    block: CompressedBlock,
) -> tuple[bytes, dict[str, tuple[int, int]]]:
    """Serialise a block and report each column's (offset, length) span.

    The bytes are identical to :func:`serialize_block` output — the layout
    is metadata *about* them, recorded by format-v3 table footers so a
    reader can fetch one column's sub-segment without the rest of the block.
    """
    if not _COLUMN_CLASSES:
        _register_builtin_classes()
    out = io.BytesIO()
    spans = _serialize_block_into(out, block)
    return out.getvalue(), spans


def deserialize_block(data: bytes) -> CompressedBlock:
    """Reconstruct a compressed block from :func:`serialize_block` output."""
    if not _COLUMN_CLASSES:
        _register_builtin_classes()
    buf = io.BytesIO(data)
    magic = buf.read(len(_MAGIC))
    if magic != _MAGIC:
        raise SerializationError("not a serialised Corra block (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(buf, 4))
    if version not in (1, _VERSION):
        raise SerializationError(f"unsupported block format version {version}")
    schema = Schema.from_dict(_read_object(buf))
    (n_rows,) = struct.unpack("<I", _read_exact(buf, 4))
    statistics = None
    if version >= 2:
        stats_state = _read_object(buf)
        if stats_state is not None:
            statistics = BlockStatistics.from_dict(stats_state)
    (n_cols,) = struct.unpack("<I", _read_exact(buf, 4))
    columns = {}
    dependencies = {}
    for _ in range(n_cols):
        name = _read_str(buf)
        dep_state = _read_object(buf)
        column = _read_object(buf)
        columns[name] = column
        if dep_state is not None:
            dependencies[name] = ColumnDependency.from_dict(dep_state)
    return CompressedBlock(
        schema=schema,
        n_rows=n_rows,
        columns=columns,
        dependencies=dependencies,
        statistics=statistics,
    )


def deserialize_column(data: bytes):
    """Reconstruct one column from its sub-segment bytes.

    ``data`` is one span of :func:`serialize_block_with_layout` output —
    the ``name + dependency + encoded object`` bytes of a single column.
    Returns ``(name, dependency, encoded_column)`` with ``dependency`` being
    a :class:`~repro.storage.block.ColumnDependency` or ``None``.
    """
    if not _COLUMN_CLASSES:
        _register_builtin_classes()
    buf = io.BytesIO(data)
    name = _read_str(buf)
    dep_state = _read_object(buf)
    column = _read_object(buf)
    if buf.read(1):
        raise SerializationError(f"trailing bytes after serialised column {name!r}")
    dependency = ColumnDependency.from_dict(dep_state) if dep_state is not None else None
    return name, dependency, column


class BlockSerializer:
    """Convenience object API over :func:`serialize_block` / :func:`deserialize_block`."""

    def dumps(self, block: CompressedBlock) -> bytes:
        return serialize_block(block)

    def loads(self, data: bytes) -> CompressedBlock:
        return deserialize_block(data)

    def dump(self, block: CompressedBlock, path) -> int:
        """Write a block to ``path``; returns the number of bytes written."""
        payload = serialize_block(block)
        with open(path, "wb") as f:
            f.write(payload)
        return len(payload)

    def load(self, path) -> CompressedBlock:
        with open(path, "rb") as f:
            return deserialize_block(f.read())
