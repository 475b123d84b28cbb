"""Binary columnar persistence: a whole database as one ``.npz`` file.

Where :mod:`repro.relational.csvio` is the human-readable interchange
format, the snapshot is the fast, exact one a saved model carries so a
serving process starts from the data it was fitted on instead of
regenerating or re-parsing it.  One uncompressed zip archive holds

* ``schema`` — the same JSON document ``schema.json`` carries
  (:func:`~repro.relational.csvio.schema_manifest`), as UTF-8 bytes;
* ``t<i>.c<j>.values`` — the physical array of column ``j`` of table
  ``i`` (strings as fixed-width unicode);
* ``t<i>.c<j>.mask`` — its null mask, present only when the column has
  nulls.

No member is an object array, so reading never unpickles
(``allow_pickle=False`` on both sides), and every dtype, value and null
bit round-trips exactly.  Members carry a fixed timestamp: equal
databases write byte-identical files, so a file's SHA-256 names its
content.
"""

from __future__ import annotations

import json
import os

import numpy as np
from numpy.lib import format as npy_format

from repro.relational.column import Column
from repro.relational.csvio import schema_manifest
from repro.relational.database import Database
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.relational.types import DType, numpy_dtype_for

__all__ = ["write_snapshot", "read_snapshot"]

_SCHEMA_KEY = "schema"


def _fixed_width(values: np.ndarray, where: str) -> np.ndarray:
    """An object array of python strings as a ``<U`` array.

    numpy drops trailing NUL characters from fixed-width strings, so a
    value ending in one cannot be stored exactly and is refused.
    """
    strings = values.tolist()
    if "\x00" in "".join(strings) and any(text.endswith("\x00") for text in strings):
        raise ValueError(f"{where}: strings ending in NUL cannot be stored in a snapshot")
    return values.astype(str)


def write_snapshot(db: Database, path: str) -> None:
    """Write ``db`` to ``path`` atomically (temp file, fsync, rename).

    Columns are streamed one at a time; the only copies made are the
    fixed-width forms of string columns.
    """
    # Imported here, as numpy does for ``np.savez``: a fit that has not
    # saved yet does not carry zipfile and its codecs through training
    # (about 1 MB of its peak RSS).
    import zipfile

    schema = json.dumps(schema_manifest(db)).encode("utf-8")
    members = [(_SCHEMA_KEY, np.frombuffer(schema, dtype=np.uint8))]
    for t, table in enumerate(db):
        for c, name in enumerate(table.column_names):
            column = table[name]
            values = column.values
            if column.dtype == DType.STRING:
                values = _fixed_width(values, f"{table.name}.{name}")
            members.append((f"t{t}.c{c}.values", values))
            if column.mask is not None:
                members.append((f"t{t}.c{c}.mask", column.mask))
    staging = path + ".tmp"
    with open(staging, "wb") as handle:
        with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
            for key, array in members:
                # A bare ZipInfo is dated 1980-01-01, where np.savez
                # would stamp each member with the wall clock.
                with archive.open(zipfile.ZipInfo(key + ".npy"), "w", force_zip64=True) as member:
                    npy_format.write_array(member, array, allow_pickle=False)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staging, path)


def read_snapshot(path: str) -> Database:
    """Load and validate a database written by :func:`write_snapshot`.

    Raises ``ValueError`` when a stored array does not have the
    physical dtype its schema declares, and
    :class:`~repro.relational.database.IntegrityError` when the loaded
    database fails key or referential integrity.
    """
    with np.load(path, allow_pickle=False) as archive:
        manifest = json.loads(archive[_SCHEMA_KEY].tobytes().decode("utf-8"))
        db = Database(name=manifest["name"])
        for t, schema_dict in enumerate(manifest["tables"]):
            schema = TableSchema.from_dict(schema_dict)
            columns = {}
            for c, spec in enumerate(schema.columns):
                values = archive[f"t{t}.c{c}.values"]
                if spec.dtype == DType.STRING:
                    matches = values.dtype.kind == "U"
                else:
                    matches = values.dtype == numpy_dtype_for(spec.dtype)
                if not matches:
                    raise ValueError(
                        f"snapshot {path!r}: {schema.name}.{spec.name} is stored as "
                        f"{values.dtype}, not {spec.dtype.value}"
                    )
                if spec.dtype == DType.STRING:
                    values = values.astype(object)
                mask_key = f"t{t}.c{c}.mask"
                mask = archive[mask_key] if mask_key in archive else None
                columns[spec.name] = Column(values, spec.dtype, mask=mask)
            db.add_table(Table(schema, columns))
    db.validate()
    return db
