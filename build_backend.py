"""Minimal in-tree PEP 517/660 build backend.

The execution environment for this reproduction is fully offline and lacks
the ``wheel`` package, which the stock setuptools backend requires for both
regular and editable wheel builds. This backend implements just enough of
PEP 517 (``build_wheel``) and PEP 660 (``build_editable``) with the standard
library alone so that ``pip install -e .`` works everywhere.

The editable wheel contains a single ``.pth`` file pointing at ``src/``; the
regular wheel contains the package sources. Both carry the required
``*.dist-info`` metadata with real sha256 RECORD entries.
"""

from __future__ import annotations

import base64
import hashlib
import os
import zipfile

NAME = "repro"
VERSION = "1.0.0"
DIST_INFO = f"{NAME}-{VERSION}.dist-info"
TAG = "py3-none-any"

METADATA = f"""\
Metadata-Version: 2.1
Name: {NAME}
Version: {VERSION}
Summary: Application-specific STbus crossbar generation (Murali & De Micheli, DATE 2005)
Requires-Python: >=3.10
Requires-Dist: numpy>=1.24
Requires-Dist: scipy>=1.10
"""

WHEEL_FILE = f"""\
Wheel-Version: 1.0
Generator: repro-in-tree-backend (1.0)
Root-Is-Purelib: true
Tag: {TAG}
"""

ENTRY_POINTS = """\
[console_scripts]
repro = repro.cli:main
"""


def _record_entry(arcname: str, data: bytes) -> str:
    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
    return f"{arcname},sha256={digest.rstrip(b'=').decode()},{len(data)}"


def _write_wheel(path: str, files: dict[str, bytes]) -> None:
    record_name = f"{DIST_INFO}/RECORD"
    records = [_record_entry(arcname, data) for arcname, data in files.items()]
    records.append(f"{record_name},,")
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for arcname, data in files.items():
            archive.writestr(arcname, data)
        archive.writestr(record_name, "\n".join(records) + "\n")


def _dist_info_files() -> dict[str, bytes]:
    return {
        f"{DIST_INFO}/METADATA": METADATA.encode(),
        f"{DIST_INFO}/WHEEL": WHEEL_FILE.encode(),
        f"{DIST_INFO}/entry_points.txt": ENTRY_POINTS.encode(),
    }


def _package_files() -> dict[str, bytes]:
    files: dict[str, bytes] = {}
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, NAME)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            full = os.path.join(dirpath, filename)
            arcname = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, "rb") as handle:
                files[arcname] = handle.read()
    return files


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    """Build a regular wheel containing the package sources."""
    files = _package_files()
    files.update(_dist_info_files())
    wheel_name = f"{NAME}-{VERSION}-{TAG}.whl"
    _write_wheel(os.path.join(wheel_directory, wheel_name), files)
    return wheel_name


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    """Build a PEP 660 editable wheel (a ``.pth`` file pointing at src/)."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
    files = {f"{NAME}.pth": (src + "\n").encode()}
    files.update(_dist_info_files())
    wheel_name = f"{NAME}-{VERSION}-{TAG}.whl"
    _write_wheel(os.path.join(wheel_directory, wheel_name), files)
    return wheel_name


def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []
