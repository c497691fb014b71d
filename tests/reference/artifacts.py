"""The zlib-compressing artifact writer generations were first published with."""

import pathlib

import numpy as np

from repro.common import atomic_writer


def atomic_savez_compressed(path, arrays: dict) -> pathlib.Path:
    """``np.savez_compressed`` through the atomic writer."""
    with atomic_writer(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    return pathlib.Path(path)
