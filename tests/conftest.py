"""Shared fixtures.

Session-scoped datasets keep the suite fast: generation is deterministic,
so sharing records across tests cannot leak state (records are treated as
immutable by the library).
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.core import serialization
from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
from repro.engine.deltalog import SEGMENT_NAME


@pytest.fixture
def no_dict_efd(monkeypatch):
    """``with no_dict_efd(): ...`` fails the test if the block builds a
    dict EFD: ``dictionary_from_columns`` raises, and so does
    constructing an :class:`ExecutionFingerprintDictionary`.  Columnar
    reads must answer from the columns and the overlay alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("a dict EFD was built")

    @contextlib.contextmanager
    def guard():
        with monkeypatch.context() as patch:
            patch.setattr(serialization, "dictionary_from_columns", refuse)
            patch.setattr(ExecutionFingerprintDictionary, "__init__", refuse)
            yield

    return guard


@pytest.fixture
def base_files():
    """``base_files(directory)``: the bytes of every file of a columnar
    directory but its delta-log segment — what routed writes must leave
    untouched until a compaction."""

    def read(directory):
        files = {}
        for name in sorted(os.listdir(directory)):
            if name != SEGMENT_NAME:
                with open(os.path.join(directory, name), "rb") as fh:
                    files[name] = fh.read()
        return files

    return read


@pytest.fixture(scope="session")
def small_dataset():
    """All 11 applications, 3 repetitions, single paper metric."""
    config = DatasetConfig(
        metrics=("nr_mapped_vmstat",),
        repetitions=3,
        seed=99,
        duration_cap=160.0,
    )
    return TaxonomistDatasetGenerator(config).generate()


@pytest.fixture(scope="session")
def tiny_dataset():
    """Four well-separated applications, 3 reps — fast focused checks."""
    config = DatasetConfig(
        metrics=("nr_mapped_vmstat",),
        repetitions=3,
        seed=7,
        duration_cap=150.0,
        apps=("ft", "mg", "lu", "CoMD"),
    )
    return TaxonomistDatasetGenerator(config).generate()


@pytest.fixture(scope="session")
def multimetric_dataset():
    """Three metrics x five applications for multi-metric / baseline tests."""
    config = DatasetConfig(
        metrics=(
            "nr_mapped_vmstat",
            "Committed_AS_meminfo",
            "AMO_PKTS_metric_set_nic",
        ),
        repetitions=3,
        seed=13,
        duration_cap=150.0,
        apps=("ft", "mg", "sp", "bt", "miniAMR"),
    )
    return TaxonomistDatasetGenerator(config).generate()
