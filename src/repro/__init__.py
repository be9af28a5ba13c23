"""repro — Execution Fingerprint Dictionary for HPC Application Recognition.

A full reproduction of Jakobsche, Lachiche, Cavelan & Ciorba, *An
Execution Fingerprint Dictionary for HPC Application Recognition*
(IEEE CLUSTER 2021, arXiv:2109.04766), including every substrate the
paper depends on: an LDMS-like monitoring simulation, behaviour models
of the eleven evaluation applications, a simulated cluster, a
Taxonomist-style dataset generator and baseline classifier, and a
from-scratch ML toolbox (the environment has no scikit-learn).

Quick start
-----------
>>> from repro import generate_dataset, EFDRecognizer   # doctest: +SKIP
>>> dataset = generate_dataset(repetitions=6)           # doctest: +SKIP
>>> recognizer = EFDRecognizer().fit(dataset)           # doctest: +SKIP
>>> recognizer.predict(dataset[0])                      # doctest: +SKIP
'ft'
"""

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import DEFAULT_INTERVAL, Fingerprint, build_fingerprints
from repro.core.inverse import UsagePredictor
from repro.core.matcher import MatchResult
from repro.core.multimetric import MultiMetricRecognizer
from repro.core.recognizer import EFDRecognizer
from repro.core.rounding import round_depth, round_depth_array
from repro.core.serialization import (
    dictionary_from_json,
    dictionary_to_json,
    load_dictionary,
    save_dictionary,
)
from repro.core.streaming import StreamingRecognizer, StreamSession
from repro.core.anomaly import DeviationDetector, DeviationReport
from repro.core.temporal import MultiIntervalRecognizer
from repro.core.tuning import select_rounding_depth
from repro.baselines.taxonomist import TaxonomistClassifier
from repro.data.dataset import ExecutionDataset, ExecutionRecord
from repro.data.io import load_dataset, save_dataset
from repro.data.splits import UNKNOWN_LABEL
from repro.data.taxonomist import (
    DatasetConfig,
    TaxonomistDatasetGenerator,
    generate_dataset,
)
from repro.engine import (
    BatchRecognizer,
    EngineStats,
    ShardedDictionary,
    load_columnar,
    save_columnar,
)
from repro.serve import IngestService, NetListener, Sample, ServeConfig
from repro.telemetry.metrics import default_registry

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "EFDRecognizer",
    "ExecutionFingerprintDictionary",
    "Fingerprint",
    "build_fingerprints",
    "DEFAULT_INTERVAL",
    "MatchResult",
    "round_depth",
    "round_depth_array",
    "select_rounding_depth",
    "MultiMetricRecognizer",
    "MultiIntervalRecognizer",
    "UsagePredictor",
    "StreamingRecognizer",
    "StreamSession",
    "DeviationDetector",
    "DeviationReport",
    "dictionary_to_json",
    "dictionary_from_json",
    "save_dictionary",
    "load_dictionary",
    # engine (sharded store + batch recognition)
    "BatchRecognizer",
    "EngineStats",
    "ShardedDictionary",
    "save_columnar",
    "load_columnar",
    # serve (async live-session ingestion + network listener)
    "IngestService",
    "NetListener",
    "Sample",
    "ServeConfig",
    # data
    "ExecutionDataset",
    "ExecutionRecord",
    "DatasetConfig",
    "TaxonomistDatasetGenerator",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
    "UNKNOWN_LABEL",
    # baselines & telemetry
    "TaxonomistClassifier",
    "default_registry",
]
