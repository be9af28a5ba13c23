import json

import pytest

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.core.serialization import (
    dictionary_from_json,
    dictionary_to_json,
    load_dictionary,
    save_dictionary,
)


def _fp(value, node=0):
    return Fingerprint("nr_mapped_vmstat", node, (60.0, 120.0), value)


def _sample_efd():
    efd = ExecutionFingerprintDictionary()
    efd.add(_fp(7500.0, 1), "sp_X")
    efd.add(_fp(7500.0, 1), "bt_X")
    efd.add(_fp(7500.0, 1), "sp_X")
    efd.add(_fp(6000.0, 0), "ft_X")
    return efd


class TestJsonRoundTrip:
    def test_keys_and_labels_preserved(self):
        original = _sample_efd()
        restored = dictionary_from_json(dictionary_to_json(original))
        assert len(restored) == len(original)
        assert restored.lookup(_fp(7500.0, 1)) == ["sp_X", "bt_X"]
        assert restored.lookup_counts(_fp(7500.0, 1)) == {"sp_X": 2, "bt_X": 1}

    def test_insertion_order_preserved(self):
        # Tie-break semantics depend on label order surviving the trip.
        restored = dictionary_from_json(dictionary_to_json(_sample_efd()))
        assert restored.app_names() == ["sp", "bt", "ft"]

    def test_json_is_valid_and_versioned(self):
        payload = json.loads(dictionary_to_json(_sample_efd()))
        assert payload["format_version"] == 1
        assert len(payload["entries"]) == 2

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            dictionary_from_json("{broken")
        with pytest.raises(ValueError, match="missing 'entries'"):
            dictionary_from_json("{}")

    def test_rejects_wrong_version(self):
        payload = json.loads(dictionary_to_json(_sample_efd()))
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            dictionary_from_json(json.dumps(payload))

    def test_rejects_empty_labels(self):
        payload = json.loads(dictionary_to_json(_sample_efd()))
        payload["entries"][0]["labels"] = {}
        with pytest.raises(ValueError, match="no labels"):
            dictionary_from_json(json.dumps(payload))

    def test_rejects_non_positive_counts(self):
        payload = json.loads(dictionary_to_json(_sample_efd()))
        key = next(iter(payload["entries"][0]["labels"]))
        payload["entries"][0]["labels"][key] = 0
        with pytest.raises(ValueError, match="count"):
            dictionary_from_json(json.dumps(payload))


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        path = str(tmp_path / "efd.json")
        save_dictionary(_sample_efd(), path)
        restored = load_dictionary(path)
        assert restored.lookup(_fp(6000.0, 0)) == ["ft_X"]

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "nested" / "dir" / "efd.json")
        save_dictionary(_sample_efd(), path)
        assert load_dictionary(path).stats().n_keys == 2
