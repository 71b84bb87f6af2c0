"""JSONL result cache: roundtrips, checksums, library versions."""
import hashlib
import json

import pytest

from weylrack.cache import ResultCache, ResultRecord


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path, "1.0")
    inputs = {"n": 3, "group": "B"}
    payload = {"count": 10}
    cache.put("classes", inputs, payload, wall_time_ms=7)
    hit = cache.get("classes", inputs)
    assert hit is not None and hit.payload == payload
    assert hit.wall_time_ms == 7
    # a fresh instance reads the same line back from disk
    again = ResultCache(tmp_path, "1.0").get("classes", inputs)
    assert again is not None and again.payload == payload


def test_miss_on_different_inputs(tmp_path):
    cache = ResultCache(tmp_path, "1.0")
    cache.put("classes", {"n": 3}, {"count": 10})
    assert cache.get("classes", {"n": 4}) is None
    assert cache.get("typed", {"n": 3}) is None


def test_version_change_marks_stale(tmp_path):
    # a record of another library version is never served
    ResultCache(tmp_path, "1.0").put("classes", {"n": 3}, {"count": 10})
    assert ResultCache(tmp_path, "2.0").get("classes", {"n": 3}) is None
    assert ResultCache(tmp_path, "1.0").get("classes", {"n": 3}).payload == {"count": 10}


def test_corrupt_line_is_skipped_with_warning(tmp_path):
    cache = ResultCache(tmp_path, "1.0")
    cache.put("classes", {"n": 3}, {"count": 10})
    cache.put("classes", {"n": 4}, {"count": 20})
    lines = cache.path.read_text("utf-8").splitlines()
    lines[0] = lines[0].replace('"count":10', '"count":99')  # checksum now wrong
    # valid JSON that is not a record object, a record that is not an object,
    # and a checksummed record whose payload is not an object
    five = hashlib.sha256(b"5").hexdigest()
    lines += ["[]", '"x"', "5", json.dumps({"record": 5, "sha256": five})]
    lines.append(ResultRecord("classes", {"n": 5}, 5, 0, "1.0").to_line())
    cache.path.write_text("\n".join(lines) + "\n", "utf-8")
    with pytest.warns(UserWarning) as caught:
        reloaded = ResultCache(tmp_path, "1.0")
    assert [str(w.message).rsplit(":", 1)[1] for w in caught] == [
        " corrupt cache line skipped"
    ] * 6
    assert reloaded.get("classes", {"n": 3}) is None
    assert reloaded.get("classes", {"n": 4}).payload == {"count": 20}


def test_lines_are_deterministic(tmp_path):
    a = ResultCache(tmp_path / "a", "1.0")
    b = ResultCache(tmp_path / "b", "1.0")
    a.put("fk", {"n": 3}, {"dims": [1, 3, 4, 3, 1]}, wall_time_ms=0)
    b.put("fk", {"n": 3}, {"dims": [1, 3, 4, 3, 1]}, wall_time_ms=0)
    assert a.path.read_text("utf-8") == b.path.read_text("utf-8")


def test_record_checksum_verified_on_parse():
    rec = ResultRecord("classes", {"n": 3}, {"count": 10}, 0, "1.0")
    line = rec.to_line()
    parsed = ResultRecord.from_line(line)
    assert parsed.payload == {"count": 10}
    outer = json.loads(line)
    outer["record"]["payload"]["count"] = 11
    with pytest.raises(ValueError):
        ResultRecord.from_line(json.dumps(outer))
