"""JSONL readers/writers, RLE masks, atomic writes, trace files."""

import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping, MutableMapping
from pathlib import Path

import numpy as np
import pytest

from cotforge import fixture_path
from cotforge.errors import ValidationError
from cotforge.forge import DomainKey, ImageRecord, OrganMask, VqaCotRecord
from cotforge.geometry import BBox, encode_runs
from cotforge.jsonl import (
    atomic_writer,
    read_corpus,
    read_dataset,
    read_masks,
    rle_decode,
    write_corpus,
    write_trace,
    write_trace_csv,
)
from oracles import decode, read_trace


def make_record(image_id="img", cot="One. Two."):
    return VqaCotRecord(
        image_id=image_id,
        box=BBox(0.1, 0.2, 0.3, 0.4),
        question="Q?",
        answer="A",
        cot=cot,
        domain=DomainKey("mass", "CT"),
        seed="There is a mass in the liver.",
        generator_id="template-v1",
    )


class TestRle:
    def test_decode_simple(self):
        # 2x4 mask: two zeros, three ones, three zeros
        mask = rle_decode([2, 3, 3], 2, 4)
        expected = np.array(
            [[False, False, True, True], [True, False, False, False]]
        )
        assert (mask == expected).all()

    def test_leading_ones_need_zero_run(self):
        mask = rle_decode([0, 2, 2], 1, 4)
        assert (mask == np.array([[True, True, False, False]])).all()

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            rle_decode([2, 3], 2, 4)

    def test_empty_runs_sum_to_zero(self):
        with pytest.raises(ValidationError, match="^RLE runs sum to 0, expected 8$"):
            rle_decode([], 2, 4)

    def test_negative_run_rejected(self):
        with pytest.raises(ValidationError):
            rle_decode([-1, 9], 2, 4)

    def test_sides_are_image_sides(self):
        # a mask has its image's sides: 8192 decodes, one more is a field fault
        assert rle_decode([8191, 1], 8192, 1)[-1, 0]
        for dims, name in [((8193, 1), "height"), ((1, 8193), "width"), ((0, 4), "height")]:
            with pytest.raises(ValidationError, match=rf"^field '{name}' must lie in \[1, 8192\]"):
                rle_decode([0, dims[0] * dims[1]], *dims)

    @pytest.mark.parametrize("runs", [
        [[1, 2], 5],                 # ragged nesting
        [2.0, 3.0, 3.0],             # floats
        ["2", "3", "3"],             # strings
        [2**62] * 4 + [8],           # sums to 8 only after int64 wrap-around
        [2**64, 8],                  # beyond int64
    ])
    def test_malformed_runs_rejected(self, runs):
        with pytest.raises(ValidationError, match="RLE runs"):
            rle_decode(runs, 2, 4)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(40)
        masks = [rng.random((int(rng.integers(1, 12)), int(rng.integers(1, 12)))) < 0.5
                 for _ in range(20)]
        masks += [np.zeros((3, 5), bool), np.ones((4, 2), bool),
                  np.zeros((1, 1), bool), np.ones((1, 1), bool)]
        for mask in masks:
            h, w = mask.shape
            runs = encode_runs(mask).tolist()
            decoded = rle_decode(runs, h, w)
            assert decoded.dtype == bool
            assert (decoded == mask).all()
            # alternating encoding always starts with a zero run
            assert len(runs) >= 1


class TestDatasetReader:
    def good_lines(self):
        return [
            {
                "image_id": "a",
                "width": 64,
                "height": 64,
                "modality": "CT",
                "annotations": [
                    {"box": [0.1, 0.1, 0.5, 0.5], "lesion_class": "mass"}
                ],
            },
            {
                "image_id": "b",
                "width": 32,
                "height": 48,
                "modality": "XRay",
                "annotations": [],
            },
        ]

    def write(self, tmp_path, lines):
        path = tmp_path / "dataset.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(json.dumps(line) + "\n")
        return path

    def test_reads_images_in_order(self, tmp_path):
        images = read_dataset(self.write(tmp_path, self.good_lines()))
        assert [im.image_id for im in images] == ["a", "b"]
        assert images[0].annotations[0].lesion_class == "mass"

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        good = json.dumps(self.good_lines()[0])
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            read_dataset(path)

    def test_missing_field_reports_line(self, tmp_path):
        lines = self.good_lines()
        del lines[1]["modality"]
        with pytest.raises(ValidationError, match="line 2"):
            read_dataset(self.write(tmp_path, lines))

    @pytest.mark.parametrize("field,value", [
        ("width", "64"),
        ("width", True),
        ("height", False),
    ])
    def test_wrong_field_type_reports_line(self, tmp_path, field, value):
        lines = self.good_lines()
        lines[1][field] = value
        with pytest.raises(ValidationError, match=f"line 2: field '{field}'"):
            read_dataset(self.write(tmp_path, lines))

    def test_duplicate_image_id_rejected(self, tmp_path):
        lines = self.good_lines()
        lines[1]["image_id"] = "a"
        with pytest.raises(ValidationError, match="duplicate"):
            read_dataset(self.write(tmp_path, lines))

    def test_bad_box_reports_line(self, tmp_path):
        lines = self.good_lines()
        lines[0]["annotations"][0]["box"] = [0.5, 0.1, 0.5, 0.9]
        with pytest.raises(ValidationError, match="line 1"):
            read_dataset(self.write(tmp_path, lines))


def decode_each_line(path):
    """Image id -> [(label, mask, area)], each line decoded by rle_decode."""
    expected = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            mask = rle_decode(obj["rle"], obj["height"], obj["width"])
            expected.setdefault(obj["image_id"], []).append(
                (obj["organ_label"], mask, int(np.count_nonzero(mask))))
    return expected


def assert_lookups_match(masks_by_image, images, expected):
    assert set(masks_by_image) == set(expected)
    for image in images:
        want = expected.get(image.image_id)
        if want is None:
            assert image.image_id not in masks_by_image
            assert masks_by_image.get(image.image_id, ()) == ()
            continue
        got = masks_by_image[image.image_id]
        assert [m.organ_label for m in got] == [label for label, _, _ in want]
        assert all(np.array_equal(decode(m), mask) and decode(m).dtype == bool
                   for m, (_, mask, _) in zip(got, want))
        assert [m.area for m in got] == [area for _, _, area in want]


class TestMasksReader:
    def write_masks(self, tmp_path, lines):
        path = tmp_path / "masks.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(json.dumps(line) + "\n")
        return path

    def images(self):
        return {
            "a": ImageRecord("a", 4, 2, "CT", []),
        }

    def line(self, label="liver", rle=(2, 3, 3)):
        return {"image_id": "a", "organ_label": label, "height": 2, "width": 4,
                "rle": list(rle)}

    def test_reads_and_groups(self, tmp_path):
        path = self.write_masks(
            tmp_path,
            [
                {"image_id": "a", "organ_label": "liver", "height": 2, "width": 4,
                 "rle": [2, 3, 3]},
                {"image_id": "a", "organ_label": "kidney", "height": 2, "width": 4,
                 "rle": [0, 1, 7]},
            ],
        )
        grouped = read_masks(path, self.images())
        assert [m.organ_label for m in grouped["a"]] == ["liver", "kidney"]

    def test_dims_mismatch_rejected(self, tmp_path):
        path = self.write_masks(
            tmp_path,
            [{"image_id": "a", "organ_label": "liver", "height": 3, "width": 4,
              "rle": [6, 6]}],
        )
        with pytest.raises(ValidationError, match="line 1"):
            read_masks(path, self.images())

    def test_unknown_image_rejected(self, tmp_path):
        path = self.write_masks(
            tmp_path,
            [{"image_id": "zz", "organ_label": "liver", "height": 2, "width": 4,
              "rle": [2, 3, 3]}],
        )
        with pytest.raises(ValidationError, match="zz"):
            read_masks(path, self.images())

    def test_empty_mask_rejected(self, tmp_path):
        path = self.write_masks(
            tmp_path,
            [{"image_id": "a", "organ_label": "liver", "height": 2, "width": 4,
              "rle": [8]}],
        )
        with pytest.raises(ValidationError, match="line 1"):
            read_masks(path, self.images())


    @pytest.mark.parametrize("bad,message", [
        ({"rle": [2, 3]}, "RLE runs sum to 5"),
        ({"rle": [8]}, "organ mask 'liver' is empty"),
        ({"organ_label": ""}, "organ_label must be non-empty"),
        ({"rle": []}, "RLE runs sum to 0, expected 8"),
    ])
    def test_last_line_error_raised_before_any_decode(self, tmp_path, no_decoding,
                                                     bad, message):
        path = self.write_masks(tmp_path, [self.line(), self.line("kidney"),
                                           {**self.line(), **bad}])
        with pytest.raises(ValidationError, match=f"line 3: {message}"):
            read_masks(path, self.images())

    @pytest.mark.parametrize("faults,message", [
        ({"image_id": "zz", "rle": [2, 3]}, "mask references unknown image 'zz'"),
        ({"height": 3, "rle": [2, 3]},
         r"mask dims \(3, 4\) do not match image 'a' dims \(2, 4\)"),
        ({"rle": [2, 3], "organ_label": ""}, "RLE runs sum to 5, expected 8"),
        ({"organ_label": "", "rle": [8]}, "organ_label must be non-empty"),
    ], ids=["unknown-image", "dims", "runs", "label"])
    def test_a_line_with_two_faults_reports_the_first(self, tmp_path, faults, message):
        path = self.write_masks(tmp_path, [{**self.line(), **faults}])
        with pytest.raises(ValidationError, match=f"line 1: {message}$"):
            read_masks(path, self.images())

    def test_reads_and_lookups_decode_nothing(self, tmp_path, no_decoding):
        path = self.write_masks(tmp_path, [self.line(), self.line("kidney", (0, 1, 7))])
        masks_by_image = read_masks(path, self.images())
        assert len(masks_by_image) == 1 and "a" in masks_by_image
        assert list(masks_by_image) == ["a"]
        got = masks_by_image["a"]
        assert [(m.organ_label, m.height, m.width, m.area) for m in got] == [
            ("liver", 2, 4, 3), ("kidney", 2, 4, 1)]
        assert [m.runs.tolist() for m in got] == [[2, 3, 3], [0, 1, 7]]
        assert masks_by_image["a"] == got  # the same masks on every lookup

    def test_each_mask_keeps_its_lines_runs_read_only(self, tmp_path):
        path = self.write_masks(tmp_path, [self.line(), self.line("kidney", (0, 1, 7))])
        for line, om in zip(decode_each_line(path)["a"], read_masks(path, self.images())["a"]):
            _, expected, area = line
            assert np.array_equal(decode(om), expected)
            assert om.area == area == int(np.count_nonzero(decode(om)))
            assert not om.runs.flags.writeable
            with pytest.raises(ValueError):
                om.runs[0] = 1

    def test_mapping_is_read_only(self, tmp_path):
        masks_by_image = read_masks(self.write_masks(tmp_path, [self.line()]),
                                    self.images())
        assert isinstance(masks_by_image, Mapping)
        assert not isinstance(masks_by_image, MutableMapping)
        with pytest.raises(TypeError):
            masks_by_image["a"] = []

    def test_bundled_fixture_lookups_match_rle_decode(self):
        images = read_dataset(fixture_path("forge_dataset.jsonl"))
        path = fixture_path("forge_masks.jsonl")
        masks_by_image = read_masks(path, {im.image_id: im for im in images})
        assert_lookups_match(masks_by_image, images, decode_each_line(path))

    def test_generated_lookups_match_rle_decode(self, tmp_path):
        rng = np.random.default_rng(91)
        images, lines = [], []
        for i in range(6):
            h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            images.append(ImageRecord(f"im{i}", w, h, "CT", []))
            if i == 3:
                continue  # an image without masks
            for k in range(int(rng.integers(1, 5))):
                mask = rng.random((h, w)) < rng.uniform(0.05, 0.95)
                mask.flat[int(rng.integers(h * w))] = True
                lines.append({"image_id": f"im{i}", "organ_label": f"organ{k}",
                              "height": h, "width": w, "rle": encode_runs(mask).tolist()})
        rng.shuffle(lines)  # one image's lines need not be adjacent
        path = self.write_masks(tmp_path, lines)
        masks_by_image = read_masks(path, {im.image_id: im for im in images})
        assert_lookups_match(masks_by_image, images, decode_each_line(path))


    @pytest.mark.parametrize("rle", [[0, True, 7], [2, 3, 3, False], [True, False]])
    def test_a_json_boolean_run_is_rejected(self, tmp_path, rle):
        # true and false would read as runs of 1 and 0
        path = self.write_masks(tmp_path, [self.line(), self.line(rle=rle)])
        with pytest.raises(ValidationError,
                           match="line 2: RLE runs must be non-negative integers$"):
            read_masks(path, self.images())

    def test_a_label_spelling_true_or_false_is_no_boolean_run(self, tmp_path):
        path = self.write_masks(tmp_path, [self.line("true"), self.line("false", (0, 1, 7))])
        got = read_masks(path, self.images())["a"]
        assert [(m.organ_label, m.runs.tolist()) for m in got] == [
            ("true", [2, 3, 3]), ("false", [0, 1, 7])]

    def test_transient_memory_holds_one_chunk_of_run_lists(self, tmp_path):
        # 400 lines of 300 runs at 512x512: their Python lists would take
        # about 5.6 MB, the int64 runs returned 0.92 MB
        rng = np.random.default_rng(12)
        images = {f"im{i}": ImageRecord(f"im{i}", 512, 512, "CT", []) for i in range(40)}
        lines = []
        for k in range(400):
            runs = rng.integers(600, 1100, 299).tolist()
            lines.append({"image_id": f"im{k // 10}", "organ_label": f"organ{k % 10}",
                          "height": 512, "width": 512, "rle": runs + [512 * 512 - sum(runs)]})
        path = self.write_masks(tmp_path, lines)
        tracemalloc.start()
        try:
            masks_by_image = read_masks(path, images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(m.runs.nbytes for masks in masks_by_image.values() for m in masks)
        assert held == 400 * 300 * 8
        assert peak <= held + 1.5 * 2**20


MASK_FAULTS = {  # one line's fault (raw text or fields over a good line)
    "bad-json": '{"image_id": "a", "rle": [8',
    "schema": {"height": "2"},
    "unknown-image": {"image_id": "zz", "rle": [2, 3]},
    "dims": {"height": 3, "rle": [2, 3]},
    "dtype": {"rle": [1.5, 6.5]},
    "boolean": {"rle": [0, True, 7]},
    "negative": {"rle": [-1, 9], "organ_label": ""},
    "sum": {"rle": [2, 3], "organ_label": ""},
    "label": {"organ_label": "", "rle": [8]},
    "empty": {"rle": [8]},
}


class TestFirstFaultAcrossChunks:
    """With the runs packed and checked a chunk of lines at a time
    (`ChunkedRuns`), the error is still the first faulty line's own first fault,
    wherever the chunk edges fall.
    The reference reads each line alone, behind blank lines that keep its
    line number."""

    def images(self):
        return {"a": ImageRecord("a", 4, 2, "CT", [])}

    def good(self, rng):
        mask = rng.random(8) < 0.5
        mask[int(rng.integers(8))] = True
        return {"image_id": "a", "organ_label": f"organ{int(rng.integers(99))}",
                "height": 2, "width": 4, "rle": encode_runs(mask.reshape(2, 4)).tolist()}

    def text(self, line):
        if isinstance(line, str):
            return line
        return json.dumps(line)

    def write(self, path, lines):
        path.write_text("".join(self.text(line) + "\n" for line in lines), encoding="utf-8")
        return path

    def outcome(self, path):
        try:
            masks = read_masks(path, self.images())
        except ValidationError as exc:
            return str(exc)
        return [(m.organ_label, m.runs.tolist(), m.area) for m in masks.get("a", ())]

    def reference(self, tmp_path, lines):
        for i, line in enumerate(lines):
            alone = self.write(tmp_path / "alone.jsonl", [""] * i + [line])
            got = self.outcome(alone)
            if isinstance(got, str):
                return got.replace(str(alone), str(tmp_path / "masks.jsonl"))
        return self.outcome(self.write(tmp_path / "masks.jsonl", lines))

    def fault(self, name, rng):
        fault = MASK_FAULTS[name]
        return fault if isinstance(fault, str) else {**self.good(rng), **fault}

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, None])
    def test_random_files_report_the_reference_fault(self, tmp_path, chunk_budget, budget):
        if budget is not None:
            chunk_budget(budget)
        rng = np.random.default_rng(20240 + (budget or 0))
        names = sorted(MASK_FAULTS)
        for _ in range(40):
            lines = [self.good(rng) for _ in range(int(rng.integers(1, 12)))]
            for _ in range(int(rng.integers(0, 4))):
                name = names[int(rng.integers(len(names)))]
                lines.insert(int(rng.integers(len(lines) + 1)), self.fault(name, rng))
            path = self.write(tmp_path / "masks.jsonl", lines)
            assert self.outcome(path) == self.reference(tmp_path, lines)

    @pytest.mark.parametrize("later", ["bad-json", "unknown-image", "schema", "dims", "dtype"])
    def test_a_runs_fault_in_an_earlier_chunk_comes_first(self, tmp_path, chunk_budget, later):
        # 3-run lines and a budget of 6: lines 1-2 make a chunk, then 3-4
        chunk_budget(6)
        rng = np.random.default_rng(7)
        good = {**self.good(rng), "rle": [2, 3, 3]}
        lines = [good, {**good, "rle": [2, 3, 2]}, good, good, good, self.fault(later, rng)]
        path = self.write(tmp_path / "masks.jsonl", lines)
        with pytest.raises(ValidationError, match="line 2: RLE runs sum to 7, expected 8$"):
            read_masks(path, self.images())

    @pytest.mark.parametrize("name", sorted(MASK_FAULTS))
    def test_a_fault_in_the_last_line_of_a_chunk(self, tmp_path, chunk_budget, name):
        chunk_budget(6)
        rng = np.random.default_rng(8)
        good = {**self.good(rng), "rle": [2, 3, 3]}
        lines = [good, good, good, self.fault(name, rng), {**good, "image_id": "zz"}]
        assert self.outcome(self.write(tmp_path / "masks.jsonl", lines)) == self.reference(
            tmp_path, lines)
        assert "line 4: " in self.reference(tmp_path, lines)

    @pytest.mark.parametrize("faults,message", [
        ({"image_id": "zz", "rle": [2, 3]}, "mask references unknown image 'zz'"),
        ({"height": 3, "rle": [2, 3]},
         r"mask dims \(3, 4\) do not match image 'a' dims \(2, 4\)"),
        ({"rle": [2, 3], "organ_label": ""}, "RLE runs sum to 5, expected 8"),
        ({"organ_label": "", "rle": [8]}, "organ_label must be non-empty"),
    ], ids=["unknown-image", "dims", "runs", "label"])
    @pytest.mark.parametrize("before", [0, 1, 2, 3])
    def test_a_line_with_two_faults_reports_the_first_in_any_chunk(
            self, tmp_path, chunk_budget, faults, message, before):
        chunk_budget(6)
        rng = np.random.default_rng(9)
        good = {**self.good(rng), "rle": [2, 3, 3]}
        lines = [good] * before + [{**good, **faults}, {**good, "organ_label": ""}]
        with pytest.raises(ValidationError, match=f"line {before + 1}: {message}$"):
            read_masks(self.write(tmp_path / "masks.jsonl", lines), self.images())

    @pytest.mark.parametrize("bad", [[2.0, 6], [1.5, 6.5], [2**63, 8], [[2], 6]], ids=repr)
    def test_one_bad_line_among_many_in_a_chunk(self, tmp_path, bad):
        # the default budget: every line shares one chunk with the bad one
        rng = np.random.default_rng(10)
        lines = [self.good(rng) for _ in range(200)]
        lines.insert(97, {**self.good(rng), "rle": bad})
        path = self.write(tmp_path / "masks.jsonl", lines)
        got = self.outcome(path)
        assert got == self.reference(tmp_path, lines)
        assert got.startswith(f"{path}: line 98: ")

    def test_a_good_files_runs_are_read_only_int64_views(self, tmp_path, chunk_budget):
        chunk_budget(50)
        rng = np.random.default_rng(11)
        lines = [self.good(rng) for _ in range(120)]
        masks = read_masks(self.write(tmp_path / "masks.jsonl", lines), self.images())["a"]
        assert len(masks) == len(lines)
        for mask, line in zip(masks, lines):
            assert mask.runs.dtype == np.int64
            assert mask.runs.tolist() == line["rle"]
            assert not mask.runs.flags.writeable
            with pytest.raises(ValueError):
                mask.runs.flags.writeable = True

    @pytest.mark.parametrize("rle", [
        [2**63], [2**63, 2**63], [2**64 - 1], [2**64], [2**63, 1], [-1, 2**63], [-(2**63), 8],
        [2**63 - 1], [-(2**63) - 1, 8], [8, 2**64],
        [8.0], [1.5, 6.5], ["2", 6], [[2], [6]], [[2], 6], [None], [], [[]], [0, 8], [2, 3, 3],
    ], ids=repr)
    @pytest.mark.parametrize("before", [0, 3])
    def test_unusual_runs_fare_as_in_organ_mask(self, tmp_path, chunk_budget, rle, before):
        chunk_budget(5)
        try:
            om = OrganMask("liver", rle, 2, 4)
            expected = [("liver", om.runs.tolist(), om.area)]
        except ValidationError as exc:
            expected = str(exc)
        good = {"image_id": "a", "organ_label": "lung", "height": 2, "width": 4,
                "rle": [1, 2, 5]}
        path = self.write(tmp_path / "masks.jsonl",
                          [good] * before + [{**good, "organ_label": "liver", "rle": rle}])
        got = self.outcome(path)
        if isinstance(expected, str):
            assert got == f"{path}: line {before + 1}: {expected}"
        else:
            assert got == [("lung", [1, 2, 5], 2)] * before + expected


class TestCorpusIo:
    def test_roundtrip_and_byte_stability(self, tmp_path):
        records = [make_record("a"), make_record("b")]
        p1 = tmp_path / "corpus1.jsonl"
        p2 = tmp_path / "corpus2.jsonl"
        write_corpus(p1, records)
        write_corpus(p2, records)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()
        again = read_corpus(p1)
        assert again == records

    def test_unicode_content(self, tmp_path):
        rec = make_record()
        rec.answer = "lóbulo hepático"
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, [rec])
        assert read_corpus(path)[0].answer == "lóbulo hepático"

    def test_empty_cot_rejected_by_default(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = make_record().to_json_dict()
        line["cot"] = ""
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1"):
            read_corpus(path)
        assert read_corpus(path, allow_empty_cot=True)[0].cot == ""

    def test_whitespace_cot_counts_as_empty(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = make_record().to_json_dict()
        line["cot"] = "   "
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1: empty cot"):
            read_corpus(path)

    def test_bad_line_reported(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("{}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1"):
            read_corpus(path)


class TestAtomicWriter:
    def test_no_partial_file_on_crash(self, tmp_path):
        target = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as f:
                f.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_existing_content_preserved_on_crash(self, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_text("original", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as f:
                f.write("partial")
                raise RuntimeError("boom")
        assert target.read_text(encoding="utf-8") == "original"

    def test_writes_on_success(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_writer(target) as f:
            f.write("done")
        assert target.read_text(encoding="utf-8") == "done"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_outputs_take_their_mode_from_the_umask(self, tmp_path, umask):
        # the umask is process-wide, so a child process sets it; it writes
        # a corpus, and a trace with its CSV through the CLI
        code = (f"import os, sys\nos.umask({umask:#o})\n"
                "from cotforge import cli, jsonl\n"
                "out = sys.argv[1]\n"
                "jsonl.write_corpus(os.path.join(out, 'corpus.jsonl'), [])\n"
                "sys.exit(cli.main(['simulate', '--scenario', 'rise',\n"
                "                   '--out', os.path.join(out, 'trace.jsonl'),\n"
                "                   '--csv', os.path.join(out, 'trace.csv')]))\n")
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH", "")]))}
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        modes = {path.name: stat.S_IMODE(path.stat().st_mode)
                 for path in tmp_path.iterdir()}
        want = 0o666 & ~umask
        assert modes == {"corpus.jsonl": want, "trace.jsonl": want, "trace.csv": want}


class TestTraceIo:
    def rows(self):
        return [
            {"kind": "epoch", "epoch": 1, "m_bar": 1.5, "gap_cot": math.inf,
             "realized": {"easy": 1.0, "medium": 0.0, "hard": 0.0}},
            {"kind": "epoch", "epoch": 2, "m_bar": 1.25, "gap_cot": 0.125,
             "realized": {"easy": 0.75, "medium": 0.125, "hard": 0.125}},
        ]

    def test_roundtrip_with_infinity(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        header = {"kind": "header", "seed": 7}
        write_trace(path, header, self.rows())
        got_header, got_rows = read_trace(path)
        assert got_header == header
        assert got_rows[0]["gap_cot"] == math.inf
        assert got_rows[1]["epoch"] == 2

    @pytest.mark.parametrize("first", ['[1, 2]', '"header"', '7', 'null',
                                       '{"kind": "epoch"}'])
    def test_a_first_record_other_than_the_header_is_rejected(self, tmp_path, first):
        path = tmp_path / "trace.jsonl"
        path.write_text(first + "\n" + json.dumps(self.rows()[0]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="first record must be the header$"):
            read_trace(path)

    def test_csv_export_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, self.rows())
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "epoch,lambda_easy,lambda_medium,lambda_hard,m_bar,gap_cot"
        assert lines[1].startswith("1,1.0,0.0,0.0,1.5,")
        assert len(lines) == 3
