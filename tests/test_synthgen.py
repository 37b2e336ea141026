import json
import time
from collections import Counter
from pathlib import Path

import pytest

from sdgdetect.corpus import Dataset, Document, load_documents, save_documents
from sdgdetect.errors import ParamError, SchemaError
from sdgdetect.synthgen import (
    SynthSpec,
    WordFrequencyTable,
    generate_documents,
    generate_matched,
    load_frequency_table,
)

DATA_DIR = Path(__file__).parent / "data"
DEMO = Path(__file__).parent.parent / "demo"


class TestLoadTable:
    def test_basic(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("# comment\nthe\t10\nwater\t3\n")
        table = load_frequency_table(p)
        assert dict(zip(table.words, table.counts)) == {"the": 10, "water": 3}

    def test_lines_end_at_line_feed_only(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_bytes("the\t10\r\n\u2028\r\nwater\t3\r\nbad\r\n".encode())
        with pytest.raises(SchemaError, match=r"^f\.tsv:4: expected"):
            load_frequency_table(p)

    def test_duplicates_merged_case_insensitively(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("The\t4\nthe\t6\n")
        table = load_frequency_table(p)
        assert dict(zip(table.words, table.counts)) == {"the": 10}

    @pytest.mark.parametrize(
        "body", ["the\t0\n", "the\tx\n", "justaword\n", "\t5\n", "# only comments\n"]
    )
    def test_schema_errors(self, body, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(body)
        with pytest.raises(SchemaError):
            load_frequency_table(p)

    @pytest.mark.parametrize("counts", [[10**400], [10**308, 10**308]])
    def test_counts_past_the_float_range(self, counts, tmp_path):
        # a count float() cannot hold, or a sum of counts that overflows to inf
        p = tmp_path / "f.tsv"
        p.write_text("".join(f"w{i}\t{c}\n" for i, c in enumerate(counts)))
        with pytest.raises(SchemaError, match="counts sum past the float range"):
            load_frequency_table(p)

    @pytest.mark.parametrize("word", ["non-profit", "it's", "a_b", "two words"])
    def test_word_must_be_one_token(self, word, tmp_path):
        # saved synthetic documents are read back by tokenizing their text
        p = tmp_path / "f.tsv"
        p.write_text(f"the\t3\n{word}\t5\n")
        with pytest.raises(SchemaError, match=r"f\.tsv:2: .* is not a single token"):
            load_frequency_table(p)

    def test_probabilities_normalized(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\t3\nb\t1\n")
        probs = load_frequency_table(p).probabilities
        assert probs.sum() == pytest.approx(1.0)
        assert probs[0] == pytest.approx(0.75)


class TestSpec:
    @pytest.mark.parametrize("lengths", [(), (0,), (10**7 + 1,), (-5,)])
    def test_invalid_lengths(self, lengths):
        with pytest.raises(ParamError):
            SynthSpec(lengths, 1, 0)

    def test_invalid_docs_per_length(self):
        with pytest.raises(ParamError):
            SynthSpec((10,), 0, 0)


class TestGenerate:
    def test_shapes_and_ids(self):
        table = WordFrequencyTable(("a", "b"), (1, 1))
        ds = generate_documents(table, SynthSpec((3, 5), 2, seed=0))
        assert [d.id for d in ds.documents] == [
            "syn-3-00000",
            "syn-3-00001",
            "syn-5-00000",
            "syn-5-00001",
        ]
        assert [d.word_count for d in ds.documents] == [3, 3, 5, 5]
        assert not ds.labeled

    def test_seed_determinism(self):
        table = WordFrequencyTable(("a", "b", "c"), (3, 2, 1))
        spec = SynthSpec((20,), 5, seed=99)
        first = generate_documents(table, spec)
        second = generate_documents(table, spec)
        assert first == second
        different = generate_documents(table, SynthSpec((20,), 5, seed=100))
        assert different != first

    def test_degenerate_single_word_table(self):
        table = WordFrequencyTable(("only",), (1,))
        ds = generate_documents(table, SynthSpec((7,), 1, seed=0))
        assert ds.documents[0].tokens == ("only",) * 7

    def test_law_of_large_numbers(self):
        # 10^5 draws from {a:3, b:1}: share of "a" within 0.75 +/- 0.01
        table = WordFrequencyTable(("a", "b"), (3, 1))
        start = time.monotonic()
        ds = generate_documents(table, SynthSpec((100_000,), 1, seed=7))
        assert time.monotonic() - start < 5.0
        counts = Counter(ds.documents[0].tokens)
        assert counts["a"] / 100_000 == pytest.approx(0.75, abs=0.01)

    def test_matched_lengths_exact(self):
        table = WordFrequencyTable(("x", "y"), (1, 1))
        ref = Dataset(
            "ref",
            (
                Document.from_text("d1", "one two three"),
                Document.from_text("d2", "just one"),
            ),
        )
        ds = generate_matched(table, ref, seed=3)
        assert [d.id for d in ds.documents] == ["syn-d1", "syn-d2"]
        assert [d.word_count for d in ds.documents] == [3, 2]

    def test_golden_file(self, tmp_path):
        """Byte-identical output against a committed golden JSONL."""
        table = WordFrequencyTable(("alpha", "beta", "gamma"), (5, 3, 2))
        ds = generate_documents(table, SynthSpec((8,), 3, seed=2024), name="golden")
        out = tmp_path / "golden.jsonl"
        save_documents(ds, out)
        golden = DATA_DIR / "golden_synth.jsonl"
        assert out.read_text() == golden.read_text()
        # the golden file itself is valid JSONL
        for line in golden.read_text().splitlines():
            json.loads(line)

    def test_golden_matched_file(self, tmp_path):
        """Length-matched documents over the demo corpus, byte for byte."""
        reference = load_documents(DEMO / "corpus.jsonl")
        ds = generate_matched(load_frequency_table(DEMO / "wordfreq.tsv"), reference, seed=31)
        assert (ds.name, ds.labeled) == (f"synthetic_{reference.name}", False)
        out = tmp_path / "matched.jsonl"
        save_documents(ds, out)
        assert out.read_text() == (DATA_DIR / "golden_matched.jsonl").read_text()
