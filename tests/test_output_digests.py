import sys
from pathlib import Path

import fewner

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from output_digests import digest_result, family, numeric_digests  # noqa: E402


def test_family_is_the_first_two_components():
    assert family("run_scheme/lc+st/bio/seed0") == "run_scheme/lc+st"
    assert family("cli/train_lc_checkpoint") == "cli/train_lc_checkpoint"
    assert family("cli/sample20/stdout") == "cli/sample20"


def test_digest_result_counts_moved_outputs_per_family():
    old = {
        "cli/stats/stdout": "a",
        "cli/train_lc_checkpoint": "b",
        "run_scheme/lc+st/seed0": "c",
        "run_scheme/lc+st/seed1": "d",
        "run_scheme/lc/seed0": "e",
        "parse/crlf": "f",
    }
    new = {**old, "run_scheme/lc+st/seed0": "x", "cli/train_lc_checkpoint": "y"}
    del new["parse/crlf"]
    new["parse/cr"] = "g"
    result = digest_result(old, new)
    assert result["identical"] == 3
    assert result["total"] == 7
    assert result["differ"] == [
        "cli/train_lc_checkpoint", "parse/cr", "parse/crlf", "run_scheme/lc+st/seed0"
    ]
    assert result["families"] == {
        "cli/stats": {"moved": 0, "total": 1},
        "cli/train_lc_checkpoint": {"moved": 1, "total": 1},
        "parse/cr": {"moved": 1, "total": 1},
        "parse/crlf": {"moved": 1, "total": 1},
        "run_scheme/lc": {"moved": 0, "total": 1},
        "run_scheme/lc+st": {"moved": 1, "total": 2},
    }
    assert list(result["families"]) == sorted(result["families"])


def test_numeric_family_reaches_every_training_error():
    texts = "\n".join(output for _, output in numeric_digests(fewner))
    for error in (
        "non-finite encoder pre-activation",
        "linear-head logit bound reached 1e+300",
        "non-finite gradient in parameter block 'head.weights'",
        "non-finite token weight sum",
    ):
        assert f"NumericError: {error}\n" in texts, error
