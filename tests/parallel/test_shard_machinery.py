"""Edge cases of ``run_sharded``: empty input, unknown formats."""

import pytest

from repro.core import IOCov
from repro.parallel import run_sharded


def test_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    stats: dict = {}
    report = run_sharded(str(path), jobs=4, suite_name="e", stats=stats)
    assert stats["shards"] == 1
    assert report.to_dict() == (
        IOCov(suite_name="e").consume_lttng_file(str(path)).report().to_dict()
    )


def test_analyze_shard_rejects_unknown_format(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("x\n")
    with pytest.raises(ValueError):
        run_sharded(str(path), fmt="ctf")
