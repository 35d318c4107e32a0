import doctest
import re
from pathlib import Path

from bbcenter import series

README = Path(__file__).resolve().parent.parent / "README.md"


def test_series_doctests():
    failures, _ = doctest.testmod(series)
    assert failures == 0


def test_readme_library_usage_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
