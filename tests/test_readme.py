"""The README's Python examples run as written.

Every ```python block of ``README.md`` runs in order in one namespace, as a
reader pasting them one after another would run them, so a renamed or
re-signed public name fails here instead of in the quick start.  A numpy
warning or a deprecated call form anywhere in a block fails the test.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_readme_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "no python block in README.md"
    namespace = {}
    for block in blocks:
        exec(block, namespace)
