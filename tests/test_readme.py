"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    code = re.search(r"## Library example\s*```python\n(.*?)```",
                     README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    k_mean, uplus_y_independence = map(float, out.getvalue().split())
    assert abs(k_mean + 1.0) < 1e-3              # ~ -1.0
    assert uplus_y_independence < 1e-12          # ~ 1e-15
