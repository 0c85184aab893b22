import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the fenced python block of the "## Library" section, run as a script
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE).group(1)
    namespace = {}
    exec(compile(example, f"{README}:Library", "exec"), namespace)
    assert namespace["corr"]["s"].tolist() == [10.0, 20.0]
