"""The README's library quick tour runs against the library as it is."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    # the first python block: 15 RGN iterations on a noiseless 30^3 instance,
    # printing the final relative error
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
    assert float(capsys.readouterr().out.split()[-1]) <= 1e-10
