"""The ``## Example`` blocks of README.md and PAPER.md run and do what
their comments claim, and their ``## Layout`` tables name the public
functions of each module, no more and no fewer."""

import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def example_block(name):
    text = (ROOT / name).read_text(encoding="utf-8")
    m = re.search(r"^## Example\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert m, f"{name} has no closed python block under '## Example'"
    return m.group(1)


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_example_runs_as_commented(name):
    ns = {}
    exec(compile(example_block(name), name, "exec"), ns)
    A, mu, g = ns["A"], ns["mu"], ns["g"]

    # 2000 simple zeros at half-integers
    assert A.count == 2000
    assert np.all(A.mults == 1)
    assert np.max(np.abs(A.points - np.arange(-999.5, 1000.0))) < 1e-10

    # d = 1, b_k = (-1)^k below the cutoff 10
    assert mu.d == pytest.approx(1.0, abs=1e-12)
    gammas, masses = mu.positive()
    assert np.array_equal(gammas, np.arange(1.0, 10.0))
    assert np.max(np.abs(masses - (-1.0) ** gammas)) < 1e-12

    # the rebuilt sum is cos(pi z): 0.5 at frequencies -0.5 and 0.5
    assert len(g) == 2
    assert np.max(np.abs(g.freqs - [-0.5, 0.5])) < 1e-12
    assert np.max(np.abs(g.coeffs - 0.5)) < 1e-12


def layout_table(name):
    """{module: names in backticks in its row} of the ``## Layout`` table."""
    text = (ROOT / name).read_text(encoding="utf-8")
    m = re.search(r"^## Layout\n+((?:\|.*\n)+)", text, re.M)
    assert m, f"{name} has no table under '## Layout'"
    rows = {}
    for line in m.group(1).splitlines()[2:]:
        module, contents = (c.strip() for c in line.strip("|").split("|"))
        rows[module.strip("`")] = set(re.findall(r"`(\w+)`", contents))
    return rows


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_layout_names_every_public_function(name):
    rows = layout_table(name)
    assert rows
    for module, names in rows.items():
        mod = importlib.import_module(module)
        assert {n for n in names if not hasattr(mod, n)} == set(), module
        public = {n for n, f in vars(mod).items() if inspect.isfunction(f)
                  and f.__module__ == mod.__name__ and not n.startswith("_")}
        assert public - names == set(), module
