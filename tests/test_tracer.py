"""The traced benchmark run patches package names that must exist."""

from pathlib import Path

from ternalg.cyclo import Cyclo
from ternalg.matrixrep import SparseMatrix


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    from tracer import Tracer

    matmul = SparseMatrix.__mul__
    tracer = Tracer()
    try:
        tracer.install()
        assert SparseMatrix.__mul__ is not matmul
        Cyclo(1, 1) * Cyclo(2)
        assert tracer.aggregates["cyclo.mul"][0] == 1
    finally:
        tracer.uninstall()
    assert SparseMatrix.__mul__ is matmul
