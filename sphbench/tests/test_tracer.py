"""The span tracer's self times, counts and rebinding."""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from tracer import Tracer  # noqa: E402
from sphtess import combinat, moments  # noqa: E402


def test_self_time_subtracts_children():
    t = Tracer()

    def inner():
        time.sleep(0.02)

    inner_w = t.span("mod.inner", inner)

    def outer():
        time.sleep(0.01)
        inner_w()
        inner_w()

    t.span("mod.outer", outer)()
    st = t.self_times()
    assert 0.04 <= st["mod.inner"] < 0.08
    assert 0.01 <= st["mod.outer"] < 0.03
    # a layer's calls made from inside the same layer are not counted again
    assert t.root_calls("mod.") == 1 and t.root_calls("mod.inner") == 2


def test_rebind_reaches_callers_and_uninstall_restores():
    t = Tracer()
    original = combinat.coeff_B
    t.rebind(combinat, "coeff_B", lambda fn: t.span("combinat.coeff_B", fn))
    assert moments.coeff_B is combinat.coeff_B is not original
    moments.ef_weighted(6, 2, 2, 0)
    assert any(rec[0] == "combinat.coeff_B" for rec in t.spans)
    t.uninstall()
    assert moments.coeff_B is combinat.coeff_B is original


def test_counter_and_written_spans(tmp_path):
    t = Tracer()
    f = t.counter("calls", lambda: None)
    for _ in range(3):
        f()
    assert t.counts["calls"] == 3
    t.span("a", lambda: None)()
    path = tmp_path / "spans.csv.gz"
    t.write(path)
    import gzip

    lines = gzip.open(path, "rt").read().splitlines()
    assert lines[0] == "id,name,start_s,end_s,parent" and lines[1].startswith("0,a,")
