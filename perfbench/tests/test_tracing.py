import segreopt
from segreopt import als, operators, solvers, tensor

import tracing
from tracing import Tracer, patched, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", "", -1, 0, 100],
        ["a", "", 0, 10, 40],
        ["a.child", "", 1, 15, 20],
        ["b", "", 0, 50, 60],
        ["c", "", 0, 55, 70],    # overlaps b: covered once
        ["d", "", 0, 90, 120],   # runs past the parent: clipped
    ]
    assert self_times(spans) == [100 - (30 + 20 + 10), 25, 5, 10, 15, 30]


def test_totals_group_by_label_and_name():
    tracer = Tracer()
    tracer.spans = [["f", "x", -1, 0, 10], ["g", "x", 0, 2, 5], ["f", "y", -1, 20, 24]]
    assert tracer.totals() == {("x", "f"): [1, 7], ("x", "g"): [1, 3], ("y", "f"): [1, 4]}


def test_every_binding_is_patched_and_restored():
    originals = (tensor.batched_contract_all_but, operators.GaussianDesignOp.__dict__["apply"],
                 operators.GaussianDesignOp.__dict__["from_seed"], solvers.run)
    tracer = Tracer()
    with patched(tracer) as absent:
        assert absent == []
        wrapped = solvers.batched_contract_all_but
        assert wrapped is not originals[0]
        assert als.batched_contract_all_but is wrapped
        assert tensor.batched_contract_all_but is wrapped
        assert segreopt.run is solvers.run is not originals[3]
        op = operators.GaussianDesignOp.from_seed(1, (3, 2, 2), 5)
        op.apply(op.adjoint(op.apply(__import__("numpy").ones((3, 2, 2)))))
    names = [s[0] for s in tracer.spans]
    assert names == ["operators.from_seed", "operators.apply", "operators.adjoint",
                     "operators.apply"]
    assert tensor.batched_contract_all_but is originals[0]
    assert solvers.batched_contract_all_but is originals[0]
    assert als.batched_contract_all_but is originals[0]
    assert operators.GaussianDesignOp.__dict__["apply"] is originals[1]
    assert operators.GaussianDesignOp.__dict__["from_seed"] is originals[2]
    assert segreopt.run is solvers.run is originals[3]


def test_absent_targets_are_reported(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("tensor", "no_such_function"), ("no_such_module", "f"),
        ("operators", "GaussianDesignOp.no_such_method")))
    with patched(Tracer()) as absent:
        pass
    assert absent == ["tensor.no_such_function", "no_such_module.f",
                      "operators.no_such_method"]
