"""The tail rule: a p95 needs ten samples beyond it; the fastest time
per op over several runs of one op list."""

from perfbench.stats import MIN_BEYOND, best_per_op, spread, tail


def test_tail_needs_ten_samples_beyond_it():
    assert tail([1.0] * 199) is None  # 9 beyond the 95th percentile
    found = tail([float(i) for i in range(200)])
    assert found is not None
    assert found.samples == 200
    assert found.beyond == MIN_BEYOND


def test_tail_is_nearest_rank():
    values = [float(i) for i in range(1, 401)]  # 1..400, shuffled below
    found = tail(values[::-1])
    assert found.value == 380.0  # rank ceil(0.95 * 400) = 380
    assert found.beyond == 20


def test_tail_of_nothing():
    assert tail([]) is None


def test_spread_is_iqr_over_median():
    assert spread([10.0] * 10) == 0.0
    assert 0.0 < spread([9.0, 10.0, 10.0, 11.0, 10.0]) < 0.2


def test_best_per_op_takes_each_ops_fastest_run():
    runs = [[("put", 3.0), ("get", 1.0)],
            [("put", 2.0), ("get", 4.0)],
            [("put", 5.0), ("get", 2.0)]]
    assert best_per_op(runs) == [("put", 2.0), ("get", 1.0)]


def test_best_per_op_needs_one_op_list():
    assert best_per_op([[("put", 1.0)], [("get", 1.0)]]) is None
    assert best_per_op([[("put", 1.0)], [("put", 1.0), ("get", 1.0)]]) \
        is None
