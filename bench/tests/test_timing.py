import pytest

from timing import TAIL_BEYOND, tail


def test_few_samples_report_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    assert tail([float(i) for i in range(19)]) == ("max", 18.0)


@pytest.mark.parametrize("n, label", [(20, "p50"), (21, "p52"), (77, "p87"), (100, "p90"), (1000, "p99")])
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, label):
    samples = [float(i) for i in range(n)]
    got_label, value = tail(samples)
    assert got_label == label
    assert sum(s > value for s in samples) >= TAIL_BEYOND
    # one percentile higher would leave fewer than ten beyond
    p = int(label[1:]) + 1
    rank = -(-p * n // 100)
    assert sum(s > samples[rank - 1] for s in samples) < TAIL_BEYOND


def test_tail_ignores_sample_order():
    samples = [float((7 * i) % 50) for i in range(50)]
    assert tail(samples) == tail(sorted(samples))


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        tail([])
